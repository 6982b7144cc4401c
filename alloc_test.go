package repro

// Zero-allocation guarantees of the simulation hot paths. The predictor's
// Predict+Update pair and the trace decoder's per-record Next are executed
// hundreds of millions of times per suite run; testing.AllocsPerRun pins
// them at zero heap allocations so a regression shows up as a test
// failure, not as a mysterious slowdown.

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/bimodal"
	"repro/internal/gshare"
	"repro/internal/jrs"
	"repro/internal/looppred"
	"repro/internal/obs"
	"repro/internal/ogehl"
	"repro/internal/perceptron"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPredictUpdateZeroAllocs asserts that a warmed estimator performs no
// heap allocations per predicted branch in any automaton mode.
func TestPredictUpdateZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []AutomatonMode{ModeStandard, ModeProbabilistic, ModeAdaptive} {
		est := NewEstimator(Small16K(), Options{Mode: mode})
		// Warm the predictor so allocation-time growth (none is expected,
		// but e.g. map-backed designs would hide behind a cold start) is
		// behind us before measuring.
		for _, br := range branches[:10_000] {
			est.Predict(br.PC)
			est.Update(br.PC, br.Taken)
		}
		i := 10_000
		allocs := testing.AllocsPerRun(20_000, func() {
			br := branches[i%len(branches)]
			i++
			est.Predict(br.PC)
			est.Update(br.PC, br.Taken)
		})
		if allocs != 0 {
			t.Fatalf("mode %v: %v allocs per predicted branch, want 0", mode, allocs)
		}
	}
}

// TestAllPredictorHotPathsZeroAllocs pins the predict+update hot path of
// every predictor package at zero heap allocations per branch — not just
// TAGE: the baseline predictors (bimodal, gshare, ogehl, perceptron),
// the loop predictor and the JRS confidence estimator all run inside the
// estimator-comparison and extension experiments, where a stray per-
// branch allocation would quietly dominate a suite pass.
func TestAllPredictorHotPathsZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 40_000))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		step func(i int) // one predict+update pair over branches[i]
	}{
		{name: "bimodal", step: func() func(int) {
			p := bimodal.New(12)
			return func(i int) {
				br := branches[i]
				p.Predict(br.PC)
				p.Update(br.PC, br.Taken)
			}
		}()},
		{name: "bimodal-packed", step: func() func(int) {
			p := bimodal.NewPacked(12)
			return func(i int) {
				br := branches[i]
				p.Predict(br.PC)
				p.Update(br.PC, br.Taken)
			}
		}()},
		{name: "gshare", step: func() func(int) {
			p := gshare.New(14, 12)
			return func(i int) {
				br := branches[i]
				p.Predict(br.PC)
				p.Update(br.PC, br.Taken)
			}
		}()},
		{name: "ogehl", step: func() func(int) {
			p := ogehl.New(ogehl.DefaultConfig())
			return func(i int) {
				br := branches[i]
				p.Predict(br.PC)
				p.Update(br.PC, br.Taken)
			}
		}()},
		{name: "perceptron", step: func() func(int) {
			p := perceptron.New(12, 32)
			return func(i int) {
				br := branches[i]
				p.Predict(br.PC)
				p.Update(br.PC, br.Taken)
			}
		}()},
		{name: "looppred", step: func() func(int) {
			p := looppred.New(looppred.DefaultConfig())
			return func(i int) {
				br := branches[i]
				pred := p.Predict(br.PC)
				// Allocation is gated on a main-predictor miss; report a
				// miss whenever the loop predictor itself was wrong or
				// silent, so the allocation path is exercised constantly.
				tageMiss := !pred.Valid || pred.Pred != br.Taken
				p.Update(br.PC, br.Taken, tageMiss)
			}
		}()},
		{name: "jrs-over-gshare", step: func() func(int) {
			p := gshare.New(14, 12)
			e := jrs.NewDefault(10, 10).Enhanced()
			return func(i int) {
				br := branches[i]
				pred := p.Predict(br.PC)
				e.HighConfidence(br.PC, pred)
				e.Update(br.PC, pred, br.Taken)
				p.Update(br.PC, br.Taken)
			}
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Warm up (table growth would be a design bug, but warming keeps
			// the measurement about the steady-state hot path).
			for i := 0; i < 10_000; i++ {
				c.step(i % len(branches))
			}
			i := 10_000
			allocs := testing.AllocsPerRun(20_000, func() {
				c.step(i % len(branches))
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs per predicted branch, want 0", c.name, allocs)
			}
		})
	}
}

// TestServeHotPathZeroAllocs pins the per-branch serving path of the
// online prediction service at zero heap allocations: session lookup in
// the sharded registry, the Predict/Update pair with its tally, and the
// response-frame encode into a reused buffer. This is the loop a server
// connection runs per served branch, so a stray allocation here scales
// with live traffic, not with sessions.
//
// The session is keyed and the engine has a checkpoint store attached —
// the durable configuration — because the guarantee must survive it:
// dirty tracking rides on the branch counter the tally already maintains,
// and checkpoint encoding happens on the checkpoint pass (between
// batches), never on the serving path. AllocsPerRun measures global
// allocations, so the checkpoint itself runs between the measured
// windows, exactly like the background loop interleaving with traffic.
func TestServeHotPathZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	// MaxInflight is on so the measured loop includes the admission gate:
	// overload control must not cost the hot path an allocation. The
	// flight recorder and serve-time histogram are on too — the observing
	// the production handler does per batch rides inside the measured
	// window, so instrumentation that allocates fails this pin.
	eng := serve.NewEngine(serve.EngineConfig{MaxInflight: 4})
	rec := obs.NewFlightRecorder(64)
	eng.SetEvents(rec)
	var hist obs.Histogram
	cs, err := serve.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AttachStore(cs, 0); err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Open(serve.OpenRequest{
		Config:  "16K",
		Options: Options{Mode: ModeProbabilistic},
		Key:     "alloc/hot-path",
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	batch := make([]trace.Branch, 1)
	grades := make([]byte, 0, 8)
	out := make([]byte, 0, 64)
	step := func(i int) {
		s, ok := eng.Lookup(id)
		if !ok {
			t.Fatal("session lost")
		}
		if !eng.AcquireBatch() {
			t.Fatal("admission gate shed an uncontended batch")
		}
		batch[0] = branches[i%len(branches)]
		serveStart := time.Now()
		grades, ok = s.Serve(batch, grades, int64(i))
		served := time.Since(serveStart)
		eng.ReleaseBatch()
		if !ok {
			t.Fatal("session retired")
		}
		// Mirror the server's per-batch instrumentation: one histogram
		// sample and one flight-recorder event per served batch.
		hist.Observe(served)
		rec.Record(obs.Event{
			UnixNano: int64(i), Kind: obs.EvBatch, Conn: 1, Session: id,
			Key: "alloc/hot-path", Backend: "16K", Frame: 0x03, Batch: 1,
			ServeNS: served.Nanoseconds(),
		})
		out = serve.AppendPredictions(out[:0], id, grades)
	}
	for i := 0; i < 10_000; i++ {
		step(i)
	}
	i := 10_000
	measure := func() {
		allocs := testing.AllocsPerRun(20_000, func() {
			step(i)
			i++
		})
		if allocs != 0 {
			t.Fatalf("%v allocs per served branch, want 0", allocs)
		}
	}
	measure()
	// A checkpoint pass between batches must not disturb the next window
	// (and the session, having served branches, must actually be dirty).
	if n := eng.CheckpointDirty(1, false); n != 1 {
		t.Fatalf("CheckpointDirty wrote %d checkpoints, want 1", n)
	}
	measure()
}

// TestClientPredictZeroAllocs pins a warm 64-branch client round trip
// against an in-process server over loopback at zero heap allocations.
// AllocsPerRun counts process-wide, so the server's read, serve and
// write of the frame are inside the measured window too.
func TestClientPredictZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 6400))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	}()
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open("16K", Options{Mode: ModeProbabilistic})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		off := i % (len(branches) / 64) * 64
		i++
		if _, err := sess.Predict(branches[off : off+64]); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 200; j++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("%v allocs per 64-branch round trip, want 0", allocs)
	}
}

// TestSessionSnapshotZeroAllocs pins the durable snapshot of a warmed
// session of the served configuration (64K probabilistic) at zero heap
// allocations when it is appended into a pre-grown buffer — the path
// FrameSnapGet and the checkpoint pass take with their reused buffers.
// Only the first snapshot of a session allocates, to resolve its spec.
func TestSessionSnapshotZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := serve.NewEngine(serve.EngineConfig{}).Open(serve.OpenRequest{
		Config:  "64K",
		Options: Options{Mode: ModeProbabilistic},
		Key:     "alloc/snapshot",
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.Serve(branches, nil, 0); !ok {
		t.Fatal("session retired")
	}
	buf, err := sess.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = sess.AppendSnapshot(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per snapshot into a reused buffer, want 0", allocs)
	}
}

// TestObsHotPathZeroAllocs pins each observability primitive at zero
// heap allocations per operation in isolation: atomic counter and gauge
// updates, a histogram observation (bucket index + three atomic adds),
// and a flight-recorder event (one ring-slot copy under a mutex). These
// are the operations the serve handler performs per batch, so any of
// them allocating would put a per-batch allocation on the hot path.
func TestObsHotPathZeroAllocs(t *testing.T) {
	var c obs.Counter
	var g obs.Gauge
	var h obs.Histogram
	rec := obs.NewFlightRecorder(64)
	cases := []struct {
		name string
		op   func(i int)
	}{
		{"counter", func(i int) { c.Inc(); c.Add(uint64(i)) }},
		{"gauge", func(i int) { g.Set(int64(i)); g.Add(-1) }},
		{"histogram", func(i int) { h.ObserveValue(uint64(i) * 977) }},
		{"flight-recorder", func(i int) {
			rec.Record(obs.Event{
				UnixNano: int64(i), Kind: obs.EvBatch, Conn: 7, Session: 42,
				Key: "alloc/obs", Backend: "64Kbits", Frame: 0x03, Batch: 512,
				QueueNS: 1000, ServeNS: 2000, FlushNS: 300,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(20_000, func() {
				tc.op(i)
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs per op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestTraceOpenReuseZeroAllocs asserts that reopening a synthetic
// workload Program allocates nothing once its reader pool is warm: an
// exhausted reader returns itself to the Program's pool, and the next
// Open re-derives every random stream and resets (not reallocates) every
// behavior instance. This is the guarantee that cut the ~290k
// trace-open allocations a full Table 1 run used to pay (3 configs × 2
// suites × 20 traces, each Open rebuilding hundreds of per-site
// objects). The program below deliberately includes every behavior
// archetype, so a behavior whose instance loses its Resettable
// implementation shows up here as a per-Open allocation.
func TestTraceOpenReuseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; pool-recycling alloc pins cannot hold under -race")
	}
	prog := workload.NewBuilder("alloc-probe", 0xA110C).
		SetLength(2048).
		Block(4, 2, 5,
			workload.S(workload.Const{Taken: true}),
			workload.S(workload.Loop{Trip: 7}),
			workload.S(workload.VarLoop{Min: 2, Max: 9}),
			workload.S(workload.Biased{P: 0.7}),
		).
		Block(3, 2, 4,
			workload.S(workload.Pattern{Bits: []bool{true, false, true}, Noise: 0.01}),
			workload.S(workload.Correlated{Lags: []int{2, 5}, Noise: 0.02}),
			workload.S(workload.Markov{PHot: 0.9, PCold: 0.1, Switch: 0.01}),
		).
		Block(2, 1, 3,
			workload.S(workload.Phased{
				Phases: []workload.Behavior{workload.Biased{P: 0.9}, workload.Loop{Trip: 4}},
				Period: 200,
			}),
			workload.S(workload.LocalPattern{Taps: []int{1, 3}}),
		).
		MustBuild()

	drain := func() {
		r := prog.Open()
		for {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	}
	allocs := testing.AllocsPerRun(30, drain)
	if allocs != 0 {
		t.Fatalf("%v allocs per trace reopen, want 0 (reader pool not recycling)", allocs)
	}

	// Every experiment drives traces through trace.Limit (sim.Run wraps
	// unconditionally), so the wrapped path must recycle too: the
	// truncating wrapper releases the inner reader back to the pool via
	// the exported Close hook. Only the limitReader wrapper itself may
	// allocate per Open.
	for _, limit := range []uint64{1024, 2048, 4096} { // truncated, exact, over-length
		lt := trace.Limit(prog, limit)
		drainWrapped := func() {
			r := lt.Open()
			for {
				if _, err := r.Next(); err != nil {
					return
				}
			}
		}
		allocs = testing.AllocsPerRun(30, drainWrapped)
		if allocs > 1 {
			t.Fatalf("limit %d: %v allocs per wrapped reopen, want <= 1 (inner reader not recycling through trace.Limit)", limit, allocs)
		}
	}
}

// TestTraceDecodeZeroAllocs asserts the chunked file decoder allocates
// nothing per decoded record.
func TestTraceDecodeZeroAllocs(t *testing.T) {
	src, err := workload.ByName("FP-1")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/alloc.tbt"
	if err := trace.WriteFile(path, trace.Limit(src, 60_000)); err != nil {
		t.Fatal(err)
	}
	ft, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := ft.Open()
	allocs := testing.AllocsPerRun(30_000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per decoded file record, want 0", allocs)
	}

	// The in-memory reader must also be allocation-free per record.
	mem, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mr := mem.Open()
	allocs = testing.AllocsPerRun(30_000, func() {
		if _, err := mr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per decoded memory record, want 0", allocs)
	}
}
