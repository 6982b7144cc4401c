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
	"repro/internal/core"
	"repro/internal/jrs"
	"repro/internal/looppred"
	"repro/internal/obs"
	"repro/internal/ogehl"
	"repro/internal/perceptron"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sliceLen is the number of steps each AllocsPerRun iteration of a
// per-branch pin drives. AllocsPerRun divides the allocation count by
// the number of runs in integer arithmetic, so a pin that ran one branch
// per run would read 0 for an allocation made on only some branches (one
// made on the mispredictions that reach TAGE's allocate, say). Over a
// 1024-step slice, anything that allocates at least once per 1024 steps
// on average reads non-zero.
const sliceLen = 1024

// allocsPerSlice returns the heap allocations per sliceLen calls of step.
func allocsPerSlice(step func()) float64 {
	return testing.AllocsPerRun(20, func() {
		for range sliceLen {
			step()
		}
	})
}

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
	for _, spec := range []string{"tage-16K", "tage-16K?mode=probabilistic", "tage-16K?mode=adaptive"} {
		est, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the predictor so allocation-time growth (none is expected,
		// but e.g. map-backed designs would hide behind a cold start) is
		// behind us before measuring.
		for _, br := range branches[:10_000] {
			est.Predict(br.PC)
			est.Update(br.PC, br.Taken)
		}
		i := 10_000
		allocs := allocsPerSlice(func() {
			br := branches[i%len(branches)]
			i++
			est.Predict(br.PC)
			est.Update(br.PC, br.Taken)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per %d predicted branches, want 0", spec, allocs, sliceLen)
		}
	}
}

// TestRunZeroAllocsPerBatch asserts that sim.Run's read-then-step batch
// loop allocates nothing per batch: a run over ten 1024-branch batches
// allocates no more than a run over one, so only opening the trace (and
// nothing its length scales) allocates.
func TestRunZeroAllocsPerBatch(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 10*1024))
	if err != nil {
		t.Fatal(err)
	}
	mem := &trace.Mem{TraceName: tr.Name(), Records: branches}
	est, err := New("tage-16K")
	if err != nil {
		t.Fatal(err)
	}
	run := func(limit uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(est, mem, limit); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, ten := run(1024), run(10*1024); ten > one {
		t.Fatalf("sim.Run allocates %.0f times over ten batches, %.0f over one: something allocates per batch", ten, one)
	}
}

// TestAllPredictorHotPathsZeroAllocs pins the predict+update hot path of
// every predictor package at zero heap allocations per branch — not just
// TAGE: the baseline predictors (bimodal, ogehl, perceptron),
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
		{name: "jrs-over-tage", step: func() func(int) {
			p := core.NewEstimator(tage.Small16K(), core.Options{})
			e := jrs.NewDefault(10, 10).Enhanced()
			return func(i int) {
				br := branches[i]
				pred, _, _ := p.Predict(br.PC)
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
			allocs := allocsPerSlice(func() {
				c.step(i % len(branches))
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs per %d predicted branches, want 0", c.name, allocs, sliceLen)
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
		Spec: "tage-16K?mode=probabilistic",
		Key:  "alloc/hot-path",
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
		allocs := allocsPerSlice(func() {
			step(i)
			i++
		})
		if allocs != 0 {
			t.Fatalf("%v allocs per %d served branches, want 0", allocs, sliceLen)
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
	sess, err := c.OpenSession(serve.OpenRequest{Spec: "tage-16K?mode=probabilistic"})
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
		Spec: "tage-64K?mode=probabilistic",
		Key:  "alloc/snapshot",
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
			allocs := allocsPerSlice(func() {
				tc.op(i)
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs per %d ops, want 0", tc.name, allocs, sliceLen)
			}
		})
	}
}

// TestTraceDecodeZeroAllocs asserts the reader of a loaded trace file
// allocates nothing per record.
func TestTraceDecodeZeroAllocs(t *testing.T) {
	src, err := workload.ByName("FP-1")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/alloc.tbt"
	if err := trace.WriteFile(path, trace.Limit(src, 60_000)); err != nil {
		t.Fatal(err)
	}
	mem, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := mem.Open()
	allocs := testing.AllocsPerRun(30_000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per decoded file record, want 0", allocs)
	}
}
