package repro

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §5 for the experiment index). Each benchmark runs the
// corresponding experiment and reports its headline quantities as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. The committed full-length outputs live
// in EXPERIMENTS.md; cmd/reprotables renders the same experiments as
// formatted tables and charts.

import (
	"context"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fetchgate"
	"repro/internal/multipath"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/smtpolicy"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchLimit is the per-trace record budget for the benchmark harness:
// large enough for stable class statistics, small enough to keep a full
// -bench=. run in minutes.
const benchLimit = 150_000

// benchRunner is shared across benchmarks so repeated experiments reuse
// cached suite simulations (all runs are deterministic).
var benchRunner = experiments.New(benchLimit)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchRunner.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].CBP1MPKI, "cbp1-16K-mpki")
		b.ReportMetric(t.Rows[1].CBP1MPKI, "cbp1-64K-mpki")
		b.ReportMetric(t.Rows[2].CBP1MPKI, "cbp1-256K-mpki")
		b.ReportMetric(t.Rows[2].CBP2MPKI, "cbp2-256K-mpki")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.RunFigure2()
		if err != nil {
			b.Fatal(err)
		}
		fig.Render(io.Discard)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.RunFigure3()
		if err != nil {
			b.Fatal(err)
		}
		fig.Render(io.Discard)
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.RunFigure4()
		if err != nil {
			b.Fatal(err)
		}
		// The paper's central §5 quantity: weak tagged counters are
		// drastically less reliable than saturated ones.
		var wtag, stag float64
		for _, tr := range fig.Traces {
			wtag += tr.MPrate(core.Wtag)
			stag += tr.MPrate(core.Stag)
		}
		n := float64(len(fig.Traces))
		b.ReportMetric(wtag/n, "Wtag-MKP")
		b.ReportMetric(stag/n, "Stag-MKP")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		fig.Render(io.Discard)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.RunFigure6()
		if err != nil {
			b.Fatal(err)
		}
		var stag float64
		for _, tr := range fig.Traces {
			stag += tr.MPrate(core.Stag)
		}
		b.ReportMetric(stag/float64(len(fig.Traces)), "Stag-MKP-modified")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchRunner.RunThreeClass(false)
		if err != nil {
			b.Fatal(err)
		}
		// 16K CBP-1 row: the paper's 0.690-0.128 (7) headline cell.
		b.ReportMetric(t.Rows[0].High.Pcov, "high-Pcov-16K-cbp1")
		b.ReportMetric(t.Rows[0].High.MPrate, "high-MKP-16K-cbp1")
		b.ReportMetric(t.Rows[0].Low.MPrate, "low-MKP-16K-cbp1")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchRunner.RunThreeClass(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].High.Pcov, "high-Pcov-16K-cbp1")
		b.ReportMetric(t.Rows[0].High.MPrate, "high-MKP-16K-cbp1")
	}
}

func BenchmarkProbabilitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := benchRunner.RunSweep()
		if err != nil {
			b.Fatal(err)
		}
		first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
		b.ReportMetric(first.High.Pcov-last.High.Pcov, "high-Pcov-range")
		b.ReportMetric(first.High.MPrate-last.High.MPrate, "high-MKP-range")
	}
}

func BenchmarkAblationBimWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.RunBimWindowAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUseAlt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := benchRunner.RunUseAltAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].WithoutMPKI-a.Rows[0].WithMPKI, "usealt-gain-mpki-16K")
	}
}

func BenchmarkAblationCtrWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := benchRunner.RunCtrWidthAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[1].MPKI-a.Rows[0].MPKI, "widening-cost-mpki-16K")
	}
}

func BenchmarkEstimatorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchRunner.RunEstimatorComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Rows[0].Confusion.PVP(), "storage-free-PVP")
		b.ReportMetric(c.Rows[1].Confusion.PVP(), "jrs-PVP")
	}
}

func BenchmarkSelfConfidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := benchRunner.RunSelfConfidence()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range s.Rows {
			if row.Name == "O-GEHL |sum|>=theta" {
				// §2.2's quoted characterization: PVN ~1/3, SPEC ~1/2.
				b.ReportMetric(row.Confusion.PVN(), "ogehl-PVN")
				b.ReportMetric(row.Confusion.Spec(), "ogehl-SPEC")
			}
		}
	}
}

func BenchmarkLTAGE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchRunner.RunLTAGE()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Rows[0].TageMPKI-c.Rows[0].LtageMPKI, "loop-gain-mpki-16K-cbp1")
	}
}

func BenchmarkInversionAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inv, err := benchRunner.RunInversion()
		if err != nil {
			b.Fatal(err)
		}
		// The closest class to the 500 MKP inversion break-even.
		max := 0.0
		for _, row := range inv.Rows {
			if row.MPrate > max {
				max = row.MPrate
			}
		}
		b.ReportMetric(max, "worst-class-MKP")
	}
}

func BenchmarkFetchGating(b *testing.B) {
	tr, err := workload.ByName("300.twolf")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gated, baseline, err := fetchgate.Compare(
			tage.Small16K(),
			core.Options{Mode: core.ModeProbabilistic},
			fetchgate.AggressiveConfig(), tr, benchLimit)
		if err != nil {
			b.Fatal(err)
		}
		s := fetchgate.Evaluate(gated, baseline)
		b.ReportMetric(s.WrongPathReduction, "wrongpath-reduction")
		b.ReportMetric(s.Slowdown, "slowdown")
	}
}

func BenchmarkMultipath(b *testing.B) {
	tr, err := workload.ByName("300.twolf")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		all, err := multipath.Compare(tage.Small16K(),
			core.Options{Mode: core.ModeProbabilistic},
			multipath.DefaultConfig(), tr, 60000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(all[multipath.ForkLowConfidence].ForkAccuracy(), "fork-low-accuracy")
		b.ReportMetric(all[multipath.ForkAlways].WastedFraction(), "fork-always-waste")
	}
}

func BenchmarkSMTPolicy(b *testing.B) {
	var traces []trace.Trace
	for _, n := range []string{"255.vortex", "300.twolf"} {
		tr, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for i := 0; i < b.N; i++ {
		var thr [2]float64
		for pi, p := range []smtpolicy.Policy{smtpolicy.RoundRobin, smtpolicy.ConfidenceThrottle} {
			cfg := smtpolicy.DefaultConfig()
			cfg.Policy = p
			st, err := smtpolicy.Run(tage.Small16K(),
				core.Options{Mode: core.ModeProbabilistic}, cfg, traces, 60000)
			if err != nil {
				b.Fatal(err)
			}
			thr[pi] = st.Throughput()
		}
		b.ReportMetric(thr[1]/thr[0], "confidence-vs-rr-throughput")
	}
}

// BenchmarkPredictUpdate is the per-branch hot-path microbenchmark: one
// Predict+Update pair per iteration over a preloaded in-memory branch
// stream, reporting allocations (the hot path must stay at 0 allocs/op).
func BenchmarkPredictUpdate(b *testing.B) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range StandardConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			est := NewEstimator(cfg, Options{Mode: ModeProbabilistic})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br := branches[i%len(branches)]
				est.Predict(br.PC)
				est.Update(br.PC, br.Taken)
			}
		})
	}
}

// BenchmarkTraceDecode measures the chunked file-trace decoder: one
// record decoded per iteration, reporting allocations (0 allocs/op per
// record).
func BenchmarkTraceDecode(b *testing.B) {
	tr, err := workload.ByName("SERV-1")
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.tbt"
	if err := trace.WriteFile(path, trace.Limit(tr, 200_000)); err != nil {
		b.Fatal(err)
	}
	ft, err := trace.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	r := ft.Open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			r = ft.Open()
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteRunner compares the serial reference path with the
// sharded worker-pool engine over the same suite workload. On a
// multicore box the parallel case should approach a GOMAXPROCS-fold
// speedup (the per-trace runs share nothing).
func BenchmarkSuiteRunner(b *testing.B) {
	traces := CBP1()
	const limit = 30_000
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			pool := sim.SuiteRunner{Workers: bc.workers}
			for i := 0; i < b.N; i++ {
				if _, err := pool.RunSuite(Small16K(), Options{Mode: ModeProbabilistic}, traces, limit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentAxis measures the experiment-axis fan-out: a fresh
// Runner per iteration executes the sweep (7 operating points over the
// same suite) serially and through the pool. Unlike BenchmarkSuiteRunner
// it exercises the arm-level ForEach, the singleflight memo and the
// nested (arm × trace) parallelism, so it is the scaling number for
// composite invocations like `reprotables -experiment all`.
func BenchmarkExperimentAxis(b *testing.B) {
	const limit = 30_000
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.NewWorkers(limit, bc.workers)
				if _, err := r.RunSweep(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompositeAll measures the full `-experiment all` composite on
// a fresh Runner per iteration: wall-clock per composite pass plus the
// trace-level simulation economy of the (config, options, trace) memo as
// custom metrics. trace-sims is the number of distinct per-trace
// simulations actually executed (720 at this limit; before trace-granular
// sharing the composite executed 732 — the suite-level memo re-simulated
// the figure-4/6 trace subsets) and trace-hits the per-trace requests
// served from cache. cmd/benchjson records both in BENCH_<date>.json.
func BenchmarkCompositeAll(b *testing.B) {
	const limit = 4000
	for i := 0; i < b.N; i++ {
		r := experiments.NewWorkers(limit, 0)
		out, err := r.Run("all")
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range out {
			v.Render(io.Discard)
		}
		b.ReportMetric(float64(r.Simulations()), "trace-sims")
		b.ReportMetric(float64(r.TraceHits()), "trace-hits")
	}
}

// BenchmarkServeThroughput measures the online prediction service end
// to end over a real loopback TCP connection: one session streaming
// 1024-branch batches through a live server, one iteration per served
// branch. branches/sec is the headline serving number cmd/benchjson
// records in BENCH_<date>.json (see PERF.md for the 1-core caveat: on
// the build container client and server share one CPU, so this is a
// lower bound on the per-core serving rate).
func BenchmarkServeThroughput(b *testing.B) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open("64K", Options{Mode: ModeProbabilistic})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		n := batch
		if left := b.N - sent; left < n {
			n = left
		}
		off := sent % (len(branches) - batch)
		if _, err := sess.Predict(branches[off : off+n]); err != nil {
			b.Fatal(err)
		}
		sent += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "branches/sec")
}

// BenchmarkCheckpoint measures the durability tax of the serve layer at
// 16K and at 64K, the served configuration: "encode" is the cost of
// serializing a warmed keyed session into its versioned snapshot blob,
// appended into a reused buffer as the SnapGet frame and the checkpoint
// pass do (0 allocs), and "write" is a full forced checkpoint pass —
// snapshot under the session lock plus the atomic temp+rename file
// write (what the background checkpoint loop pays per dirty session per
// interval). The serving hot path itself stays zero-alloc regardless
// (alloc_test.go); this benchmark prices the between-batch passes.
// PERF.md records the numbers.
func BenchmarkCheckpoint(b *testing.B) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 50_000))
	if err != nil {
		b.Fatal(err)
	}
	newWarmEngine := func(b *testing.B, config string) (*serve.Engine, *serve.Session) {
		eng := serve.NewEngine(serve.EngineConfig{})
		cs, err := serve.OpenCheckpointStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AttachStore(cs, 0); err != nil {
			b.Fatal(err)
		}
		sess, err := eng.Open(serve.OpenRequest{
			Config:  config,
			Options: Options{Mode: ModeProbabilistic},
			Key:     "bench/checkpoint",
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		grades := make([]byte, 0, 1024)
		for off := 0; off < len(branches); off += 1024 {
			end := off + 1024
			if end > len(branches) {
				end = len(branches)
			}
			if grades, _ = sess.Serve(branches[off:end], grades[:0], 0); grades == nil {
				b.Fatal("session retired during warmup")
			}
		}
		return eng, sess
	}
	for _, config := range []string{"16K", "64K"} {
		b.Run("encode/"+config, func(b *testing.B) {
			_, sess := newWarmEngine(b, config)
			blob, err := sess.AppendSnapshot(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blob, err = sess.AppendSnapshot(blob[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "bytes/snapshot")
		})
		b.Run("write/"+config, func(b *testing.B) {
			eng, _ := newWarmEngine(b, config)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := eng.CheckpointDirty(int64(i), true); n != 1 {
					b.Fatalf("forced checkpoint pass wrote %d sessions, want 1", n)
				}
			}
		})
	}
}
