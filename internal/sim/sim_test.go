package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunBasicInvariants(t *testing.T) {
	est := core.NewEstimator(tage.Small16K(), core.Options{Mode: core.ModeProbabilistic})
	tr, _ := workload.ByName("FP-1")
	res, err := Run(est, tr, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != "FP-1" || res.Config != "16Kbits" || res.Mode != core.ModeProbabilistic {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if res.Branches != 50000 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if res.Instructions <= res.Branches {
		t.Fatal("instructions must exceed branches")
	}
	// Class counts must sum to totals.
	var preds, misps uint64
	for _, c := range core.Classes() {
		preds += res.Class[c].Preds
		misps += res.Class[c].Misps
	}
	if preds != res.Total.Preds || misps != res.Total.Misps {
		t.Fatalf("class sums (%d,%d) != totals (%d,%d)", preds, misps, res.Total.Preds, res.Total.Misps)
	}
	if res.Total.Preds != res.Branches {
		t.Fatal("every branch must be predicted exactly once")
	}
	if res.FinalProbability != 1.0/128 {
		t.Fatalf("final probability = %v", res.FinalProbability)
	}
}

func TestLevelAggregation(t *testing.T) {
	est := core.NewEstimator(tage.Small16K(), core.Options{Mode: core.ModeProbabilistic})
	tr, _ := workload.ByName("INT-2")
	res, err := Run(est, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	var lvlPreds uint64
	for _, l := range core.Levels() {
		lvlPreds += res.Level(l).Preds
	}
	if lvlPreds != res.Total.Preds {
		t.Fatal("level aggregation must partition all predictions")
	}
	// The three-level property: rate(low) > rate(medium) > rate(high).
	lo, med, hi := res.Level(core.Low).MKP(), res.Level(core.Medium).MKP(), res.Level(core.High).MKP()
	if !(lo > med && med > hi) {
		t.Fatalf("level rates not ordered: low=%.1f med=%.1f high=%.1f MKP", lo, med, hi)
	}
}

func TestCoverageAccessors(t *testing.T) {
	est := core.NewEstimator(tage.Small16K(), core.Options{})
	tr, _ := workload.ByName("MM-1")
	res, err := Run(est, tr, 40000)
	if err != nil {
		t.Fatal(err)
	}
	var pcov, mpcov, classMPKI float64
	for _, c := range core.Classes() {
		pcov += res.Pcov(c)
		mpcov += res.MPcov(c)
		classMPKI += res.ClassMPKI(c)
	}
	if math.Abs(pcov-1) > 1e-9 {
		t.Fatalf("Pcov sums to %v", pcov)
	}
	if res.Total.Misps > 0 && math.Abs(mpcov-1) > 1e-9 {
		t.Fatalf("MPcov sums to %v", mpcov)
	}
	if math.Abs(classMPKI-res.MPKI()) > 1e-9 {
		t.Fatalf("class MPKI sums to %v, total %v", classMPKI, res.MPKI())
	}
}

func TestRunSuiteAggregates(t *testing.T) {
	traces := []trace.Trace{workload.CBP1()[0], workload.CBP1()[5]}
	sr, err := RunSuiteSpec(predictor.TAGESpec(tage.Small16K(), core.Options{}), traces, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PerTrace) != 2 {
		t.Fatalf("per-trace count = %d", len(sr.PerTrace))
	}
	if sr.Aggregate.Branches != sr.PerTrace[0].Branches+sr.PerTrace[1].Branches {
		t.Fatal("aggregate branches mismatch")
	}
	if sr.Aggregate.Total.Misps != sr.PerTrace[0].Total.Misps+sr.PerTrace[1].Total.Misps {
		t.Fatal("aggregate mispredictions mismatch")
	}
	if sr.Aggregate.Trace != "aggregate" || sr.Aggregate.Config != "16Kbits" {
		t.Fatalf("aggregate metadata: %+v", sr.Aggregate)
	}

	// AssembleSuite over the same per-trace results must reproduce the
	// suite bit for bit — it is the single aggregation definition the
	// serial path, the pool and the per-trace memo all share.
	rebuilt := AssembleSuite("16Kbits", core.Options{}.Mode, sr.PerTrace)
	if rebuilt.Aggregate != sr.Aggregate {
		t.Fatalf("AssembleSuite aggregate differs:\n%+v\n%+v", rebuilt.Aggregate, sr.Aggregate)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr, _ := workload.ByName("SERV-1")
	a, _ := RunConfig(tage.Small16K(), core.Options{Mode: core.ModeProbabilistic}, tr, 30000)
	b, _ := RunConfig(tage.Small16K(), core.Options{Mode: core.ModeProbabilistic}, tr, 30000)
	if a.Total != b.Total {
		t.Fatalf("nondeterministic run: %+v vs %+v", a.Total, b.Total)
	}
	for i := range a.Class {
		if a.Class[i] != b.Class[i] {
			t.Fatalf("class %d differs across identical runs", i)
		}
	}
}

// TestRunSpecJRS: the jrs family (16 Kbit TAGE graded by JRS
// miss-distance counters) runs through the one per-branch driver, and its
// High grade is the JRS high-confidence estimate.
func TestRunSpecJRS(t *testing.T) {
	tr, _ := workload.ByName("INT-1")
	res, err := RunSpec(predictor.MustParse("jrs-16K"), tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Binary()
	if conf.Total() != res.Total.Preds {
		t.Fatal("confusion total mismatch")
	}
	// JRS PVP must be high; PVN should be meaningfully above the base rate.
	if conf.PVP() < 0.9 {
		t.Errorf("JRS PVP = %.3f, want > 0.9", conf.PVP())
	}
	base := res.Total.Rate()
	if conf.PVN() < 2*base {
		t.Errorf("JRS PVN = %.3f, want well above base rate %.3f", conf.PVN(), base)
	}
}

// TestResultBinaryMatchesReference: for every registry family, the binary
// confusion derived from Run's seven-class tally must equal a reference
// loop that records High-vs-rest straight from the level Predict returns.
func TestResultBinaryMatchesReference(t *testing.T) {
	tr, _ := workload.ByName("197.parser")
	const limit = 50000
	for _, spec := range []string{
		"tage-16K?mode=standard",
		"tage-16K?mode=probabilistic",
		"ltage-16K",
		"bimodal-16K",
		"perceptron",
		"ogehl",
		"jrs-16K?enhanced=true",
	} {
		t.Run(spec, func(t *testing.T) {
			sp := predictor.MustParse(spec)
			res, err := RunSpec(sp, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			b, err := predictor.Build(sp)
			if err != nil {
				t.Fatal(err)
			}
			var want metrics.Binary
			r := trace.Limit(tr, limit).Open()
			for {
				br, err := r.Next()
				if err != nil {
					break
				}
				pred, _, level := b.Predict(br.PC)
				switch miss := pred != br.Taken; {
				case level == core.High && miss:
					want.HighWrong++
				case level == core.High:
					want.HighCorrect++
				case miss:
					want.LowWrong++
				default:
					want.LowCorrect++
				}
				b.Update(br.PC, br.Taken)
			}
			if got := res.Binary(); got != want {
				t.Fatalf("Result.Binary() = %+v, reference loop = %+v", got, want)
			}
			if want.Total() != limit {
				t.Fatalf("reference loop saw %d branches, want %d", want.Total(), limit)
			}
		})
	}
}

func TestRunTAGEBinary(t *testing.T) {
	tr, _ := workload.ByName("INT-1")
	est := core.NewEstimator(tage.Small16K(), core.Options{Mode: core.ModeProbabilistic})
	res, err := Run(est, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	bin := res.Binary()
	if bin.Total() != res.Total.Preds {
		t.Fatal("confusion total mismatch")
	}
	// The high-confidence class must be very clean (paper: < 1%).
	if bin.PVP() < 0.97 {
		t.Errorf("storage-free PVP = %.3f, want > 0.97", bin.PVP())
	}
}

func TestResultAddMergesMetadata(t *testing.T) {
	var agg Result
	agg.Add(Result{Trace: "x", Config: "c", Branches: 5})
	if agg.Trace != "x" || agg.Config != "c" || agg.Branches != 5 {
		t.Fatalf("Add did not adopt metadata: %+v", agg)
	}
}

func TestMPKIZeroInstr(t *testing.T) {
	var r Result
	if r.MPKI() != 0 {
		t.Fatal("zero-instruction MPKI must be 0")
	}
}

// failAt yields the first n records of inner, then fails with err.
type failAt struct {
	inner trace.Trace
	n     int
	err   error
}

func (f failAt) Name() string { return f.inner.Name() }
func (f failAt) Open() trace.Reader {
	return &failAtReader{inner: f.inner.Open(), left: f.n, err: f.err}
}

type failAtReader struct {
	inner trace.Reader
	left  int
	err   error
}

func (r *failAtReader) Next() (trace.Branch, error) {
	if r.left == 0 {
		return trace.Branch{}, r.err
	}
	r.left--
	return r.inner.Next()
}

// TestRunBatchesLikeOneBranchAtATime: Run reads the trace in batches, so
// limits on either side of a batch boundary and a reader that fails
// mid-batch must give the Result and error of a loop that steps each
// branch as it is read.
func TestRunBatchesLikeOneBranchAtATime(t *testing.T) {
	base, _ := workload.ByName("INT-1")
	readErr := errors.New("read failed")
	spec := predictor.MustParse("tage-16K?mode=probabilistic")
	for _, tc := range []struct {
		name     string
		tr       trace.Trace
		limit    uint64
		branches uint64
	}{
		{"limit=1023", base, 1023, 1023},
		{"limit=1024", base, 1024, 1024},
		{"limit=1025", base, 1025, 1025},
		{"limit=3000", base, 3000, 3000},
		{"fail@1500", failAt{base, 1500, readErr}, 3000, 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr := RunSpec(spec, tc.tr, tc.limit)

			b, err := predictor.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := Result{Trace: tc.tr.Name(), Config: b.Label(), Mode: predictor.ModeOf(b)}
			var wantErr error
			r := trace.Limit(tc.tr, tc.limit).Open()
			for {
				br, err := r.Next()
				if errors.Is(err, io.EOF) {
					want.FinalProbability = predictor.SaturationProbabilityOf(b)
					break
				}
				if err != nil {
					wantErr = err
					break
				}
				want.Step(b, br)
			}
			if gotErr != wantErr {
				t.Fatalf("error %v, want %v", gotErr, wantErr)
			}
			if got.Branches != tc.branches {
				t.Fatalf("stepped %d branches, want %d", got.Branches, tc.branches)
			}
			if got != want {
				t.Fatalf("Result differs from the per-branch loop:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// oddPCs sets bit 0 of every PC from bit 2. Workload PCs are even, and
// the TAGE path history is the PCs' bit 0, so this makes the path hash
// live.
type oddPCs struct{ inner trace.Trace }

func (o oddPCs) Name() string       { return o.inner.Name() }
func (o oddPCs) Open() trace.Reader { return oddPCReader{o.inner.Open()} }

type oddPCReader struct{ inner trace.Reader }

func (r oddPCReader) Next() (trace.Branch, error) {
	b, err := r.inner.Next()
	b.PC |= b.PC >> 2 & 1
	return b, err
}

// TestRunLanesEqualsRunPerBackend: one RunLanes pass over several
// backends gives each backend the Result and the error of its own Run,
// and leaves it in the state its own Run leaves (snapshot bytes), at
// limits on either side of a batch boundary and when the reader fails
// mid-batch. Most TAGE lanes share one geometry, so they follow one
// history front-end; a lane stepped ahead of the pass has another
// history and must not. A shadow classifier's Result equals the Run of
// an estimator that differs from the lane's only in that classifier's
// window. The stream has odd PCs, so the path hash is live.
func TestRunLanesEqualsRunPerBackend(t *testing.T) {
	int1, _ := workload.ByName("INT-1")
	base := oddPCs{int1}
	readErr := errors.New("read failed")
	specs := []string{
		"tage-16K?mode=probabilistic", "jrs-16K", "bimodal-16K", "tage-64K",
		// The 16K geometry again: automaton, counter width and
		// USE_ALT_ON_NA are the tables', not the history's.
		"tage-16K", "tage-16K?mode=adaptive", "tage-16K?ctr=4", "tage-16K?noalt=true",
		"tage-16K?mode=probabilistic&denomlog=3",
	}
	const ahead = "tage-16K?mode=probabilistic"
	shadowWindows := []int{-1, 4, 32}
	cfg, opts := tage.Small16K(), core.Options{Mode: core.ModeProbabilistic}
	for _, tc := range []struct {
		name  string
		tr    trace.Trace
		limit uint64
	}{
		{"limit=1023", base, 1023},
		{"limit=1024", base, 1024},
		{"limit=1025", base, 1025},
		{"fail@1500", failAt{base, 1500, readErr}, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lanes []Lane
			var want []Result
			var wantState [][]byte
			var wantErr error
			run := func(b predictor.Backend) {
				res, err := Run(b, tc.tr, tc.limit)
				want = append(want, res)
				if wantErr == nil {
					wantErr = err
				} else if err != wantErr {
					t.Fatalf("backends disagree on the error: %v and %v", wantErr, err)
				}
			}
			state := func(b predictor.Backend) []byte {
				img, err := predictor.AppendSnapshot(nil, b)
				if err != nil {
					t.Fatal(err)
				}
				return img
			}
			build := func(s string) predictor.Backend {
				b, err := predictor.Build(predictor.MustParse(s))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			for _, s := range specs {
				alone := build(s)
				lanes = append(lanes, Lane{Backend: build(s)})
				run(alone)
				wantState = append(wantState, state(alone))
			}
			// Two hundred branches of another trace put this lane's
			// history ahead of the others'.
			other, _ := workload.ByName("FP-1")
			lane, alone := build(ahead), build(ahead)
			for _, b := range []predictor.Backend{lane, alone} {
				if _, err := Run(b, other, 200); err != nil {
					t.Fatal(err)
				}
			}
			lanes = append(lanes, Lane{Backend: lane})
			run(alone)
			wantState = append(wantState, state(alone))

			shadowed := Lane{Backend: core.NewEstimator(cfg, opts)}
			alone = core.NewEstimator(cfg, opts)
			run(alone)
			wantState = append(wantState, state(alone))
			for _, w := range shadowWindows {
				o := opts
				o.BimWindow = w
				shadowed.Shadows = append(shadowed.Shadows, core.NewOptionsClassifier(cfg, o))
				run(core.NewEstimator(cfg, o))
			}
			lanes = append(lanes, shadowed)

			got, gotErr := RunLanes(lanes, tc.tr, tc.limit)
			if gotErr != wantErr {
				t.Fatalf("error %v, want %v", gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("result %d differs from its own Run:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			for i, l := range lanes {
				if img := state(l.Backend); string(img) != string(wantState[i]) {
					t.Errorf("lane %d (%s) ends the pass in another state than its own Run", i, l.Backend.Label())
				}
			}
		})
	}
}

// BenchmarkRunLanes times one RunLanes pass of k estimators of one
// configuration (64K, §6 probabilistic automaton) over 100k branches of
// INT-3 held in memory, in ns per lane-branch: the pass's time over k
// times its branches. Lanes of one geometry share one history
// front-end, so the per-lane cost falls as k grows; k=1 is the lone
// predictor's path.
func BenchmarkRunLanes(b *testing.B) {
	base, _ := workload.ByName("INT-3")
	recs, err := trace.Collect(trace.Limit(base, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	mem := &trace.Mem{TraceName: base.Name(), Records: recs}
	cfg, opts := tage.Medium64K(), core.Options{Mode: core.ModeProbabilistic}
	for _, k := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				lanes := make([]Lane, k)
				for i := range lanes {
					lanes[i].Backend = core.NewEstimator(cfg, opts)
				}
				b.StartTimer()
				if _, err := RunLanes(lanes, mem, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*len(recs)), "ns/lane-branch")
		})
	}
}
