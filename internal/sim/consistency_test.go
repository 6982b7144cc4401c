package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestBinaryAndClassDriversAgree cross-checks the two views of one run:
// the seven-class tally (Level) and the binary confusion (Binary) must
// describe the identical prediction stream, so totals and the high-level
// split must match exactly.
func TestBinaryAndClassDriversAgree(t *testing.T) {
	tr, _ := workload.ByName("197.parser")
	opts := core.Options{Mode: core.ModeProbabilistic}

	full, err := Run(core.NewEstimator(tage.Small16K(), opts), tr, 50000)
	if err != nil {
		t.Fatal(err)
	}
	bin := full.Binary()

	if bin.Total() != full.Total.Preds {
		t.Fatalf("totals diverge: %d vs %d", bin.Total(), full.Total.Preds)
	}
	if bin.HighWrong+bin.LowWrong != full.Total.Misps {
		t.Fatalf("mispredictions diverge: %d vs %d", bin.HighWrong+bin.LowWrong, full.Total.Misps)
	}
	hi := full.Level(core.High)
	if bin.HighCorrect+bin.HighWrong != hi.Preds {
		t.Fatalf("high-level predictions: %d vs %d",
			bin.HighCorrect+bin.HighWrong, hi.Preds)
	}
	if bin.HighWrong != hi.Misps {
		t.Fatalf("high-level mispredictions: %d vs %d", bin.HighWrong, hi.Misps)
	}
}

// TestSuiteAggregateEqualsManualSum re-derives the aggregate from the
// per-trace results.
func TestSuiteAggregateEqualsManualSum(t *testing.T) {
	traces := workload.CBP1()[:4]
	sr, err := RunSuiteSpec(predictor.TAGESpec(tage.Small16K(), core.Options{}), traces, 15000)
	if err != nil {
		t.Fatal(err)
	}
	var manual Result
	for _, res := range sr.PerTrace {
		manual.Add(res)
	}
	if manual.Total != sr.Aggregate.Total {
		t.Fatalf("aggregate totals: %+v vs %+v", manual.Total, sr.Aggregate.Total)
	}
	for i := range manual.Class {
		if manual.Class[i] != sr.Aggregate.Class[i] {
			t.Fatalf("class %d aggregate mismatch", i)
		}
	}
	if manual.Instructions != sr.Aggregate.Instructions {
		t.Fatal("instruction totals mismatch")
	}
}

// TestHeterogeneousJobsParallelMatchesSerial drives the sharded engine
// with a mixed (trace × config × mode) job list — the shape composite
// experiments produce — and requires slot-for-slot identical results
// between one worker and many.
func TestHeterogeneousJobsParallelMatchesSerial(t *testing.T) {
	traces := workload.CBP1()[:3]
	var jobs []Job
	for _, cfg := range []func() tage.Config{tage.Small16K, tage.Medium64K} {
		for _, mode := range []core.AutomatonMode{core.ModeStandard, core.ModeProbabilistic} {
			for _, tr := range traces {
				jobs = append(jobs, Job{Cfg: cfg(), Opts: core.Options{Mode: mode}, Trace: tr, Limit: 12000})
			}
		}
	}
	serial, err := Serial.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SuiteRunner{Workers: 6}.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("job %d diverges under parallel execution:\nserial:   %+v\nparallel: %+v",
				i, serial[i], par[i])
		}
	}
}

// TestFreshEstimatorPerTrace verifies that suite runs do not leak state
// across traces: running trace B alone equals running it after trace A in
// a suite.
func TestFreshEstimatorPerTrace(t *testing.T) {
	a, _ := workload.ByName("FP-1")
	b, _ := workload.ByName("MM-1")
	suite, err := RunSuiteSpec(predictor.TAGESpec(tage.Small16K(), core.Options{}), []trace.Trace{a, b}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunConfig(tage.Small16K(), core.Options{}, b, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if suite.PerTrace[1].Total != alone.Total {
		t.Fatalf("state leaked across suite traces: %+v vs %+v",
			suite.PerTrace[1].Total, alone.Total)
	}
}
