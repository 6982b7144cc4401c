package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/workload"
)

// TestParallelSuiteBitIdenticalToSerial is the determinism contract of the
// sharded engine: for every automaton mode, a multi-worker RunSuiteSpec must
// produce exactly the same SuiteResult — per-trace results, aggregate
// counts, and final float fields — as the serial reference path.
func TestParallelSuiteBitIdenticalToSerial(t *testing.T) {
	traces := workload.CBP1()[:6]
	for _, mode := range []core.AutomatonMode{core.ModeStandard, core.ModeProbabilistic, core.ModeAdaptive} {
		opts := core.Options{Mode: mode}
		serial, err := RunSuiteSpec(predictor.TAGESpec(tage.Small16K(), opts), traces, 20000)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			par, err := SuiteRunner{Workers: workers}.RunSuiteSpec(predictor.TAGESpec(tage.Small16K(), opts), traces, 20000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("mode %v, %d workers: parallel result diverges\nserial:   %+v\nparallel: %+v",
					mode, workers, serial.Aggregate, par.Aggregate)
			}
		}
	}
}

// TestRunJobsPreservesJobOrder checks results land in the slot of the job
// that produced them, independent of completion order.
func TestRunJobsPreservesJobOrder(t *testing.T) {
	traces := workload.CBP1()[:5]
	jobs := make([]Job, len(traces))
	for i, tr := range traces {
		jobs[i] = Job{Cfg: tage.Small16K(), Opts: core.Options{}, Trace: tr, Limit: 10000}
	}
	out, err := SuiteRunner{Workers: 4}.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out), len(jobs))
	}
	for i, res := range out {
		if res.Trace != traces[i].Name() {
			t.Fatalf("slot %d holds trace %q, want %q", i, res.Trace, traces[i].Name())
		}
	}
}

// TestForEachReturnsLowestIndexError mirrors the serial loop's error
// semantics: with several failing iterations, the reported error is the
// one a serial loop would have hit first.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := SuiteRunner{Workers: 4}.ForEach(10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("want lowest-index error %v, got %v", errA, err)
	}
}

// TestForEachRunsEveryIndexOnce counts invocations under contention.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	if err := (SuiteRunner{Workers: 8}).ForEach(n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachJobTime checks the optional per-iteration wall-time
// histogram sees every iteration exactly once — on both the serial
// degenerate path and the worker pool — and stays inert when nil.
func TestForEachJobTime(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var hist obs.Histogram
		runner := SuiteRunner{Workers: workers, JobTime: &hist}
		if err := runner.ForEach(25, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := hist.Count(); got != 25 {
			t.Fatalf("%d workers: JobTime saw %d iterations, want 25", workers, got)
		}
	}
	// An iteration that fails is still timed (it ran).
	var hist obs.Histogram
	boom := errors.New("boom")
	err := SuiteRunner{Workers: 1, JobTime: &hist}.ForEach(3, func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := hist.Count(); got != 2 {
		t.Fatalf("JobTime saw %d iterations, want 2 (serial stops at the failure)", got)
	}
}

// TestForEachZeroAndNegativeWorkers exercises the GOMAXPROCS default.
func TestForEachZeroAndNegativeWorkers(t *testing.T) {
	for _, w := range []int{0, -3} {
		ran := 0
		var mu atomic.Int32
		if err := (SuiteRunner{Workers: w}).ForEach(4, func(i int) error {
			mu.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int(mu.Load()) != 4 {
			t.Fatalf("workers=%d ran %d of 4 iterations", w, ran)
		}
	}
}
