package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Job is one independent simulation unit: a fresh estimator for (Cfg,
// Opts) driven over Trace. Jobs share no mutable state, which is what
// makes the suite embarrassingly parallel.
type Job struct {
	Cfg   tage.Config
	Opts  core.Options
	Trace trace.Trace
	Limit uint64
}

// SuiteRunner fans independent simulation jobs out across a worker pool.
//
// Determinism: every job is itself deterministic (fresh predictor, seeded
// randomness, replayable trace), results are written to the slot of the
// job that produced them, and all merging happens in job order after the
// pool drains — so the output is bit-identical to the serial path no
// matter how the scheduler interleaves workers.
//
// The zero value runs with GOMAXPROCS workers; Workers=1 degrades to a
// plain serial loop with no goroutines.
type SuiteRunner struct {
	// Workers is the pool size. <= 0 selects GOMAXPROCS.
	Workers int
	// JobTime, when non-nil, receives one wall-time sample per completed
	// iteration (per trace in a suite run). The histogram is safe for the
	// pool's concurrent observes and costs nothing when nil.
	JobTime *obs.Histogram
}

// Serial is the explicit single-worker runner (the reference semantics
// the parallel path must reproduce bit for bit).
var Serial = SuiteRunner{Workers: 1}

func (s SuiteRunner) workerCount(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across the pool and returns
// the lowest-index error (the same error a serial loop would return
// first). Iterations must be independent of each other.
//
// After a failure, workers stop claiming new indices (in-flight
// iterations still finish). Indices are claimed in increasing order, so
// everything below the first failing index has already been claimed and
// completes — the lowest-index error is always recorded before the pool
// drains, keeping the returned error identical to the serial loop's.
func (s SuiteRunner) ForEach(n int, fn func(i int) error) error {
	if s.JobTime != nil {
		inner := fn
		hist := s.JobTime
		fn = func(i int) error {
			start := time.Now()
			err := inner(i)
			hist.Observe(time.Since(start))
			return err
		}
	}
	w := s.workerCount(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunJobs executes every job and returns the results in job order.
func (s SuiteRunner) RunJobs(jobs []Job) ([]Result, error) {
	out := make([]Result, len(jobs))
	err := s.ForEach(len(jobs), func(i int) error {
		res, err := RunConfig(jobs[i].Cfg, jobs[i].Opts, jobs[i].Trace, jobs[i].Limit)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunSuiteSpec runs a suite: a fresh backend built from the spec per
// trace (predictor state never leaks across traces, as in the
// championship framework), per-trace results in trace order, and the
// aggregate accumulated in trace order (bit-identical to the serial
// aggregate).
func (s SuiteRunner) RunSuiteSpec(sp predictor.Spec, traces []trace.Trace, limit uint64) (SuiteResult, error) {
	// Build one probe instance up front: it validates the spec once
	// (before any worker runs) and supplies the aggregate's label/mode.
	probe, err := predictor.Build(sp)
	if err != nil {
		return SuiteResult{}, err
	}
	per := make([]Result, len(traces))
	err = s.ForEach(len(traces), func(i int) error {
		res, err := RunSpec(sp, traces[i], limit)
		if err != nil {
			return err
		}
		per[i] = res
		return nil
	})
	if err != nil {
		return SuiteResult{}, err
	}
	return AssembleSuite(probe.Label(), predictor.ModeOf(probe), per), nil
}

// RunSuiteSpec runs a suite over the spec's backend with the serial
// reference runner. A TAGE (Config, Options) pair runs as
// RunSuiteSpec(predictor.TAGESpec(cfg, opts), ...).
func RunSuiteSpec(sp predictor.Spec, traces []trace.Trace, limit uint64) (SuiteResult, error) {
	return Serial.RunSuiteSpec(sp, traces, limit)
}
