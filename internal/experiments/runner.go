// Package experiments regenerates every table and figure of the paper's
// evaluation (Names lists every experiment; `reprotables -listnames`
// prints it):
//
//	Table 1   — the three predictor configurations and their misp/KI
//	Figure 2  — prediction/misprediction class distributions, CBP-1
//	Figure 3  — the same for CBP-2
//	Figure 4  — per-class misprediction rates, 7 CBP-2 traces, 64 Kbit
//	Figure 5  — distributions under the modified automaton
//	Figure 6  — per-class rates under the modified automaton
//	Table 2   — three-level coverage/rate summary, probability 1/128
//	Table 3   — the same with the adaptive probability controller
//	§6.2      — the saturation-probability sweep
//
// plus ablation studies (USE_ALT_ON_NA, the medium-conf-bim window,
// counter width, storage-free vs JRS estimation).
//
// A Runner caches simulations at (configuration, options, trace)
// granularity, so composite invocations (`-experiment all`, the
// benchmark harness) run each shared trace simulation exactly once —
// including across suites and trace subsets that overlap.
package experiments

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultLimit is the per-trace record budget used when none is given.
// Experiments remain meaningful from ~100k records; the full SuiteLength
// (600k) is what `reprotables` renders by default.
const DefaultLimit = workload.SuiteLength

// Runner executes and caches simulations at (config, options, trace)
// granularity. Simulations fan out across Pool's workers; results (and
// therefore the memoized cache) are bit-identical to a serial run
// regardless of the worker count.
//
// A Runner is safe for concurrent use: the memo is a per-trace
// singleflight — when several experiment arms ask for the same (config,
// options, trace) triple concurrently, one of them simulates and the
// rest block on the result, so every distinct triple is simulated
// exactly once per Runner lifetime no matter how the arms are scheduled.
// Because the unit of sharing is the trace rather than the whole suite,
// suites that overlap (a full-suite table row and a figure's trace
// subset, say) share the overlapping runs too: Suite and Traces assemble
// their results from the same per-trace entries.
type Runner struct {
	// Limit is the per-trace record budget (0 = full trace).
	Limit uint64
	// Pool is the simulation worker pool (zero value = GOMAXPROCS
	// workers; Workers=1 forces the serial reference path).
	Pool sim.SuiteRunner

	mu    sync.Mutex
	cache map[string]*traceEntry
	sims  atomic.Uint64 // distinct per-trace simulations actually executed
	hits  atomic.Uint64 // per-trace requests served from the memo
}

// traceEntry is one memoized (config, options, trace) simulation; once
// gates the single execution, after which res/err are immutable.
type traceEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// New returns a Runner with the given per-trace record budget, running
// simulations across GOMAXPROCS workers.
func New(limit uint64) *Runner {
	return NewWorkers(limit, 0)
}

// NewWorkers returns a Runner with an explicit worker count (<= 0 =
// GOMAXPROCS, 1 = serial).
func NewWorkers(limit uint64, workers int) *Runner {
	return &Runner{
		Limit: limit,
		Pool:  sim.SuiteRunner{Workers: workers},
	}
}

// keyPrefix is the canonical backend spec for (cfg, opts) plus a
// separator; a trace's cache key is this prefix plus the trace name
// (appended once per trace, so a suite lookup formats the config exactly
// once). predictor.TAGESpec encodes every result-affecting Config and
// Options field losslessly and injectively — distinct pairs always
// produce distinct specs — so the key is collision-proof by
// construction, replacing the hand-maintained field list that once
// omitted AdaptiveWindow and truncated TargetMKP.
func (r *Runner) keyPrefix(cfg tage.Config, opts core.Options) string {
	return predictor.TAGESpec(cfg, opts).String() + "|"
}

// results returns the per-trace results for (cfg, opts) over traces, in
// trace order, simulating only the traces the memo has not seen. Every
// trace goes through the pool and its entry's sync.Once: the first
// request simulates, and every other request — an entry completed
// earlier, or one a concurrent arm is simulating, which once.Do waits
// for — counts as a hit and sees the identical result. The pool returns
// the error a serial loop over the traces would hit first.
func (r *Runner) results(cfg tage.Config, opts core.Options, traces []trace.Trace) ([]sim.Result, error) {
	entries := make([]*traceEntry, len(traces))
	prefix := r.keyPrefix(cfg, opts)
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*traceEntry)
	}
	for i, tr := range traces {
		k := prefix + tr.Name()
		e, ok := r.cache[k]
		if !ok {
			e = &traceEntry{}
			r.cache[k] = e
		}
		entries[i] = e
	}
	r.mu.Unlock()
	err := r.Pool.ForEach(len(entries), func(i int) error {
		e := entries[i]
		ran := false
		e.once.Do(func() {
			ran = true
			r.sims.Add(1)
			e.res, e.err = sim.RunConfig(cfg, opts, traces[i], r.Limit)
		})
		if !ran {
			r.hits.Add(1)
		}
		return e.err
	})
	if err != nil {
		return nil, err
	}
	out := make([]sim.Result, len(entries))
	for i, e := range entries {
		out[i] = e.res
	}
	return out, nil
}

// Suite runs the named suite under the given configuration and estimator
// options, assembling the SuiteResult from individually memoized
// per-trace results (in deterministic trace order, so the assembly is
// bit-identical to a fresh whole-suite simulation). Only traces the memo
// has not seen are simulated.
func (r *Runner) Suite(cfg tage.Config, opts core.Options, suiteName string) (sim.SuiteResult, error) {
	traces, err := workload.Suite(suiteName)
	if err != nil {
		return sim.SuiteResult{}, err
	}
	per, err := r.results(cfg, opts, traces)
	if err != nil {
		return sim.SuiteResult{}, err
	}
	return sim.AssembleSuite(cfg.Name, opts.Mode, per), nil
}

// Simulations returns the number of distinct per-trace simulations this
// Runner has executed (trace-level cache misses). Tests use it to prove
// that a shared (config, options, trace) triple simulates exactly once
// under concurrent experiment arms — and that distinct triples never
// collide.
func (r *Runner) Simulations() uint64 { return r.sims.Load() }

// TraceHits returns the number of per-trace requests served from the
// memo without a simulation — the work trace-granular sharing saves
// across overlapping suites, repeated arms and composite invocations.
func (r *Runner) TraceHits() uint64 { return r.hits.Load() }

// Traces runs specific traces (used by the figure-4/6 experiments)
// through the same per-trace memo as Suite: a trace already simulated as
// part of a full-suite run under the same (config, options) is a cache
// hit here, and vice versa.
func (r *Runner) Traces(cfg tage.Config, opts core.Options, names []string) ([]sim.Result, error) {
	traces := make([]trace.Trace, len(names))
	for i, name := range names {
		tr, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return r.results(cfg, opts, traces)
}

// standardOpts is the §5 estimator (unmodified automaton).
func standardOpts() core.Options {
	return core.Options{Mode: core.ModeStandard}
}

// modifiedOpts is the §6 estimator (probabilistic saturation, 1/128).
func modifiedOpts() core.Options {
	return core.Options{Mode: core.ModeProbabilistic}
}

// adaptiveOpts is the §6.2 adaptive estimator.
func adaptiveOpts() core.Options {
	return core.Options{Mode: core.ModeAdaptive}
}

// limitTrace applies the runner's budget to a raw trace (for experiments
// that run traces directly rather than through sim).
func (r *Runner) limitTrace(t trace.Trace) trace.Trace {
	return trace.Limit(t, r.Limit)
}
