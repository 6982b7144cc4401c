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
// An experiment is planned, then executed, then reduced. Its plan lists
// the TAGE simulations it reads, each a (configuration, options, trace
// list) request; Runner.Run executes the plans of the experiments it
// runs (every plan at once for "all") through one memo of (spec, trace)
// entries, and each experiment then reduces its results, in plan and
// trace order, into the table or figure it renders. Execution is by
// trace: every trace is read once per execution, in 1024-branch batches,
// and every entry it claimed on that trace steps over each batch. The
// experiments that grade other estimators (estimators, selfconf) run
// their spec × trace matrices the same way, one pass per trace, outside
// the memo.
package experiments

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/counter"
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

// Runner executes experiment plans and memoizes their simulations at
// (spec, trace) granularity: predictor.TAGESpec of the (config, options)
// pair plus the trace name. Traces fan out across Pool's workers; results
// (and therefore the memo) are bit-identical to a serial run regardless
// of the worker count.
//
// A Runner is safe for concurrent use. An execution first claims, under
// one lock, every entry of its plan that the memo lacks; it then
// simulates all of its claims, grouped by trace, and only then waits on
// the entries other executions claimed. No execution waits while it
// holds unsimulated claims, so concurrent Runs cannot deadlock, and every
// distinct entry is simulated exactly once per Runner lifetime however
// the Runs are scheduled. Because the unit of sharing is the trace rather
// than the whole suite, suites that overlap (a full-suite table row and
// a figure's trace subset, say) share the overlapping entries too.
type Runner struct {
	// Limit is the per-trace record budget (0 = full trace).
	Limit uint64
	// Pool is the simulation worker pool (zero value = GOMAXPROCS
	// workers; Workers=1 forces the serial reference path).
	Pool sim.SuiteRunner

	mu    sync.Mutex
	cache map[string]*traceEntry
	sims  atomic.Uint64 // distinct entries claimed, each simulated once
	hits  atomic.Uint64 // requested entries that were already in the memo
}

// traceEntry is one memoized (spec, trace) simulation. The execution
// that claimed it sets res and err, then closes done; both are immutable
// after that.
type traceEntry struct {
	done chan struct{}
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

// request is one simulation an experiment plans: a fresh estimator for
// (cfg, opts) over each trace.
type request struct {
	cfg    tage.Config
	opts   core.Options
	traces []trace.Trace
}

// plan accumulates an experiment's requests in the order its reduction
// reads them. It keeps the first unknown suite or trace name as err.
type plan struct {
	reqs []request
	err  error
}

// suite requests (cfg, opts) over the named workload suite.
func (p *plan) suite(cfg tage.Config, opts core.Options, name string) {
	traces, err := workload.Suite(name)
	p.add(cfg, opts, traces, err)
}

// traces requests (cfg, opts) over the named traces.
func (p *plan) traces(cfg tage.Config, opts core.Options, names []string) {
	traces := make([]trace.Trace, len(names))
	var err error
	for i, name := range names {
		if traces[i], err = workload.ByName(name); err != nil {
			break
		}
	}
	p.add(cfg, opts, traces, err)
}

func (p *plan) add(cfg tage.Config, opts core.Options, traces []trace.Trace, err error) {
	if p.err == nil {
		p.err = err
	}
	p.reqs = append(p.reqs, request{cfg: cfg, opts: opts, traces: traces})
}

// claim is one memo entry an execution simulates.
type claim struct {
	entry *traceEntry
	cfg   tage.Config
	opts  core.Options
	trace trace.Trace
}

// execute claims the entries of reqs that the memo lacks, simulates them
// and returns every request's entries in trace order. An entry another
// execution claimed may still be running; collect waits for it.
func (r *Runner) execute(reqs []request) [][]*traceEntry {
	entries := make([][]*traceEntry, len(reqs))
	var claims []claim
	requested := 0
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*traceEntry)
	}
	for i, q := range reqs {
		prefix := predictor.TAGESpec(q.cfg, q.opts).String() + "|"
		entries[i] = make([]*traceEntry, len(q.traces))
		for j, tr := range q.traces {
			k := prefix + tr.Name()
			e, ok := r.cache[k]
			if !ok {
				e = &traceEntry{done: make(chan struct{})}
				r.cache[k] = e
				claims = append(claims, claim{entry: e, cfg: q.cfg, opts: q.opts, trace: tr})
			}
			entries[i][j] = e
		}
		requested += len(q.traces)
	}
	r.mu.Unlock()
	r.sims.Add(uint64(len(claims)))
	r.hits.Add(uint64(requested - len(claims)))

	// Group the claims by trace, in first-claim order.
	var groups [][]claim
	byTrace := make(map[string]int)
	for _, c := range claims {
		g, ok := byTrace[c.trace.Name()]
		if !ok {
			g = len(groups)
			byTrace[c.trace.Name()] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], c)
	}
	// Every group runs (a failed trace stores its error in its entries
	// and stops nothing), so no claimed entry is left open.
	_ = r.Pool.ForEach(len(groups), func(g int) error {
		r.simulate(groups[g])
		return nil
	})
	return entries
}

// simulate runs one trace's claims in one pass.
func (r *Runner) simulate(group []claim) {
	lanes, members := lanesFor(group)
	res, err := sim.RunLanes(lanes, group[0].trace, r.Limit)
	i := 0
	for _, m := range members {
		for _, e := range m {
			e.res, e.err = res[i], err
			i++
			close(e.done)
		}
	}
}

// lanesFor builds the lanes of one trace's claims and each lane's entries
// in RunLanes' result order. Claims whose estimators run the same
// predictor (predictorKey) share one lane: the first claim's estimator
// steps, and every later one is a shadow classifier over its predictions.
func lanesFor(group []claim) ([]sim.Lane, [][]*traceEntry) {
	var lanes []sim.Lane
	var members [][]*traceEntry
	laneOf := make(map[string]int)
	for _, c := range group {
		key := predictorKey(c.cfg, c.opts)
		if i, ok := laneOf[key]; ok && key != "" {
			lanes[i].Shadows = append(lanes[i].Shadows, core.NewOptionsClassifier(c.cfg, c.opts))
			members[i] = append(members[i], c.entry)
			continue
		}
		laneOf[key] = len(lanes)
		lanes = append(lanes, sim.Lane{Backend: core.NewEstimator(c.cfg, c.opts)})
		members = append(members, []*traceEntry{c.entry})
	}
	return lanes, members
}

// predictorKey names the TAGE predictor that NewEstimator(cfg, opts)
// runs: the spec with the classifier-only field (BimWindow) cleared and
// an explicit default saturation denominator dropped. Estimators with
// equal keys run bit-identical predictors. Adaptive estimators get ""
// and never share: their controller feeds each class back into the
// automaton.
func predictorKey(cfg tage.Config, opts core.Options) string {
	if opts.Mode == core.ModeAdaptive {
		return ""
	}
	opts.BimWindow = 0
	if opts.DenomLog == counter.DefaultDenomLog {
		opts.DenomLog = 0
	}
	return predictor.TAGESpec(cfg, opts).String()
}

// collect waits for the entries of each request and assembles its
// SuiteResult in trace order. It returns the first error in request and
// trace order, the one a serial loop would hit first.
func collect(reqs []request, entries [][]*traceEntry) ([]sim.SuiteResult, error) {
	out := make([]sim.SuiteResult, len(reqs))
	for i, q := range reqs {
		per := make([]sim.Result, len(entries[i]))
		for j, e := range entries[i] {
			<-e.done
			if e.err != nil {
				return nil, e.err
			}
			per[j] = e.res
		}
		out[i] = sim.AssembleSuite(q.cfg.Name, q.opts.Mode, per)
	}
	return out, nil
}

// run executes a one-request plan.
func (r *Runner) run(p plan) (sim.SuiteResult, error) {
	if p.err != nil {
		return sim.SuiteResult{}, p.err
	}
	res, err := collect(p.reqs, r.execute(p.reqs))
	if err != nil {
		return sim.SuiteResult{}, err
	}
	return res[0], nil
}

// Suite runs the named suite under the given configuration and estimator
// options through the memo, assembling the SuiteResult from the per-trace
// entries in trace order (bit-identical to a fresh whole-suite
// simulation). Only traces the memo has not seen are simulated.
func (r *Runner) Suite(cfg tage.Config, opts core.Options, suiteName string) (sim.SuiteResult, error) {
	var p plan
	p.suite(cfg, opts, suiteName)
	return r.run(p)
}

// Traces runs specific traces through the same per-trace memo as Suite:
// a trace already simulated as part of a full-suite run under the same
// (config, options) is a cache hit here, and vice versa.
func (r *Runner) Traces(cfg tage.Config, opts core.Options, names []string) ([]sim.Result, error) {
	var p plan
	p.traces(cfg, opts, names)
	sr, err := r.run(p)
	return sr.PerTrace, err
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

// runSpecs runs every spec over every trace outside the memo, one pass
// per trace with a fresh backend per spec, and returns the results
// spec-major: cells[s*len(traces)+t]. Traces fan out across the pool.
func (r *Runner) runSpecs(specs []predictor.Spec, traces []trace.Trace) ([]sim.Result, error) {
	nt := len(traces)
	cells := make([]sim.Result, len(specs)*nt)
	err := r.Pool.ForEach(nt, func(t int) error {
		lanes := make([]sim.Lane, len(specs))
		for s, sp := range specs {
			b, err := predictor.Build(sp)
			if err != nil {
				return err
			}
			lanes[s].Backend = b
		}
		res, err := sim.RunLanes(lanes, traces[t], r.Limit)
		for s := range specs {
			cells[s*nt+t] = res[s]
		}
		return err
	})
	return cells, err
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
