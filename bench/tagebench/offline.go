package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// offlineSuite simulates all 40 traces × {16K, 64K, 256K} × {standard,
// adaptive} through sim.SuiteRunner, one job per (trace, config, mode).
// Almost all of its time is the predictor hot path: tage, core and the
// sim tally.
type offlineSuite struct {
	c     *config
	g     *goldens
	jobs  []sim.Job
	specs []string
}

func setupOfflineSuite(c *config, g *goldens) (instance, error) {
	type job struct {
		job  sim.Job
		spec string
	}
	var all []job
	for _, tr := range workload.All() {
		for _, cfg := range tage.StandardConfigs() {
			for _, m := range []core.AutomatonMode{core.ModeStandard, core.ModeAdaptive} {
				all = append(all, job{
					job:  sim.Job{Cfg: cfg, Opts: core.Options{Mode: m}, Trace: tr, Limit: c.limit},
					spec: specName(cfg, m),
				})
			}
		}
	}
	o := &offlineSuite{c: c, g: g}
	for _, j := range shuffled(c.seed, 1, all) {
		o.jobs = append(o.jobs, j.job)
		o.specs = append(o.specs, j.spec)
	}
	return o, nil
}

func (o *offlineSuite) pass(tr *tracer, rec *passRecord) error {
	n := len(o.jobs)
	results := make([]sim.Result, n)
	rec.latencies = make([]int64, n)
	pool := sim.SuiteRunner{Workers: o.c.workers}
	var jobTime *obs.Histogram
	if tr != nil {
		// SuiteRunner's own per-job clock cross-checks the spans.
		jobTime = &obs.Histogram{}
		pool.JobTime = jobTime
	}
	root := tr.begin("offline-suite.pass", 0)
	err := pool.ForEach(n, func(i int) error {
		j := o.jobs[i]
		sp := tr.begin("sim.job", root.id)
		res, err := sim.RunConfig(j.Cfg, j.Opts, j.Trace, j.Limit)
		rec.latencies[i] = sp.end().Nanoseconds()
		results[i] = res
		return err
	})
	root.end()
	rec.attempted += uint64(n)
	if err != nil {
		rec.failed++
		return err
	}
	if jobTime != nil && jobTime.Count() != uint64(n) {
		rec.failed++
		return fmt.Errorf("SuiteRunner.JobTime saw %d jobs, spans saw %d", jobTime.Count(), n)
	}
	for i, res := range results {
		if err := o.g.check(o.specs[i], res); err != nil {
			rec.failed++
			return err
		}
		rec.tallies = append(rec.tallies, tallyOf(o.specs[i], res))
		rec.branches += res.Branches
	}
	return nil
}

func (o *offlineSuite) layers(spans []span, _ int) map[string]float64 {
	jobs := byName(spans, "sim.job")
	var busy, ms []float64
	for _, s := range jobs {
		ms = append(ms, float64(s.dur())/1e6)
	}
	for _, root := range byName(spans, "offline-suite.pass") {
		sum := int64(0)
		for _, s := range jobs {
			if s.Parent == root.ID {
				sum += s.dur()
			}
		}
		busy = append(busy, float64(sum)/float64(root.dur()*int64(o.c.workers)))
	}
	return map[string]float64{
		"sim.job_ms_p50":       median(ms),
		"sim.job_ms_max":       quantile(ms, 1),
		"sim.worker_busy_frac": median(busy),
	}
}

func (o *offlineSuite) close() error { return nil }

// reproduceAll runs every experiment of the paper's evaluation on one
// fresh experiments.Runner per pass, fanned out through the runner's pool
// as Run("all") does, and hashes every render. Shared per-trace
// simulations are memoized, so the memo, the experiment-axis scheduling
// and the render code show here and nowhere else.
type reproduceAll struct {
	c     *config
	g     *goldens
	names []string
	last  *experiments.Runner
}

func setupReproduceAll(c *config, g *goldens) (instance, error) {
	return &reproduceAll{c: c, g: g, names: shuffled(c.seed, 2, experimentNames())}, nil
}

func (p *reproduceAll) pass(tr *tracer, rec *passRecord) error {
	// The request a reproduce-all caller waits for is the whole
	// reproduction.
	start := time.Now()
	defer func() { rec.latencies = []int64{time.Since(start).Nanoseconds()} }()
	r := experiments.NewWorkers(p.c.limit, p.c.workers)
	n := len(p.names)
	renders := make([]string, n)
	var table1 experiments.Table1
	root := tr.begin("reproduce-all.pass", 0)
	err := r.Pool.ForEach(n, func(i int) error {
		name := p.names[i]
		sp := tr.begin("experiments."+name, root.id)
		out, err := r.Run(name)
		if err != nil {
			return err
		}
		rs := tr.begin("experiments.render", sp.id)
		renders[i] = renderHash(out[0])
		rs.end()
		sp.end()
		if t, ok := out[0].(experiments.Table1); ok {
			table1 = t
		}
		return nil
	})
	root.end()
	rec.attempted += uint64(n)
	if err != nil {
		rec.failed++
		return err
	}
	rec.renders = make(map[string]string, n)
	for i, name := range p.names {
		if err := p.g.checkRender(name, renders[i]); err != nil {
			rec.failed++
			return err
		}
		rec.renders[name] = renders[i]
	}
	if r.Simulations() != p.g.TraceSims || r.TraceHits() != p.g.TraceHits {
		rec.failed++
		return fmt.Errorf("memo ran %d simulations and %d hits, golden %d and %d",
			r.Simulations(), r.TraceHits(), p.g.TraceSims, p.g.TraceHits)
	}
	if err := checkTable1(p.c.limit, table1); err != nil {
		rec.failed++
		return err
	}
	rec.branches = r.Simulations() * p.c.limit
	p.last = r
	return nil
}

func (p *reproduceAll) layers(spans []span, _ int) map[string]float64 {
	sims, hits := float64(p.last.Simulations()), float64(p.last.TraceHits())
	out := map[string]float64{
		"experiments.trace_sims":    sims,
		"experiments.trace_hits":    hits,
		"experiments.memo_hit_frac": hits / (sims + hits),
	}
	self := selfTimes(spans)
	roots := byName(spans, "reproduce-all.pass")
	for _, name := range p.names {
		var ms []float64
		for _, s := range byName(spans, "experiments."+name) {
			ms = append(ms, float64(self[s.ID])/1e6)
		}
		out["experiments."+name+"_ms"] = median(ms)
	}
	// Render time per pass: renders hang off experiment spans, which hang
	// off the pass.
	parentPass := make(map[uint64]uint64)
	for _, s := range spans {
		parentPass[s.ID] = s.Parent
	}
	perPass := make(map[uint64]float64, len(roots))
	for _, s := range byName(spans, "experiments.render") {
		perPass[parentPass[s.Parent]] += float64(s.dur()) / 1e6
	}
	var render []float64
	for _, root := range roots {
		render = append(render, perPass[root.ID])
	}
	out["experiments.render_ms"] = median(render)
	return out
}

func (p *reproduceAll) close() error { return nil }
