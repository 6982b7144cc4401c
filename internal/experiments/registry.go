package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Renderer is a computed experiment that can print itself in the paper's
// layout.
type Renderer interface {
	Render(w io.Writer)
}

// experiment is one invocable experiment: its identifier, the memo
// simulations it plans, and the reduction of their results.
type experiment struct {
	name string
	// plan adds the experiment's requests; nil outside the memo.
	plan func(*plan)
	// reduce computes the experiment from its plan's results, one
	// SuiteResult per request in plan order.
	reduce func(r *Runner, res []sim.SuiteResult) (Renderer, error)
}

// planned registers a memo experiment: a plan and a pure reduction of
// its results.
func planned[T Renderer](name string, plan func(*plan), reduce func([]sim.SuiteResult) (T, error)) experiment {
	return experiment{name: name, plan: plan, reduce: func(_ *Runner, res []sim.SuiteResult) (Renderer, error) {
		return reduce(res)
	}}
}

// direct registers an experiment that runs its own simulations outside
// the memo.
func direct[T Renderer](name string, run func(*Runner) (T, error)) experiment {
	return experiment{name: name, reduce: func(r *Runner, _ []sim.SuiteResult) (Renderer, error) {
		return run(r)
	}}
}

// registry lists every experiment in presentation order.
var registry = []experiment{
	planned("table1", planTable1, reduceTable1),
	planned("fig2", figure2.plan, figure2.reduce),
	planned("fig3", figure3.plan, figure3.reduce),
	planned("fig4", figure4.plan, figure4.reduce),
	planned("fig5", figure5.plan, figure5.reduce),
	planned("fig6", figure6.plan, figure6.reduce),
	planned("table2", table2.plan, table2.reduce),
	planned("table3", table3.plan, table3.reduce),
	planned("sweep", planSweep, reduceSweep),
	planned("ablation-window", planBimWindow, reduceBimWindow),
	planned("ablation-usealt", planUseAlt, reduceUseAlt),
	planned("ablation-ctr", planCtrWidth, reduceCtrWidth),
	direct("estimators", (*Runner).RunEstimatorComparison),
	direct("selfconf", (*Runner).RunSelfConfidence),
	direct("ltage", (*Runner).RunLTAGE),
	planned("inversion", planInversion, reduceInversion),
	direct("applications", (*Runner).RunApplications),
	planned("census", planCensus, reduceCensus),
}

// Names lists the invocable experiment identifiers in presentation order,
// then "all".
//
//repro:deterministic
func Names() []string {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// Run executes the named experiment (or all of them) and returns the
// renderers in presentation order, in three steps: plan (every selected
// experiment's requests, concatenated in registry order), execute (the
// union through the memo, one pass per trace), reduce (each experiment
// from its own slice of the results, the experiments fanned out across
// the pool). The memo makes concurrent Runs on one Runner share every
// entry they have in common.
func (r *Runner) Run(name string) ([]Renderer, error) {
	exps := registry
	if name != "all" {
		i := slices.IndexFunc(registry, func(e experiment) bool { return e.name == name })
		if i < 0 {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
		}
		exps = registry[i : i+1]
	}
	var reqs []request
	first := make([]int, len(exps)+1) // experiment i owns reqs[first[i]:first[i+1]]
	for i, e := range exps {
		var p plan
		if e.plan != nil {
			e.plan(&p)
		}
		if p.err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.name, p.err)
		}
		reqs = append(reqs, p.reqs...)
		first[i+1] = len(reqs)
	}
	entries := r.execute(reqs)
	out := make([]Renderer, len(exps))
	err := r.Pool.ForEach(len(exps), func(i int) error {
		lo, hi := first[i], first[i+1]
		res, err := collect(reqs[lo:hi], entries[lo:hi])
		if err == nil {
			out[i], err = exps[i].reduce(r, res)
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", exps[i].name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runAs runs one registered experiment and returns its typed result.
func runAs[T Renderer](r *Runner, name string) (T, error) {
	out, err := r.Run(name)
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0].(T), nil
}
