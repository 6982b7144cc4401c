package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Renderer is a computed experiment that can print itself in the paper's
// layout.
type Renderer interface {
	Render(w io.Writer)
}

// experiment is one invocable experiment: its identifier and how a Runner
// computes it.
type experiment struct {
	name string
	run  func(*Runner) (Renderer, error)
}

// as adapts a typed Runner method to the registry's signature.
func as[T Renderer](run func(*Runner) (T, error)) func(*Runner) (Renderer, error) {
	return func(r *Runner) (Renderer, error) { return run(r) }
}

// registry lists every experiment in presentation order.
var registry = []experiment{
	{"table1", as((*Runner).RunTable1)},
	{"fig2", as((*Runner).RunFigure2)},
	{"fig3", as((*Runner).RunFigure3)},
	{"fig4", as((*Runner).RunFigure4)},
	{"fig5", as((*Runner).RunFigure5)},
	{"fig6", as((*Runner).RunFigure6)},
	{"table2", as(func(r *Runner) (ThreeClassTable, error) { return r.RunThreeClass(false) })},
	{"table3", as(func(r *Runner) (ThreeClassTable, error) { return r.RunThreeClass(true) })},
	{"sweep", as((*Runner).RunSweep)},
	{"ablation-window", as((*Runner).RunBimWindowAblation)},
	{"ablation-usealt", as((*Runner).RunUseAltAblation)},
	{"ablation-ctr", as((*Runner).RunCtrWidthAblation)},
	{"estimators", as((*Runner).RunEstimatorComparison)},
	{"selfconf", as((*Runner).RunSelfConfidence)},
	{"ltage", as((*Runner).RunLTAGE)},
	{"inversion", as((*Runner).RunInversion)},
	{"applications", as((*Runner).RunApplications)},
	{"census", as((*Runner).RunFamilyCensus)},
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
// renderers in presentation order.
func (r *Runner) Run(name string) ([]Renderer, error) {
	if name == "all" {
		// The experiments themselves are the outermost parallel axis: they
		// fan out across the pool (each one fanning its own arms and traces
		// out in turn), with renderers merged in presentation order. The
		// Runner's singleflight memo guarantees every (config, options,
		// suite) triple shared between concurrent experiments — table2 and
		// the sweep both want the modified 16K/CBP-1 run, say — is
		// simulated exactly once.
		out := make([]Renderer, len(registry))
		err := r.Pool.ForEach(len(registry), func(i int) error {
			v, err := registry[i].run(r)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", registry[i].name, err)
			}
			out[i] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	for _, e := range registry {
		if e.name == name {
			v, err := e.run(r)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", name, err)
			}
			return []Renderer{v}, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
}
