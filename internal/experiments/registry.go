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

// Names lists the invocable experiment identifiers in presentation order.
//
//repro:deterministic
func Names() []string {
	return []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table2", "table3", "sweep",
		"ablation-window", "ablation-usealt", "ablation-ctr", "estimators",
		"selfconf", "ltage", "inversion", "applications", "census",
		"all",
	}
}

// Run executes the named experiment (or all of them) and returns the
// renderers in presentation order.
func (r *Runner) Run(name string) ([]Renderer, error) {
	single := map[string]func() (Renderer, error){
		"table1": func() (Renderer, error) { v, err := r.RunTable1(); return v, err },
		"fig2":   func() (Renderer, error) { v, err := r.RunFigure2(); return v, err },
		"fig3":   func() (Renderer, error) { v, err := r.RunFigure3(); return v, err },
		"fig4":   func() (Renderer, error) { v, err := r.RunFigure4(); return v, err },
		"fig5":   func() (Renderer, error) { v, err := r.RunFigure5(); return v, err },
		"fig6":   func() (Renderer, error) { v, err := r.RunFigure6(); return v, err },
		"table2": func() (Renderer, error) { v, err := r.RunThreeClass(false); return v, err },
		"table3": func() (Renderer, error) { v, err := r.RunThreeClass(true); return v, err },
		"sweep":  func() (Renderer, error) { v, err := r.RunSweep(); return v, err },
		"ablation-window": func() (Renderer, error) {
			v, err := r.RunBimWindowAblation()
			return v, err
		},
		"ablation-usealt": func() (Renderer, error) {
			v, err := r.RunUseAltAblation()
			return v, err
		},
		"ablation-ctr": func() (Renderer, error) {
			v, err := r.RunCtrWidthAblation()
			return v, err
		},
		"estimators": func() (Renderer, error) {
			v, err := r.RunEstimatorComparison()
			return v, err
		},
		"selfconf": func() (Renderer, error) {
			v, err := r.RunSelfConfidence()
			return v, err
		},
		"ltage": func() (Renderer, error) {
			v, err := r.RunLTAGE()
			return v, err
		},
		"inversion": func() (Renderer, error) {
			v, err := r.RunInversion()
			return v, err
		},
		"applications": func() (Renderer, error) {
			v, err := r.RunApplications()
			return v, err
		},
		"census": func() (Renderer, error) {
			v, err := r.RunFamilyCensus()
			return v, err
		},
	}
	if name == "all" {
		// The experiments themselves are the outermost parallel axis: they
		// fan out across the pool (each one fanning its own arms and traces
		// out in turn), with renderers merged in presentation order. The
		// Runner's singleflight memo guarantees every (config, options,
		// suite) triple shared between concurrent experiments — table2 and
		// the sweep both want the modified 16K/CBP-1 run, say — is
		// simulated exactly once.
		var names []string
		for _, n := range Names() {
			if n != "all" {
				names = append(names, n)
			}
		}
		out := make([]Renderer, len(names))
		err := r.Pool.ForEach(len(names), func(i int) error {
			v, err := single[names[i]]()
			if err != nil {
				return fmt.Errorf("experiment %s: %w", names[i], err)
			}
			out[i] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	f, ok := single[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
	}
	v, err := f()
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", name, err)
	}
	return []Renderer{v}, nil
}
