package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
)

// Inversion analyzes Jacobsen et al.'s branch-inversion idea through the
// paper's classes (§2.1): inverting a prediction only pays if some
// identifiable class mispredicts more than 50% of the time (> 500 MKP).
// The experiment computes, per class, the accuracy delta inversion would
// yield — reproducing the implicit finding that even the paper's
// low-confidence classes sit near but below the 500 MKP break-even, so
// selective inversion (Manne et al.) needs finer targeting than whole
// classes.
type Inversion struct {
	Rows []InversionRow
}

// InversionRow is one class's inversion economics on the 16 Kbit
// predictor over CBP-1 (modified automaton).
type InversionRow struct {
	Class  core.Class
	MPrate float64
	// DeltaMisses is the change in total mispredictions if every
	// prediction of the class were inverted (negative = improvement).
	DeltaMisses int64
	// DeltaMPKI is the same as a misp/KI change.
	DeltaMPKI float64
}

// RunInversion computes the per-class inversion deltas.
func (r *Runner) RunInversion() (Inversion, error) { return runAs[Inversion](r, "inversion") }

func planInversion(p *plan) { p.suite(tage.Small16K(), modifiedOpts(), "cbp1") }

func reduceInversion(res []sim.SuiteResult) (Inversion, error) {
	var out Inversion
	agg := res[0].Aggregate
	for _, c := range core.Classes() {
		cc := agg.Class[c]
		// Inverting flips correct predictions to misses and vice versa.
		delta := int64(cc.Preds-cc.Misps) - int64(cc.Misps)
		out.Rows = append(out.Rows, InversionRow{
			Class:       c,
			MPrate:      cc.MKP(),
			DeltaMisses: delta,
			DeltaMPKI:   1000 * float64(delta) / float64(agg.Instructions),
		})
	}
	return out, nil
}

// Render writes the analysis.
//
//repro:deterministic
func (i Inversion) Render(w io.Writer) {
	header := []string{"class", "MPrate (MKP)", "misses if inverted", "misp/KI delta"}
	var rows [][]string
	for _, r := range i.Rows {
		rows = append(rows, []string{
			r.Class.String(),
			fmt.Sprintf("%.0f", r.MPrate),
			fmt.Sprintf("%+d", r.DeltaMisses),
			fmt.Sprintf("%+.3f", r.DeltaMPKI),
		})
	}
	textplot.Table(w, "Analysis: would inverting any class help? (§2.1; 16Kbits, CBP-1; positive = worse)", header, rows)
}
