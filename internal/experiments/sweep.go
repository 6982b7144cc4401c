package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
)

// SweepRow is one operating point of the saturation-probability sweep
// (§6.2): the high-confidence class coverage/purity trade-off at a fixed
// saturation probability 2^-DenomLog on the 16 Kbit predictor, CBP-1.
type SweepRow struct {
	DenomLog    uint
	Probability float64
	High        LevelCell
	Medium      LevelCell
	Low         LevelCell
	MPKI        float64
}

// Sweep reproduces the §6.2 observations: lowering the probability shrinks
// and purifies the high-confidence class (the paper quotes 1/16 vs 1/128:
// high coverage 79% vs 69%, MPrate 10 vs 7 MKP, MPcov 22.3% vs 12.8%).
type Sweep struct {
	Rows []SweepRow
}

// SweepDenomLogs are the swept log2 probability denominators
// (probability 1 down to 1/1024).
var SweepDenomLogs = []uint{0, 2, 4, 6, 7, 9, 10}

// RunSweep runs the sweep on the 16 Kbit configuration over CBP-1.
func (r *Runner) RunSweep() (Sweep, error) { return runAs[Sweep](r, "sweep") }

// planSweep requests one CBP-1 suite per operating point, in sweep order.
func planSweep(p *plan) {
	for _, dl := range SweepDenomLogs {
		opts := core.Options{Mode: core.ModeProbabilistic, DenomLog: dl}
		if dl == 0 {
			// Probability 1 is exactly the standard automaton (the
			// saturating transition always taken); core.Options uses
			// DenomLog 0 to mean "default", so express the point directly.
			opts = core.Options{Mode: core.ModeStandard}
		}
		p.suite(tage.Small16K(), opts, "cbp1")
	}
}

func reduceSweep(res []sim.SuiteResult) (Sweep, error) {
	var s Sweep
	for i, dl := range SweepDenomLogs {
		agg := res[i].Aggregate
		row := SweepRow{
			DenomLog:    dl,
			Probability: 1 / float64(uint64(1)<<dl),
			MPKI:        agg.MPKI(),
		}
		row.High, row.Medium, row.Low = levelCells(agg)
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Render writes the sweep as a table.
//
//repro:deterministic
func (s Sweep) Render(w io.Writer) {
	header := []string{"probability", "high Pcov", "high MPcov", "high MPrate", "medium Pcov", "medium MPrate", "low Pcov", "low MPrate", "misp/KI"}
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("1/%d", uint64(1)<<r.DenomLog),
			fmt.Sprintf("%.3f", r.High.Pcov),
			fmt.Sprintf("%.3f", r.High.MPcov),
			fmt.Sprintf("%.1f", r.High.MPrate),
			fmt.Sprintf("%.3f", r.Medium.Pcov),
			fmt.Sprintf("%.1f", r.Medium.MPrate),
			fmt.Sprintf("%.3f", r.Low.Pcov),
			fmt.Sprintf("%.1f", r.Low.MPrate),
			fmt.Sprintf("%.2f", r.MPKI),
		})
	}
	textplot.Table(w, "§6.2 sweep: saturation probability vs high-confidence coverage/purity (16Kbits, CBP-1)", header, rows)
}
