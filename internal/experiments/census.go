package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
)

// FamilyCensus summarizes the class behavior per CBP-1 workload family
// (FP / INT / MM / SERV) — a validation view of the synthetic suites: each
// family must stress the confidence classes the way its real counterpart
// does (§5's per-family remarks).
type FamilyCensus struct {
	Rows []FamilyCensusRow
}

// FamilyCensusRow aggregates one family on the 16 Kbit predictor
// (modified automaton).
type FamilyCensusRow struct {
	Family   string
	MPKI     float64
	BimPcov  float64 // all bimodal-provided classes
	HighPcov float64
	LowMKP   float64 // low level misprediction rate
}

// RunFamilyCensus aggregates the CBP-1 suite run by family prefix.
func (r *Runner) RunFamilyCensus() (FamilyCensus, error) {
	return runAs[FamilyCensus](r, "census")
}

func planCensus(p *plan) { p.suite(tage.Small16K(), modifiedOpts(), "cbp1") }

func reduceCensus(res []sim.SuiteResult) (FamilyCensus, error) {
	var out FamilyCensus
	for _, fam := range []string{"FP", "INT", "MM", "SERV"} {
		var agg struct {
			misps, instr, preds uint64
			bim, high           uint64
			lowPreds, lowMisps  uint64
		}
		for _, res := range res[0].PerTrace {
			if !strings.HasPrefix(res.Trace, fam+"-") {
				continue
			}
			agg.misps += res.Total.Misps
			agg.instr += res.Instructions
			agg.preds += res.Total.Preds
			for _, c := range []core.Class{core.LowConfBim, core.MediumConfBim, core.HighConfBim} {
				agg.bim += res.Class[c].Preds
			}
			hi := res.Level(core.High)
			agg.high += hi.Preds
			lo := res.Level(core.Low)
			agg.lowPreds += lo.Preds
			agg.lowMisps += lo.Misps
		}
		if agg.preds == 0 {
			return FamilyCensus{}, fmt.Errorf("experiments: family %s matched no traces", fam)
		}
		row := FamilyCensusRow{
			Family:   fam,
			MPKI:     1000 * float64(agg.misps) / float64(agg.instr),
			BimPcov:  float64(agg.bim) / float64(agg.preds),
			HighPcov: float64(agg.high) / float64(agg.preds),
		}
		if agg.lowPreds > 0 {
			row.LowMKP = 1000 * float64(agg.lowMisps) / float64(agg.lowPreds)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the census.
//
//repro:deterministic
func (c FamilyCensus) Render(w io.Writer) {
	header := []string{"family", "misp/KI", "BIM Pcov", "high Pcov", "low MKP"}
	var rows [][]string
	for _, r := range c.Rows {
		rows = append(rows, []string{
			r.Family,
			fmt.Sprintf("%.2f", r.MPKI),
			fmt.Sprintf("%.3f", r.BimPcov),
			fmt.Sprintf("%.3f", r.HighPcov),
			fmt.Sprintf("%.0f", r.LowMKP),
		})
	}
	textplot.Table(w, "Workload-family census (16Kbits, CBP-1, modified automaton)", header, rows)
}
