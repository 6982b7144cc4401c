package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/looppred"
	"repro/internal/metrics"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// LTAGEComparison measures the loop-predictor extension (the L-TAGE
// combination that won CBP-2, which the paper cites as the state of the
// art): TAGE vs TAGE+loop-predictor accuracy, and the fraction of
// predictions the loop component provides.
type LTAGEComparison struct {
	Rows []LTAGERow
}

// LTAGERow is one (config, trace set) measurement.
type LTAGERow struct {
	Config       string
	Workload     string
	TageMPKI     float64
	LtageMPKI    float64
	LoopProvided float64 // fraction of predictions from the loop component
	ExtraBits    int
}

// RunLTAGE compares on CBP-1 and on a long-loop microbenchmark where the
// loop predictor shines (trips far beyond the TAGE history reach).
func (r *Runner) RunLTAGE() (LTAGEComparison, error) {
	var out LTAGEComparison
	loopCfg := looppred.DefaultConfig()

	longLoops := workload.NewBuilder("long-loops", 4242).
		SetLength(300_000).
		Block(10, 1, 1,
			workload.S(workload.Loop{Trip: 300}),
			workload.S(workload.Const{Taken: true}),
		).
		Block(10, 1, 1,
			workload.S(workload.Loop{Trip: 500}),
			workload.S(workload.Const{Taken: false}),
		).
		MustBuild()

	for _, cfg := range []tage.Config{tage.Small16K(), tage.Medium64K()} {
		// Suite comparison on CBP-1.
		suiteTraces, err := workload.Suite("cbp1")
		if err != nil {
			return out, err
		}
		row, err := r.compareLTAGE(cfg, loopCfg, "cbp1", suiteTraces)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)

		// Long-loop microbenchmark.
		row, err = r.compareLTAGE(cfg, loopCfg, "long-loops", []trace.Trace{longLoops})
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ltageCell is the per-trace partial of one L-TAGE comparison.
type ltageCell struct {
	tageMiss, ltageMiss, instr, loopProvided, branches uint64
}

func (c *ltageCell) add(o ltageCell) {
	c.tageMiss += o.tageMiss
	c.ltageMiss += o.ltageMiss
	c.instr += o.instr
	c.loopProvided += o.loopProvided
	c.branches += o.branches
}

// compareLTAGE runs the TAGE / L-TAGE comparison. The L-TAGE's own TAGE
// sees every branch a plain TAGE would and trains the same way, so its
// observation is the plain-TAGE prediction and one predictor measures
// both. Each trace is an independent job (a fresh predictor per trace),
// so the traces fan out across the pool; partials merge in trace order.
func (r *Runner) compareLTAGE(cfg tage.Config, loopCfg looppred.Config, label string, traces []trace.Trace) (LTAGERow, error) {
	row := LTAGERow{Config: cfg.Name, Workload: label}
	cells := make([]ltageCell, len(traces))
	err := r.Pool.ForEach(len(traces), func(i int) error {
		lt := looppred.NewLTAGE(cfg, loopCfg)
		reader := trace.Limit(traces[i], r.Limit).Open()
		var c ltageCell
		for {
			b, err := reader.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			if lt.Predict(b.PC) != b.Taken {
				c.ltageMiss++
			}
			if lt.Observation().Pred != b.Taken {
				c.tageMiss++
			}
			if lt.UsedLoop() {
				c.loopProvided++
			}
			lt.Update(b.PC, b.Taken)
			c.instr += uint64(b.Instr)
			c.branches++
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return row, err
	}
	var total ltageCell
	for _, c := range cells {
		total.add(c)
	}
	row.TageMPKI = metrics.MPKI(total.tageMiss, total.instr)
	row.LtageMPKI = metrics.MPKI(total.ltageMiss, total.instr)
	if total.branches > 0 {
		row.LoopProvided = float64(total.loopProvided) / float64(total.branches)
	}
	row.ExtraBits = loopCfg.StorageBits() + 7
	return row, nil
}

// Render writes the comparison table.
//
//repro:deterministic
func (c LTAGEComparison) Render(w io.Writer) {
	header := []string{"config", "workload", "TAGE misp/KI", "L-TAGE misp/KI", "loop-provided", "extra bits"}
	var rows [][]string
	for _, r := range c.Rows {
		rows = append(rows, []string{
			r.Config, r.Workload,
			fmt.Sprintf("%.3f", r.TageMPKI),
			fmt.Sprintf("%.3f", r.LtageMPKI),
			fmt.Sprintf("%.3f", r.LoopProvided),
			fmt.Sprintf("%d", r.ExtraBits),
		})
	}
	textplot.Table(w, "Extension: L-TAGE loop predictor vs plain TAGE", header, rows)
}
