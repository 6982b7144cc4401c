package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/jrs"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// BimWindowAblation sweeps the medium-conf-bim window length (the "up to 8
// branches" choice of §5.1.2), reporting how the bimodal classes split.
type BimWindowAblation struct {
	Rows []BimWindowRow
}

// BimWindowRow is one window length.
type BimWindowRow struct {
	Window        int
	MediumBim     LevelCell // medium-conf-bim class
	HighBimMPrate float64   // high-conf-bim purity
}

// RunBimWindowAblation runs the sweep on the 16 Kbit predictor over CBP-1
// with the modified automaton. Window arms fan out across the pool; rows
// merge in arm order.
func (r *Runner) RunBimWindowAblation() (BimWindowAblation, error) {
	windows := []int{-1, 4, 8, 16, 32}
	rows := make([]BimWindowRow, len(windows))
	err := r.Pool.ForEach(len(windows), func(i int) error {
		win := windows[i]
		opts := modifiedOpts()
		opts.BimWindow = win
		sr, err := r.Suite(tage.Small16K(), opts, "cbp1")
		if err != nil {
			return err
		}
		agg := sr.Aggregate
		shown := win
		if win < 0 {
			shown = 0
		}
		rows[i] = BimWindowRow{
			Window: shown,
			MediumBim: LevelCell{
				Pcov:   agg.Pcov(core.MediumConfBim),
				MPcov:  agg.MPcov(core.MediumConfBim),
				MPrate: agg.MPrate(core.MediumConfBim),
			},
			HighBimMPrate: agg.MPrate(core.HighConfBim),
		}
		return nil
	})
	if err != nil {
		return BimWindowAblation{}, err
	}
	return BimWindowAblation{Rows: rows}, nil
}

// Render writes the window ablation table.
//
//repro:deterministic
func (a BimWindowAblation) Render(w io.Writer) {
	header := []string{"window", "medium-conf-bim Pcov", "MPcov", "MPrate", "high-conf-bim MPrate"}
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%.3f", r.MediumBim.Pcov),
			fmt.Sprintf("%.3f", r.MediumBim.MPcov),
			fmt.Sprintf("%.1f", r.MediumBim.MPrate),
			fmt.Sprintf("%.1f", r.HighBimMPrate),
		})
	}
	textplot.Table(w, "Ablation: medium-conf-bim window length (16Kbits, CBP-1, modified automaton)", header, rows)
}

// UseAltAblation measures the accuracy contribution of USE_ALT_ON_NA
// (§3.1: the heuristic "(slightly) improves prediction accuracy").
type UseAltAblation struct {
	Rows []UseAltRow
}

// UseAltRow is one configuration.
type UseAltRow struct {
	Config      string
	WithMPKI    float64
	WithoutMPKI float64
	WtagWith    float64 // Wtag MPrate with the heuristic
	WtagWithout float64 // and without it
}

// RunUseAltAblation compares CBP-1 accuracy with and without the
// heuristic across the three sizes. The flat (config × on/off) job list
// fans out across the pool; rows merge in config order.
func (r *Runner) RunUseAltAblation() (UseAltAblation, error) {
	cfgs := tage.StandardConfigs()
	aggs := make([]sim.Result, 2*len(cfgs)) // [2i] with, [2i+1] without
	err := r.Pool.ForEach(len(aggs), func(i int) error {
		cfg := cfgs[i/2]
		if i%2 == 1 {
			cfg.DisableUseAltOnNA = true
		}
		sr, err := r.Suite(cfg, standardOpts(), "cbp1")
		if err != nil {
			return err
		}
		aggs[i] = sr.Aggregate
		return nil
	})
	if err != nil {
		return UseAltAblation{}, err
	}
	var out UseAltAblation
	for i, cfg := range cfgs {
		with, without := aggs[2*i], aggs[2*i+1]
		out.Rows = append(out.Rows, UseAltRow{
			Config:      cfg.Name,
			WithMPKI:    with.MPKI(),
			WithoutMPKI: without.MPKI(),
			WtagWith:    with.MPrate(core.Wtag),
			WtagWithout: without.MPrate(core.Wtag),
		})
	}
	return out, nil
}

// Render writes the USE_ALT_ON_NA ablation table.
//
//repro:deterministic
func (a UseAltAblation) Render(w io.Writer) {
	header := []string{"config", "misp/KI with", "misp/KI without", "Wtag MKP with", "Wtag MKP without"}
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Config,
			fmt.Sprintf("%.3f", r.WithMPKI),
			fmt.Sprintf("%.3f", r.WithoutMPKI),
			fmt.Sprintf("%.0f", r.WtagWith),
			fmt.Sprintf("%.0f", r.WtagWithout),
		})
	}
	textplot.Table(w, "Ablation: USE_ALT_ON_NA on/off (CBP-1, standard automaton)", header, rows)
}

// CtrWidthAblation reproduces the §6 remark on widening the prediction
// counter to 4 bits: it does not significantly clean the saturated class
// and slightly hurts overall accuracy, which is why the paper modifies the
// automaton instead.
type CtrWidthAblation struct {
	Rows []CtrWidthRow
}

// CtrWidthRow is one (config, counter width) pair.
type CtrWidthRow struct {
	Config     string
	CtrBits    uint
	MPKI       float64
	StagPcov   float64
	StagMPrate float64
}

// RunCtrWidthAblation compares 3-bit and 4-bit counters on the 16 and
// 64 Kbit predictors over CBP-1 (standard automaton, so the comparison
// isolates the widening itself). The flat (config × width) grid fans out
// across the pool; rows merge in grid order.
func (r *Runner) RunCtrWidthAblation() (CtrWidthAblation, error) {
	bases := []tage.Config{tage.Small16K(), tage.Medium64K()}
	widths := []uint{3, 4}
	rows := make([]CtrWidthRow, len(bases)*len(widths))
	err := r.Pool.ForEach(len(rows), func(i int) error {
		base := bases[i/len(widths)]
		bits := widths[i%len(widths)]
		cfg := base
		cfg.CtrBits = bits
		sr, err := r.Suite(cfg, standardOpts(), "cbp1")
		if err != nil {
			return err
		}
		agg := sr.Aggregate
		rows[i] = CtrWidthRow{
			Config:     base.Name,
			CtrBits:    bits,
			MPKI:       agg.MPKI(),
			StagPcov:   agg.Pcov(core.Stag),
			StagMPrate: agg.MPrate(core.Stag),
		}
		return nil
	})
	if err != nil {
		return CtrWidthAblation{}, err
	}
	return CtrWidthAblation{Rows: rows}, nil
}

// Render writes the counter-width ablation table.
//
//repro:deterministic
func (a CtrWidthAblation) Render(w io.Writer) {
	header := []string{"config", "ctr bits", "misp/KI", "Stag Pcov", "Stag MPrate"}
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Config,
			fmt.Sprintf("%d", r.CtrBits),
			fmt.Sprintf("%.3f", r.MPKI),
			fmt.Sprintf("%.3f", r.StagPcov),
			fmt.Sprintf("%.1f", r.StagMPrate),
		})
	}
	textplot.Table(w, "Ablation: widening the prediction counter (§6 remark; CBP-1, standard automaton)", header, rows)
}

// EstimatorComparison pits the paper's storage-free estimator against the
// JRS storage-based baselines on the same 16 Kbit TAGE predictions,
// reporting Grunwald et al.'s binary metrics and the extra storage each
// estimator costs.
type EstimatorComparison struct {
	Rows []EstimatorRow
}

// EstimatorRow is one estimator.
type EstimatorRow struct {
	Name        string
	StorageBits int
	Confusion   metrics.Binary
}

// RunEstimatorComparison runs all estimators over CBP-1 on the 16 Kbit
// TAGE: the storage-free estimator with the modified automaton, and the
// JRS tables grading the standard predictor (JRS does not need the
// automaton change). Every row is a backend spec whose High grade is its
// confidence estimate, so each (estimator, trace) cell is one
// sim.RunSpec. The flat matrix fans out across the pool in one pass;
// confusions merge in estimator-major, trace-minor order so the totals
// match the serial reference exactly.
func (r *Runner) RunEstimatorComparison() (EstimatorComparison, error) {
	var out EstimatorComparison
	traces, err := workload.Suite("cbp1")
	if err != nil {
		return out, err
	}

	// The jrs rows run the family's default table, so they cost its bits.
	estimators := []struct {
		name string
		bits int
		spec predictor.Spec
	}{
		{"storage-free (high level)", 0, predictor.MustParse("tage-16K?mode=probabilistic")},
		{"JRS 4-bit", jrs.DefaultStorageBits, predictor.MustParse("jrs-16K")},
		{"JRS 4-bit enhanced", jrs.DefaultStorageBits, predictor.MustParse("jrs-16K?enhanced=true")},
	}

	cells := make([]metrics.Binary, len(estimators)*len(traces))
	if err := r.Pool.ForEach(len(cells), func(i int) error {
		res, err := sim.RunSpec(estimators[i/len(traces)].spec, traces[i%len(traces)], r.Limit)
		cells[i] = res.Binary()
		return err
	}); err != nil {
		return out, err
	}
	for ei, e := range estimators {
		var conf metrics.Binary
		for ti := range traces {
			conf.Add(cells[ei*len(traces)+ti])
		}
		out.Rows = append(out.Rows, EstimatorRow{Name: e.name, StorageBits: e.bits, Confusion: conf})
	}
	return out, nil
}

// Render writes the estimator comparison table.
//
//repro:deterministic
func (c EstimatorComparison) Render(w io.Writer) {
	header := []string{"estimator", "extra storage", "SENS", "PVP", "SPEC", "PVN"}
	var rows [][]string
	for _, r := range c.Rows {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%d bits", r.StorageBits),
			fmt.Sprintf("%.3f", r.Confusion.Sens()),
			fmt.Sprintf("%.3f", r.Confusion.PVP()),
			fmt.Sprintf("%.3f", r.Confusion.Spec()),
			fmt.Sprintf("%.3f", r.Confusion.PVN()),
		})
	}
	textplot.Table(w, "Comparison: storage-free estimation vs JRS tables (16Kbits TAGE, CBP-1)", header, rows)
}
