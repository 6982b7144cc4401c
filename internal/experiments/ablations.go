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
// with the modified automaton.
func (r *Runner) RunBimWindowAblation() (BimWindowAblation, error) {
	return runAs[BimWindowAblation](r, "ablation-window")
}

// bimWindows are the swept medium-conf-bim windows (-1 disables it). The
// arms differ only in the classifier, so on each trace they share one
// predictor (predictorKey).
var bimWindows = []int{-1, 4, 8, 16, 32}

func planBimWindow(p *plan) {
	for _, win := range bimWindows {
		opts := modifiedOpts()
		opts.BimWindow = win
		p.suite(tage.Small16K(), opts, "cbp1")
	}
}

func reduceBimWindow(res []sim.SuiteResult) (BimWindowAblation, error) {
	var a BimWindowAblation
	for i, win := range bimWindows {
		agg := res[i].Aggregate
		a.Rows = append(a.Rows, BimWindowRow{
			Window: max(win, 0),
			MediumBim: LevelCell{
				Pcov:   agg.Pcov(core.MediumConfBim),
				MPcov:  agg.MPcov(core.MediumConfBim),
				MPrate: agg.MPrate(core.MediumConfBim),
			},
			HighBimMPrate: agg.MPrate(core.HighConfBim),
		})
	}
	return a, nil
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
// heuristic across the three sizes.
func (r *Runner) RunUseAltAblation() (UseAltAblation, error) {
	return runAs[UseAltAblation](r, "ablation-usealt")
}

// planUseAlt requests each standard configuration with the heuristic,
// then without it.
func planUseAlt(p *plan) {
	for _, cfg := range tage.StandardConfigs() {
		p.suite(cfg, standardOpts(), "cbp1")
		cfg.DisableUseAltOnNA = true
		p.suite(cfg, standardOpts(), "cbp1")
	}
}

func reduceUseAlt(res []sim.SuiteResult) (UseAltAblation, error) {
	var out UseAltAblation
	for i, cfg := range tage.StandardConfigs() {
		with, without := res[2*i].Aggregate, res[2*i+1].Aggregate
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
// isolates the widening itself).
func (r *Runner) RunCtrWidthAblation() (CtrWidthAblation, error) {
	return runAs[CtrWidthAblation](r, "ablation-ctr")
}

var (
	ctrBases  = []tage.Config{tage.Small16K(), tage.Medium64K()}
	ctrWidths = []uint{3, 4}
)

// planCtrWidth requests the (config × width) grid, config-major.
func planCtrWidth(p *plan) {
	for _, cfg := range ctrBases {
		for _, bits := range ctrWidths {
			cfg.CtrBits = bits
			p.suite(cfg, standardOpts(), "cbp1")
		}
	}
}

func reduceCtrWidth(res []sim.SuiteResult) (CtrWidthAblation, error) {
	var a CtrWidthAblation
	for i, sr := range res {
		agg := sr.Aggregate
		a.Rows = append(a.Rows, CtrWidthRow{
			Config:     agg.Config,
			CtrBits:    ctrWidths[i%len(ctrWidths)],
			MPKI:       agg.MPKI(),
			StagPcov:   agg.Pcov(core.Stag),
			StagMPrate: agg.MPrate(core.Stag),
		})
	}
	return a, nil
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
// confidence estimate, so each (estimator, trace) cell is one spec run;
// each trace is read once for all three (runSpecs), and confusions merge
// in estimator-major, trace-minor order.
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

	specs := make([]predictor.Spec, len(estimators))
	for i, e := range estimators {
		specs[i] = e.spec
	}
	cells, err := r.runSpecs(specs, traces)
	if err != nil {
		return out, err
	}
	for ei, e := range estimators {
		var conf metrics.Binary
		for ti := range traces {
			conf.Add(cells[ei*len(traces)+ti].Binary())
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
