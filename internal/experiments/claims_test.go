package experiments

// claims_test verifies the paper's in-text quantitative claims (§3, §5,
// §6) against the reproduction — the statements that are not in any table
// or figure but define the system's expected behavior.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tage"
)

// §5.1: "In practice, on the TAGE predictor, when the provider component
// is the bimodal component, this means that there has not been recently
// any mispredicted branch using the same PC address and history" — the
// BIM class misprediction coverage is significantly lower than its
// prediction coverage (except servers on the small predictor).
func TestClaimBimClassCleanerThanAverage(t *testing.T) {
	r := testRunner()
	sr, err := r.Suite(tage.Medium64K(), standardOpts(), "cbp1")
	if err != nil {
		t.Fatal(err)
	}
	agg := sr.Aggregate
	bimPcov := agg.Pcov(core.LowConfBim) + agg.Pcov(core.MediumConfBim) + agg.Pcov(core.HighConfBim)
	bimMPcov := agg.MPcov(core.LowConfBim) + agg.MPcov(core.MediumConfBim) + agg.MPcov(core.HighConfBim)
	if bimMPcov >= bimPcov {
		t.Errorf("BIM class MPcov %.3f should be below its Pcov %.3f", bimMPcov, bimPcov)
	}
}

// §5.1.2: "in all cases where low-conf-bim constitutes a substantial
// amount of the overall predictions (more than 1%), its misprediction
// rate exceeds 250 MKP".
func TestClaimLowConfBimRate(t *testing.T) {
	r := testRunner()
	for _, suite := range []string{"cbp1", "cbp2"} {
		sr, err := r.Suite(tage.Small16K(), standardOpts(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range sr.PerTrace {
			if res.Pcov(core.LowConfBim) > 0.01 && res.MPrate(core.LowConfBim) < 250 {
				t.Errorf("%s: low-conf-bim Pcov %.3f but only %.0f MKP",
					res.Trace, res.Pcov(core.LowConfBim), res.MPrate(core.LowConfBim))
			}
		}
	}
}

// §5.1.1: on the large predictor the BIM class is clean for most traces
// (paper: 24 of 40 below 1 MKP). Our synthetic "strongly biased" branches
// carry 1.5-3% irreducible noise where real BIM-provided branches are
// near-deterministic, so the absolute <1 MKP claim does not transfer (see
// the workload package doc); the scale-invariant form — the BIM class rate sits
// below the trace's overall rate for a clear majority of traces, and far
// below it for the regular (FP-style) traces — must hold.
func TestClaimLargePredictorBimClean(t *testing.T) {
	r := testRunner()
	cleaner, total := 0, 0
	veryClean := 0
	for _, suite := range []string{"cbp1", "cbp2"} {
		sr, err := r.Suite(tage.Large256K(), standardOpts(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range sr.PerTrace {
			total++
			var bim, bimMiss uint64
			for _, c := range []core.Class{core.LowConfBim, core.MediumConfBim, core.HighConfBim} {
				bim += res.Class[c].Preds
				bimMiss += res.Class[c].Misps
			}
			if bim == 0 {
				continue
			}
			rate := 1000 * float64(bimMiss) / float64(bim)
			if rate < res.Total.MKP() {
				cleaner++
			}
			if rate < res.Total.MKP()/2 {
				veryClean++
			}
		}
	}
	if cleaner*3 < total*2 {
		t.Errorf("BIM class cleaner than average on only %d of %d traces (256Kbits)", cleaner, total)
	}
	if veryClean < total/4 {
		t.Errorf("BIM class far below average on only %d of %d traces", veryClean, total)
	}
}

// §5.2: weak tagged counters occur only right after allocation or after
// providing a misprediction, so the Wtag class must be far above the
// average misprediction rate on every size.
func TestClaimWtagFarAboveAverage(t *testing.T) {
	r := testRunner()
	for _, cfg := range tage.StandardConfigs() {
		sr, err := r.Suite(cfg, standardOpts(), "cbp1")
		if err != nil {
			t.Fatal(err)
		}
		agg := sr.Aggregate
		if agg.MPrate(core.Wtag) < 3*agg.Total.MKP() {
			t.Errorf("%s: Wtag %.0f MKP not far above average %.0f",
				cfg.Name, agg.MPrate(core.Wtag), agg.Total.MKP())
		}
	}
}

// §6: "such a modification of the 3-bit counter automaton increases the
// misprediction rate but only very marginally".
func TestClaimAutomatonCostMarginal(t *testing.T) {
	r := testRunner()
	for _, suite := range []string{"cbp1", "cbp2"} {
		std, err := r.Suite(tage.Small16K(), standardOpts(), suite)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := r.Suite(tage.Small16K(), modifiedOpts(), suite)
		if err != nil {
			t.Fatal(err)
		}
		cost := mod.Aggregate.MPKI() - std.Aggregate.MPKI()
		// Paper: < 0.02 misp/KI at 30M-instruction traces; allow more at
		// test lengths where warmup (when counters saturate slowly) weighs
		// proportionally more.
		if cost > 0.2 {
			t.Errorf("%s: automaton cost %.3f misp/KI too high", suite, cost)
		}
	}
}

// §6: with the modified automaton "when the provider component is a
// tagged component and the counter is saturated then the prediction can
// be considered as high confidence" — Stag must land in the single-digit
// MKP band on every size/suite aggregate.
func TestClaimModifiedStagHighConfidence(t *testing.T) {
	r := testRunner()
	for _, cfg := range tage.StandardConfigs() {
		for _, suite := range []string{"cbp1", "cbp2"} {
			sr, err := r.Suite(cfg, modifiedOpts(), suite)
			if err != nil {
				t.Fatal(err)
			}
			if got := sr.Aggregate.MPrate(core.Stag); got > 15 {
				t.Errorf("%s %s: modified Stag %.1f MKP, want single-digit band",
					cfg.Name, suite, got)
			}
		}
	}
}

// §6.1: "the medium confidence predictions and the low confidence
// predictions cover both approximately half of the mispredictions".
func TestClaimMediumAndLowSplitMispredictions(t *testing.T) {
	r := testRunner()
	tab, err := r.RunThreeClass(false)
	if err != nil {
		t.Fatal(err)
	}
	// Bands are generous: at the shortened test trace length, warmup
	// allocations inflate the low class on the large predictor (the
	// committed full-length run sits at 0.40-0.49 for both).
	for _, row := range tab.Rows {
		if row.Medium.MPcov < 0.25 || row.Medium.MPcov > 0.6 {
			t.Errorf("%s %s: medium MPcov %.3f outside the ~half band",
				row.Config, row.Suite, row.Medium.MPcov)
		}
		if row.Low.MPcov < 0.25 || row.Low.MPcov > 0.68 {
			t.Errorf("%s %s: low MPcov %.3f outside the ~half band",
				row.Config, row.Suite, row.Low.MPcov)
		}
	}
}

// §3.1/§5.2: the selective use of the alternate prediction improves the
// quality of the Wtag-class predictions "but only in a limited way" —
// Wtag stays low confidence even with USE_ALT_ON_NA active.
func TestClaimWtagStaysLowConfidenceWithUseAlt(t *testing.T) {
	r := testRunner()
	sr, err := r.Suite(tage.Small16K(), standardOpts(), "cbp1")
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Aggregate.MPrate(core.Wtag); got < 150 {
		t.Errorf("Wtag %.0f MKP with USE_ALT_ON_NA: should remain low confidence", got)
	}
}
