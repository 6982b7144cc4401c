package fetchgate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tage"
	"repro/internal/workload"
)

func opts() core.Options {
	return core.Options{Mode: core.ModeProbabilistic}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{FetchWidth: 0, ResolveDelay: 10},
		{FetchWidth: 4, ResolveDelay: 0},
		{FetchWidth: 4, ResolveDelay: 10, LowBoost: -1},
	}
	tr, _ := workload.ByName("FP-1")
	for i, cfg := range bad {
		if _, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, cfg, 100); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestUngatedFetchesEverything(t *testing.T) {
	tr, _ := workload.ByName("FP-1")
	st, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, DefaultConfig().Ungated(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if st.GatedCycles != 0 {
		t.Fatalf("ungated run gated %d cycles", st.GatedCycles)
	}
	if st.Branches != 20000 {
		t.Fatalf("resolved %d branches, want 20000", st.Branches)
	}
	if st.UsefulFetched == 0 || st.Cycles == 0 {
		t.Fatal("degenerate run")
	}
	if st.Mispredictions == 0 {
		t.Fatal("expected some mispredictions on FP-1")
	}
	if st.WrongPathFetched == 0 {
		t.Fatal("mispredictions must cause wrong-path fetch")
	}
	if st.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAggressiveGatingReducesWrongPathFetch(t *testing.T) {
	tr, _ := workload.ByName("300.twolf") // high misprediction rate
	gated, baseline, err := Compare(tage.Small16K(), opts(), AggressiveConfig(), tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(gated, baseline)
	if s.WrongPathReduction < 0.35 {
		t.Errorf("wrong-path reduction %.3f, want >= 0.35", s.WrongPathReduction)
	}
	if s.Slowdown > 0.40 {
		t.Errorf("slowdown %.3f unreasonably high", s.Slowdown)
	}
	if gated.GatedCycles == 0 {
		t.Error("gate never engaged on a hard trace")
	}
}

func TestDefaultGatingIsBalanced(t *testing.T) {
	tr, _ := workload.ByName("300.twolf")
	gated, baseline, err := Compare(tage.Small16K(), opts(), DefaultConfig(), tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(gated, baseline)
	if s.WrongPathReduction <= 0 {
		t.Errorf("default gating should save wrong-path fetch, got %.3f", s.WrongPathReduction)
	}
	if s.Slowdown > 0.10 {
		t.Errorf("default gating slowdown %.3f, want <= 0.10", s.Slowdown)
	}
}

func TestGatingCheapOnPredictableTrace(t *testing.T) {
	// A low-confidence-only gate barely fires on a predictable trace: the
	// cost side of the trade-off collapses when the estimator sees few
	// low-confidence predictions.
	tr, _ := workload.ByName("252.eon")
	lowOnly := Config{
		FetchWidth: 4, ResolveDelay: 12,
		LowBoost: 1, MediumBoost: 0, HighBoost: 0,
		GateThreshold: 2,
	}
	gated, baseline, err := Compare(tage.Medium64K(), opts(), lowOnly, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(gated, baseline)
	if s.Slowdown > 0.04 {
		t.Errorf("slowdown %.4f on predictable trace, want ~0", s.Slowdown)
	}
	_ = gated
}

func TestConfidenceBeatsBlindGating(t *testing.T) {
	// Gating on confidence must beat gating on raw branch count (every
	// branch weighted equally) at comparable slowdown: compare wrong-path
	// reduction per unit slowdown.
	tr, _ := workload.ByName("INT-5")
	conf := DefaultConfig()
	gatedC, baseC, err := Compare(tage.Small16K(), opts(), conf, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	blind := conf
	blind.LowBoost, blind.MediumBoost, blind.HighBoost = 1, 1, 1
	blind.GateThreshold = 4 // gate on >= 4 in-flight branches of any kind
	gatedB, baseB, err := Compare(tage.Small16K(), opts(), blind, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	sc := Evaluate(gatedC, baseC)
	sb := Evaluate(gatedB, baseB)
	// Efficiency: reduction achieved per slowdown paid.
	effC := sc.WrongPathReduction / (sc.Slowdown + 0.01)
	effB := sb.WrongPathReduction / (sb.Slowdown + 0.01)
	if effC <= effB {
		t.Errorf("confidence gating efficiency %.2f should beat blind gating %.2f", effC, effB)
	}
}

func TestThrottleConfigValidates(t *testing.T) {
	tr, _ := workload.ByName("FP-1")
	bad := DefaultConfig()
	bad.ThrottleWidth = bad.FetchWidth // must be strictly narrower
	if _, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, bad, 100); err == nil {
		t.Fatal("ThrottleWidth == FetchWidth must be rejected")
	}
	bad.ThrottleWidth = -1
	if _, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, bad, 100); err == nil {
		t.Fatal("negative ThrottleWidth must be rejected")
	}
}

func TestThrottlingIsGentlerThanGating(t *testing.T) {
	// Aragón et al.: throttling trades some wrong-path savings for a much
	// smaller slowdown than a full gate at the same trigger.
	tr, _ := workload.ByName("300.twolf")
	gateCfg := AggressiveConfig()
	gated, gateBase, err := Compare(tage.Small16K(), opts(), gateCfg, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	throttleCfg := gateCfg
	throttleCfg.ThrottleWidth = 1
	throttled, thrBase, err := Compare(tage.Small16K(), opts(), throttleCfg, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	sg := Evaluate(gated, gateBase)
	st := Evaluate(throttled, thrBase)
	if st.Slowdown >= sg.Slowdown {
		t.Errorf("throttle slowdown %.3f should undercut gate slowdown %.3f", st.Slowdown, sg.Slowdown)
	}
	if st.WrongPathReduction <= 0 {
		t.Errorf("throttling should still save wrong-path fetch, got %.3f", st.WrongPathReduction)
	}
	if st.WrongPathReduction >= sg.WrongPathReduction {
		t.Errorf("full gating should save more than throttling (%.3f vs %.3f)",
			sg.WrongPathReduction, st.WrongPathReduction)
	}
}

func TestEvaluateZeroBaseline(t *testing.T) {
	s := Evaluate(Stats{}, Stats{})
	if s.WrongPathReduction != 0 || s.Slowdown != 0 {
		t.Fatal("zero baselines must produce zero savings")
	}
}

func TestStatsAccessorsZeroSafe(t *testing.T) {
	var st Stats
	if st.WrongPathFraction() != 0 || st.IPC() != 0 {
		t.Fatal("zero stats accessors must be 0")
	}
}

func TestDeterministic(t *testing.T) {
	tr, _ := workload.ByName("MM-2")
	a, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, DefaultConfig(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, DefaultConfig(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestUngatedNeverCountsGatedCycles(t *testing.T) {
	// Threshold 0 disables the gate entirely, even with nonzero boosts.
	tr, _ := workload.ByName("INT-1")
	cfg := Config{FetchWidth: 4, ResolveDelay: 12, LowBoost: 4, MediumBoost: 2}
	st, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.GatedCycles != 0 {
		t.Fatalf("disabled gate counted %d gated cycles", st.GatedCycles)
	}
}

func TestThrottleCountsGatedCycles(t *testing.T) {
	// Throttled cycles still count as gated (they ran at reduced width).
	tr, _ := workload.ByName("300.twolf")
	cfg := AggressiveConfig()
	cfg.ThrottleWidth = 1
	st, err := Run(core.NewEstimator(tage.Small16K(), opts()), tr, cfg, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.GatedCycles == 0 {
		t.Fatal("throttle never engaged on a hard trace")
	}
}
