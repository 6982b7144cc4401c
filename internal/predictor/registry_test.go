package predictor_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

func TestRegistryListsFamilies(t *testing.T) {
	want := []string{"bimodal", "jrs", "ltage", "ogehl", "perceptron", "tage"}
	got := predictor.FamilyNames()
	if len(got) != len(want) {
		t.Fatalf("FamilyNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FamilyNames() = %v, want %v", got, want)
		}
	}
	for _, f := range predictor.Families() {
		if f.Summary == "" || f.Paper == "" {
			t.Errorf("family %q missing summary/paper metadata", f.Name)
		}
	}
}

func TestBuildErrorsListValidChoices(t *testing.T) {
	if _, _, err := predictor.New("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "tage") || !strings.Contains(err.Error(), "bimodal") {
		t.Errorf("unknown family error should list registered families, got %v", err)
	}
	if _, _, err := predictor.New("tage-99K"); err == nil || !strings.Contains(err.Error(), "64K") {
		t.Errorf("unknown variant error should list variants, got %v", err)
	}
	if _, _, err := predictor.New("bimodal-64K?bogus=1"); err == nil ||
		!strings.Contains(err.Error(), "log") {
		t.Errorf("unknown parameter error should list accepted keys, got %v", err)
	}
	if _, _, err := predictor.New("tage-64K?ctr=99"); err == nil {
		t.Error("out-of-range parameter accepted")
	}
	if _, _, err := predictor.New("tage-64K?seed=99999999999999999999999999"); err == nil {
		t.Error("overflowing parameter accepted")
	}
	if _, _, err := predictor.New("tage-custom"); err == nil {
		t.Error("custom variant without structure accepted")
	}
	// 16 path bits over 2·TaggedLog = 12 fails to build; 12 builds.
	const custom = "tage-custom?bl=8&tl=6&tag=8&hist=4,9,20"
	if _, _, err := predictor.New(custom + "&path=16"); err == nil || !strings.Contains(err.Error(), "path-history width 16") {
		t.Errorf("path width over 2·TaggedLog accepted or misreported: %v", err)
	}
	if _, _, err := predictor.New(custom + "&path=12"); err != nil {
		t.Errorf("path width at 2·TaggedLog rejected: %v", err)
	}
}

// TestEveryFamilyRunsEndToEnd builds every registered family from its
// bare default spec and drives it through the generic simulation driver:
// grades must be internally consistent (class.Level() == level), every
// branch predicted, and Reset must reproduce the identical cold-start
// run.
func TestEveryFamilyRunsEndToEnd(t *testing.T) {
	tr, err := workload.ByName("INT-2")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 8_000
	for _, name := range predictor.FamilyNames() {
		t.Run(name, func(t *testing.T) {
			b, sp, err := predictor.New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if b.Label() == "" {
				t.Fatal("empty label")
			}
			first, err := sim.Run(b, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			if first.Branches != limit || first.Total.Preds != limit {
				t.Fatalf("ran %d branches, tallied %d preds, want %d", first.Branches, first.Total.Preds, limit)
			}
			if first.Config != b.Label() {
				t.Fatalf("result labeled %q, backend label %q", first.Config, b.Label())
			}
			// Reset restores the cold state: a second run over the same
			// trace is bit-identical to the first.
			b.Reset()
			second, err := sim.Run(b, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("Reset did not restore cold state:\nfirst  %+v\nsecond %+v", first, second)
			}
			_ = sp
		})
	}
}

// TestGradeConsistency drives every family and asserts the contract
// that the wire protocol relies on: the returned class always aggregates
// to the returned level.
func TestGradeConsistency(t *testing.T) {
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range predictor.FamilyNames() {
		b, _, err := predictor.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r := tr.Open()
		for i := 0; i < 4_000; i++ {
			br, err := r.Next()
			if err != nil {
				break
			}
			_, class, level := b.Predict(br.PC)
			if class >= core.NumClasses || level >= core.NumLevels || class.Level() != level {
				t.Fatalf("%s: inconsistent grade class=%v level=%v", name, class, level)
			}
			b.Update(br.PC, br.Taken)
		}
	}
}

// TestTAGESpecRoundTrip pins the property the whole spec redesign leans
// on: Build(TAGESpec(cfg, opts)) constructs an estimator bit-identical
// to core.NewEstimator(cfg, opts) — for the paper configurations, for
// ablation-style structural mutations under an unchanged name, and for
// every option field.
func TestTAGESpecRoundTrip(t *testing.T) {
	tr, err := workload.ByName("SERV-1")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 6_000
	type pair struct {
		name string
		cfg  tage.Config
		opts core.Options
	}
	cases := []pair{
		{"16K-standard", tage.Small16K(), core.Options{}},
		{"64K-prob", tage.Medium64K(), core.Options{Mode: core.ModeProbabilistic}},
		{"256K-adaptive", tage.Large256K(), core.Options{Mode: core.ModeAdaptive, TargetMKP: 10.12, AdaptiveWindow: 4096}},
		{"ctr4", func() pair { p := pair{cfg: tage.Small16K()}; p.cfg.CtrBits = 4; return p }().cfg, core.Options{}},
		{"noalt", func() pair { p := pair{cfg: tage.Small16K()}; p.cfg.DisableUseAltOnNA = true; return p }().cfg, core.Options{}},
		{"seed", func() pair { p := pair{cfg: tage.Small16K()}; p.cfg.Seed = 0xDEADBEEF; return p }().cfg, core.Options{}},
		{"window-disabled", tage.Small16K(), core.Options{Mode: core.ModeProbabilistic, BimWindow: -1}},
		{"denomlog", tage.Small16K(), core.Options{Mode: core.ModeProbabilistic, DenomLog: 5}},
		{"custom", tage.Config{
			Name: "probe", BimodalLog: 8, TaggedLog: 6, TagBits: 8,
			HistLengths: []int{4, 9, 20}, PathBits: 12, Seed: 42,
		}, core.Options{Mode: core.ModeProbabilistic}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := predictor.TAGESpec(c.cfg, c.opts)
			// The spec is canonical: it reparses to itself.
			again, err := predictor.Parse(sp.String())
			if err != nil {
				t.Fatalf("TAGESpec %q does not reparse: %v", sp.String(), err)
			}
			if again != sp {
				t.Fatalf("TAGESpec not canonical: %q", sp.String())
			}
			direct, err := sim.RunConfig(c.cfg, c.opts, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			viaSpec, err := sim.RunSpec(sp, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			if direct != viaSpec {
				t.Fatalf("spec-built estimator diverged for %q:\ndirect %+v\nspec   %+v", sp.String(), direct, viaSpec)
			}
		})
	}
}

// TestTAGESpecInjective pins collision-proofness on the exact pairs
// that once collided in the experiments cache (PR 2) plus structural
// mutations under an unchanged name.
func TestTAGESpecInjective(t *testing.T) {
	base := tage.Small16K()
	adaptive := core.Options{Mode: core.ModeAdaptive, TargetMKP: 10, AdaptiveWindow: 4096}
	mutations := []struct {
		name string
		cfg  tage.Config
		opts core.Options
	}{
		{"base", base, adaptive},
		{"awindow", base, core.Options{Mode: core.ModeAdaptive, TargetMKP: 10, AdaptiveWindow: 16384}},
		{"mkp-10.12", base, core.Options{Mode: core.ModeAdaptive, TargetMKP: 10.12, AdaptiveWindow: 4096}},
		{"mkp-10.14", base, core.Options{Mode: core.ModeAdaptive, TargetMKP: 10.14, AdaptiveWindow: 4096}},
		{"ctr", func() tage.Config { c := base; c.CtrBits = 4; return c }(), adaptive},
		{"u", func() tage.Config { c := base; c.UBits = 3; return c }(), adaptive},
		{"seed", func() tage.Config { c := base; c.Seed = 1; return c }(), adaptive},
		{"noalt", func() tage.Config { c := base; c.DisableUseAltOnNA = true; return c }(), adaptive},
		{"hist", func() tage.Config { c := base; c.HistLengths = []int{3, 8, 21, 81}; return c }(), adaptive},
		{"window", base, func() core.Options { o := adaptive; o.BimWindow = 4; return o }()},
		{"denomlog", base, func() core.Options { o := adaptive; o.DenomLog = 6; return o }()},
	}
	seen := make(map[predictor.Spec]string)
	for _, m := range mutations {
		sp := predictor.TAGESpec(m.cfg, m.opts)
		if prev, dup := seen[sp]; dup {
			t.Fatalf("mutations %q and %q collide on spec %q", prev, m.name, sp.String())
		}
		seen[sp] = m.name
	}
}
