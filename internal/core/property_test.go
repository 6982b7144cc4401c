package core

import (
	"testing"
	"testing/quick"

	"repro/internal/counter"
	"repro/internal/tage"
	"repro/internal/xrand"
)

// TestQuickLevelsPartitionClasses: every class maps to exactly one level
// and each level is non-empty.
func TestQuickLevelsPartitionClasses(t *testing.T) {
	counts := map[Level]int{}
	for _, c := range Classes() {
		counts[c.Level()]++
	}
	if counts[Low] != 3 || counts[Medium] != 2 || counts[High] != 2 {
		t.Fatalf("level partition %v, want 3/2/2", counts)
	}
}

// TestQuickWindowNeverNegative: under arbitrary interleavings of BIM and
// tagged resolutions the window counter stays within [0, window].
func TestQuickWindowNeverNegative(t *testing.T) {
	f := func(seed uint64, winRaw uint8) bool {
		window := int(winRaw % 20)
		cls := NewClassifierWindow(tage.Small16K(), window)
		r := xrand.New(seed)
		for i := 0; i < 500; i++ {
			var obs *tage.Observation
			if r.Bool() {
				obs = bimObs(0x100, counter.Bimodal(r.Intn(4)))
			} else {
				obs = tagObs(0x200, int8(r.Intn(8)-4))
			}
			cls.Classify(obs)
			cls.Resolve(obs, r.Bool())
			if cls.remaining < 0 || cls.remaining > window {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClassifyTotal: Classify returns a valid class for every
// reachable observation.
func TestQuickClassifyTotal(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	f := func(tagged bool, ctrRaw int8, bimRaw uint8, windowOpen bool) bool {
		var obs *tage.Observation
		if tagged {
			ctr := ctrRaw % 4
			if ctrRaw < 0 {
				ctr = -((-ctrRaw) % 5)
			}
			obs = tagObs(0x40, ctr)
		} else {
			obs = bimObs(0x40, counter.Bimodal(bimRaw%4))
		}
		if windowOpen {
			cls.Resolve(bimObs(0x80, counter.BimodalStrongTaken), false)
		} else {
			cls.remaining = 0
		}
		c := cls.Classify(obs)
		if c >= NumClasses {
			return false
		}
		if tagged != c.Tagged() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveConvergesFromBothEnds: wherever the probability starts, the
// controller walks toward an operating point consistent with the target.
func TestAdaptiveConvergesFromBothEnds(t *testing.T) {
	for _, start := range []uint{0, counter.MaxDenomLog} {
		auto := counter.NewProbabilistic(9, start)
		a := NewAdaptive(auto, 10, 256)
		r := xrand.New(uint64(start) + 1)
		// Feed a stream whose high-class rate depends on the probability:
		// a simple synthetic plant where more saturation (lower denomLog)
		// means dirtier high class.
		for i := 0; i < 300_000; i++ {
			dirtiness := 0.002 + 0.004*float64(counter.MaxDenomLog-auto.DenomLog())
			a.Observe(High, r.WithProbability(dirtiness))
		}
		// Plant: denomLog d gives rate 2+4*(10-d) MKP; the target band
		// [6,10] MKP corresponds to d in {8,9} (6 MKP) or d=8 (10 MKP).
		if auto.DenomLog() < 7 {
			t.Errorf("start %d: controller settled at denomLog %d, expected the 8-9 region",
				start, auto.DenomLog())
		}
	}
}

// TestEstimatorLevelsConsistentWithCounts: a full run's level statistics
// derived via the estimator equal the classifier's own classification of
// the observations.
func TestEstimatorLevelsConsistentWithCounts(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{Mode: ModeProbabilistic})
	r := xrand.New(77)
	for i := 0; i < 30000; i++ {
		pc := 0x400000 + uint64(r.Intn(256))*8
		_, class, level := est.Predict(pc)
		reClass := est.Classifier().Classify(est.Observation())
		if class != reClass {
			t.Fatalf("returned class %v != reclassified %v", class, reClass)
		}
		if level != class.Level() {
			t.Fatalf("level mismatch")
		}
		est.Update(pc, r.WithProbability(0.7))
	}
}
