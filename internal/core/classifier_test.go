package core

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/tage"
)

func bimObs(pc uint64, ctr counter.Bimodal) *tage.Observation {
	return &tage.Observation{
		PC:          pc,
		Pred:        ctr.Taken(),
		AltPred:     ctr.Taken(),
		Provider:    tage.ProviderBimodal,
		AltProvider: tage.ProviderBimodal,
		BimCtr:      ctr,
	}
}

func tagObs(pc uint64, ctr int8) *tage.Observation {
	return &tage.Observation{
		PC:          pc,
		Pred:        counter.TakenSigned(ctr),
		Provider:    1,
		ProviderCtr: ctr,
		AltProvider: tage.ProviderBimodal,
		BimCtr:      counter.BimodalWeakNotTaken,
	}
}

func TestTaggedClasses3Bit(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	want := map[int8]Class{
		0: Wtag, -1: Wtag,
		1: NWtag, -2: NWtag,
		2: NStag, -3: NStag,
		3: Stag, -4: Stag,
	}
	for ctr, wc := range want {
		if got := cls.Classify(tagObs(0x100, ctr)); got != wc {
			t.Errorf("ctr %d -> %v, want %v", ctr, got, wc)
		}
	}
}

func TestTaggedClasses4Bit(t *testing.T) {
	cfg := tage.Small16K()
	cfg.CtrBits = 4
	cls := NewClassifier(cfg)
	// 4-bit: weak = {0,-1} -> Wtag; {1,-2} -> NWtag; saturated {7,-8} ->
	// Stag; everything else NStag.
	cases := map[int8]Class{
		0: Wtag, -1: Wtag,
		1: NWtag, -2: NWtag,
		7: Stag, -8: Stag,
		2: NStag, 5: NStag, -5: NStag, 6: NStag, -7: NStag,
	}
	for ctr, wc := range cases {
		if got := cls.Classify(tagObs(0x100, ctr)); got != wc {
			t.Errorf("4-bit ctr %d -> %v, want %v", ctr, got, wc)
		}
	}
}

func TestBimodalWeakIsLowConf(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	for _, c := range []counter.Bimodal{counter.BimodalWeakNotTaken, counter.BimodalWeakTaken} {
		if got := cls.Classify(bimObs(0x10, c)); got != LowConfBim {
			t.Errorf("weak bimodal %d -> %v, want LowConfBim", c, got)
		}
	}
	for _, c := range []counter.Bimodal{counter.BimodalStrongNotTaken, counter.BimodalStrongTaken} {
		if got := cls.Classify(bimObs(0x10, c)); got != HighConfBim {
			t.Errorf("strong bimodal %d -> %v, want HighConfBim", c, got)
		}
	}
}

func TestMediumWindowOpensOnBimMiss(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	strong := bimObs(0x20, counter.BimodalStrongTaken)

	// A mispredicted BIM branch opens the window.
	cls.Resolve(strong, false) // predicted taken, was not-taken
	for i := 0; i < DefaultBimWindow; i++ {
		if got := cls.Classify(strong); got != MediumConfBim {
			t.Fatalf("BIM prediction %d after miss -> %v, want MediumConfBim", i, got)
		}
		cls.Resolve(strong, true) // correct; window shrinks
	}
	// Window exhausted: back to high confidence.
	if got := cls.Classify(strong); got != HighConfBim {
		t.Fatalf("after window -> %v, want HighConfBim", got)
	}
}

func TestWindowResetsOnNewMiss(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	strong := bimObs(0x20, counter.BimodalStrongTaken)
	cls.Resolve(strong, false)
	cls.Resolve(strong, true)
	cls.Resolve(strong, true)
	// Another miss resets to the full window.
	cls.Resolve(strong, false)
	for i := 0; i < DefaultBimWindow; i++ {
		if cls.Classify(strong) != MediumConfBim {
			t.Fatalf("window should be fully re-opened at step %d", i)
		}
		cls.Resolve(strong, true)
	}
	if cls.Classify(strong) != HighConfBim {
		t.Fatal("window should be exhausted")
	}
}

func TestWeakCounterDominatesWindow(t *testing.T) {
	// Inside the window, a weak bimodal counter still classifies
	// low-conf-bim (low dominates medium).
	cls := NewClassifier(tage.Small16K())
	strong := bimObs(0x20, counter.BimodalStrongTaken)
	weak := bimObs(0x24, counter.BimodalWeakTaken)
	cls.Resolve(strong, false) // open window
	if got := cls.Classify(weak); got != LowConfBim {
		t.Fatalf("weak counter in window -> %v, want LowConfBim", got)
	}
}

func TestTaggedPredictionsDoNotTouchWindow(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	strong := bimObs(0x20, counter.BimodalStrongTaken)
	cls.Resolve(strong, false) // open window
	// Tagged mispredictions and corrections must not affect the BIM window.
	for i := 0; i < 20; i++ {
		cls.Resolve(tagObs(0x40, 3), i%2 == 0)
	}
	if got := cls.Classify(strong); got != MediumConfBim {
		t.Fatalf("window must survive tagged resolutions, got %v", got)
	}
}

func TestZeroWindowDisablesMediumBim(t *testing.T) {
	cls := NewClassifierWindow(tage.Small16K(), 0)
	strong := bimObs(0x20, counter.BimodalStrongTaken)
	cls.Resolve(strong, false)
	if got := cls.Classify(strong); got != HighConfBim {
		t.Fatalf("window 0 should disable medium-conf-bim, got %v", got)
	}
	if cls.Window() != 0 {
		t.Fatalf("Window() = %d", cls.Window())
	}
}

func TestNegativeWindowClamped(t *testing.T) {
	cls := NewClassifierWindow(tage.Small16K(), -5)
	if cls.Window() != 0 {
		t.Fatalf("negative window should clamp to 0, got %d", cls.Window())
	}
}

func TestClassifyIsPure(t *testing.T) {
	cls := NewClassifier(tage.Small16K())
	strong := bimObs(0x20, counter.BimodalStrongTaken)
	cls.Resolve(strong, false)
	a := cls.Classify(strong)
	b := cls.Classify(strong)
	if a != b {
		t.Fatal("Classify must not mutate state")
	}
}
