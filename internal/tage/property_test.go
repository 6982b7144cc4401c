package tage

import (
	"testing"
	"testing/quick"

	"repro/internal/counter"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// checkStateInvariants verifies every architectural-state bound the
// hardware would enforce by construction.
func checkStateInvariants(t *testing.T, p *Predictor) {
	t.Helper()
	cfg := p.Config()
	ctrMin, ctrMax := counter.SignedMin(cfg.CtrBits), counter.SignedMax(cfg.CtrBits)
	uMax := uint8(1<<cfg.UBits) - 1
	tagMax := uint16(1<<cfg.TagBits) - 1
	for j, e := range p.entries {
		ti := j >> p.taggedLog
		if ctr := entryCtr(e); ctr < ctrMin || ctr > ctrMax {
			t.Fatalf("table %d: ctr %d out of [%d,%d]", ti, ctr, ctrMin, ctrMax)
		}
		if u := entryU(e); u > uMax {
			t.Fatalf("table %d: u %d out of range", ti, u)
		}
		if tag := entryTag(e); tag > tagMax {
			t.Fatalf("table %d: tag %#x exceeds %d bits", ti, tag, cfg.TagBits)
		}
	}
	if v := p.UseAltOnNA(); v < -8 || v > 7 {
		t.Fatalf("USE_ALT_ON_NA %d out of 4-bit range", v)
	}
}

func TestQuickStateInvariantsUnderRandomStreams(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%4000) + 500
		p := New(Small16K())
		r := xrand.New(seed)
		pcs := make([]uint64, 16)
		for i := range pcs {
			pcs[i] = 0x400000 + uint64(r.Intn(1<<14))*4
		}
		for i := 0; i < n; i++ {
			pc := pcs[r.Intn(len(pcs))]
			p.Predict(pc)
			p.Update(pc, r.Bool())
		}
		cfg := p.Config()
		ctrMin, ctrMax := counter.SignedMin(cfg.CtrBits), counter.SignedMax(cfg.CtrBits)
		for _, e := range p.entries {
			if ctr := entryCtr(e); ctr < ctrMin || ctr > ctrMax || entryU(e) > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestStateInvariantsAfterSuiteTrace(t *testing.T) {
	for _, cfg := range StandardConfigs() {
		p := New(cfg)
		tr, _ := workload.ByName("213.javac")
		runOn(p, tr, 60000)
		checkStateInvariants(t, p)
	}
}

func TestStateInvariantsWithProbabilisticAutomaton(t *testing.T) {
	cfg := Medium64K()
	p := NewWithAutomaton(cfg, counter.NewProbabilistic(7, counter.DefaultDenomLog))
	tr, _ := workload.ByName("175.vpr")
	runOn(p, tr, 60000)
	checkStateInvariants(t, p)
}

func TestIndicesAndTagsWithinRange(t *testing.T) {
	p := New(Large256K())
	r := xrand.New(5)
	// Push random history and verify, at every step and for every bank,
	// that the flat position Predict recorded falls inside that bank's
	// own rows and the recorded tag fits TagBits.
	rows := uint32(1) << p.cfg.TaggedLog
	for i := 0; i < 3000; i++ {
		pc := uint64(r.Uint32()) &^ 3
		p.Predict(pc)
		for bank := 1; bank <= p.numTables; bank++ {
			lo := uint32(bank-1) * rows
			if pos := p.pos[bank]; pos < lo || pos >= lo+rows {
				t.Fatalf("step %d: bank %d position %d outside its rows [%d, %d)", i, bank, pos, lo, lo+rows)
			}
			if tag := p.tagc[bank]; tag >= 1<<p.cfg.TagBits {
				t.Fatalf("step %d: bank %d tag %#x out of range", i, bank, tag)
			}
		}
		p.Update(pc, r.Bool())
	}
}

func TestUsedAltImpliesAltPrediction(t *testing.T) {
	p := New(Small16K())
	tr, _ := workload.ByName("INT-4")
	r := trace.Limit(tr, 80000).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if obs.UsedAlt && obs.Pred != obs.AltPred {
			t.Fatal("UsedAlt implies the final prediction equals altpred")
		}
		p.Update(b.PC, b.Taken)
	}
}

func TestDifferentSeedsDifferentAllocation(t *testing.T) {
	// The allocation tie-break is randomized; different predictor seeds
	// must be able to produce different misprediction counts on a stream
	// with allocation pressure (sanity check that the seed is wired in).
	cfgA := Small16K()
	cfgB := Small16K()
	cfgB.Seed = cfgA.Seed + 1
	tr, _ := workload.ByName("SERV-3")
	a := New(cfgA)
	b := New(cfgB)
	ma, _, _ := runOn(a, tr, 50000)
	mb, _, _ := runOn(b, tr, 50000)
	if ma == mb {
		t.Log("identical misprediction counts across seeds (possible but unusual)")
	}
	// Accuracy must be in the same band regardless of seed.
	diff := float64(ma) - float64(mb)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*float64(ma) {
		t.Fatalf("seed changed accuracy too much: %d vs %d", ma, mb)
	}
}

func TestPredictIsReadOnly(t *testing.T) {
	// Predicting the same branch repeatedly without updates must not
	// change the prediction (no speculative state updates in this
	// trace-driven model).
	p := New(Small16K())
	tr, _ := workload.ByName("FP-3")
	r := trace.Limit(tr, 2000).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		first := *p.Predict(b.PC)
		for i := 0; i < 3; i++ {
			if again := *p.Predict(b.PC); again != first {
				t.Fatal("repeated Predict changed the observation")
			}
		}
		p.Update(b.PC, b.Taken)
	}
}

func TestColdPredictorObservation(t *testing.T) {
	p := New(Small16K())
	obs := p.Predict(0x400504)
	if obs.Tagged() {
		t.Fatal("cold predictor with non-zero tag must miss the tagged tables")
	}
	if obs.Pred != false {
		t.Fatal("cold bimodal predicts not-taken")
	}
	if obs.BimCtr != counter.BimodalWeakNotTaken {
		t.Fatalf("cold bimodal counter = %d", obs.BimCtr)
	}
	p.Update(0x400504, true)
}

func TestStatsSnapshot(t *testing.T) {
	p := New(Small16K())
	// Cold predictor: nothing live, useful or saturated.
	for _, s := range p.Stats() {
		if s.LiveEntries != 0 || s.UsefulEntries != 0 || s.SaturatedEntries != 0 {
			t.Fatalf("cold stats not empty: %+v", s)
		}
	}
	tr, _ := workload.ByName("INT-2")
	runOn(p, tr, 60000)
	stats := p.Stats()
	if len(stats) != p.Config().NumTables() {
		t.Fatalf("stats for %d tables, want %d", len(stats), p.Config().NumTables())
	}
	totalLive, totalSat := 0, 0
	for i, s := range stats {
		if s.HistLen != p.Config().HistLengths[i] {
			t.Fatalf("table %d HistLen %d, want %d", i, s.HistLen, p.Config().HistLengths[i])
		}
		if s.LiveEntries > p.TaggedEntries() || s.SaturatedEntries > s.LiveEntries {
			t.Fatalf("inconsistent stats: %+v", s)
		}
		totalLive += s.LiveEntries
		totalSat += s.SaturatedEntries
	}
	if totalLive == 0 {
		t.Fatal("no live entries after a 60k-branch run")
	}
	if totalSat == 0 {
		t.Fatal("no saturated entries after a 60k-branch run (standard automaton)")
	}
}

func TestHistoryLengthsAffectBehavior(t *testing.T) {
	// A predictor with max history 80 cannot learn a trip-200 loop, while
	// the 300-history configuration can: the capacity/history mechanics
	// the configurations are built around.
	prog := workload.NewBuilder("t200", 77).SetLength(120000).
		Block(1, 1, 1, workload.S(workload.Loop{Trip: 200})).
		MustBuild()
	small := New(Small16K())
	missS, n, _ := runOn(small, prog, 0)
	large := New(Large256K())
	missL, _, _ := runOn(large, prog, 0)
	rateS := float64(missS) / float64(n)
	rateL := float64(missL) / float64(n)
	if rateL > rateS/3 {
		t.Fatalf("300-bit history should crush trip-200 (%f vs %f)", rateL, rateS)
	}
}
