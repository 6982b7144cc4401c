package tage

import (
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runOn drives a predictor over a trace, returning (mispredictions,
// branches, instructions).
func runOn(p *Predictor, tr trace.Trace, limit uint64) (miss, branches, instr uint64) {
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if err != nil {
			return
		}
		obs := p.Predict(b.PC)
		if obs.Pred != b.Taken {
			miss++
		}
		p.Update(b.PC, b.Taken)
		branches++
		instr += uint64(b.Instr)
	}
}

func mpki(miss, instr uint64) float64 {
	return 1000 * float64(miss) / float64(instr)
}

func TestStorageBudgetsExact(t *testing.T) {
	cases := []struct {
		cfg  Config
		bits int
	}{
		{Small16K(), 16 * 1024},
		{Medium64K(), 64 * 1024},
		{Large256K(), 256 * 1024},
	}
	for _, c := range cases {
		if got := c.cfg.StorageBits(); got != c.bits {
			t.Errorf("%s: storage = %d bits, want %d", c.cfg.Name, got, c.bits)
		}
	}
}

func TestPaperTableCounts(t *testing.T) {
	if got := Small16K().NumTables(); got != 4 {
		t.Errorf("16K tagged tables = %d, want 4", got)
	}
	if got := Medium64K().NumTables(); got != 7 {
		t.Errorf("64K tagged tables = %d, want 7", got)
	}
	if got := Large256K().NumTables(); got != 8 {
		t.Errorf("256K tagged tables = %d, want 8", got)
	}
}

func TestPaperHistoryBounds(t *testing.T) {
	cases := []struct {
		cfg      Config
		min, max int
	}{
		{Small16K(), 3, 80},
		{Medium64K(), 5, 130},
		{Large256K(), 5, 300},
	}
	for _, c := range cases {
		ls := c.cfg.HistLengths
		if ls[0] != c.min || ls[len(ls)-1] != c.max {
			t.Errorf("%s history %v, want %d..%d", c.cfg.Name, ls, c.min, c.max)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for _, n := range []string{"16K", "64K", "256K", "16Kbits", "small", "medium", "large"} {
		if _, err := ConfigByName(n); err != nil {
			t.Errorf("ConfigByName(%q): %v", n, err)
		}
	}
	if _, err := ConfigByName("512K"); err == nil {
		t.Error("unknown config should error")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{BimodalLog: 10},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 9},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 9, HistLengths: []int{5, 5}},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 9, HistLengths: []int{0, 5}},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 1, HistLengths: []int{3, 9}},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 9, HistLengths: []int{3, 9}, CtrBits: 1},
		{BimodalLog: 10, TaggedLog: 8, TagBits: 9, HistLengths: []int{3, 9}, UBits: 5},
		// 16 path bits over 2·TaggedLog = 14: the path hash would carry.
		{BimodalLog: 10, TaggedLog: 7, TagBits: 9, HistLengths: []int{3, 20}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, c := range StandardConfigs() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", c.Name, err)
		}
	}
	// The path-width bound names both numbers, and admits a geometry at
	// the bound, one whose histories are shorter than PathBits, and one
	// whose PathBits exceeds the 32-bit path register.
	err := Config{BimodalLog: 10, TaggedLog: 7, TagBits: 9, HistLengths: []int{3, 20}}.Validate()
	if err == nil || !strings.Contains(err.Error(), "width 16") || !strings.Contains(err.Error(), "= 14") {
		t.Errorf("path-width error %v does not name the width 16 and the bound 14", err)
	}
	for _, c := range []Config{
		{BimodalLog: 10, TaggedLog: 7, TagBits: 9, HistLengths: []int{3, 20}, PathBits: 14},
		{BimodalLog: 10, TaggedLog: 7, TagBits: 9, HistLengths: []int{3, 14}},
		{BimodalLog: 10, TaggedLog: 16, TagBits: 9, HistLengths: []int{3, 200}, PathBits: 64},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config must panic")
		}
	}()
	New(Config{})
}

func TestUpdateWithoutPredictPanics(t *testing.T) {
	p := New(Small16K())
	defer func() {
		if recover() == nil {
			t.Fatal("Update without Predict must panic")
		}
	}()
	p.Update(0x100, true)
}

func TestUpdateWrongPCPanics(t *testing.T) {
	p := New(Small16K())
	p.Predict(0x100)
	defer func() {
		if recover() == nil {
			t.Fatal("Update with mismatched pc must panic")
		}
	}()
	p.Update(0x104, true)
}

func TestDeterminism(t *testing.T) {
	tr := workload.CBP1()[1]
	a := New(Small16K())
	b := New(Small16K())
	ma, na, _ := runOn(a, tr, 20000)
	mb, nb, _ := runOn(b, tr, 20000)
	if ma != mb || na != nb {
		t.Fatalf("two identical runs diverged: %d/%d vs %d/%d", ma, na, mb, nb)
	}
}

func TestLearnsLoopExit(t *testing.T) {
	// A trip-12 loop: bimodal mispredicts every exit (1/12 ≈ 8.3%); TAGE
	// with history ≥ 12 should reach near-zero after warmup.
	prog := workload.NewBuilder("loop", 21).SetLength(40000).
		Block(1, 1, 1, workload.S(workload.Loop{Trip: 12})).
		MustBuild()
	p := New(Small16K())
	r := prog.Open()
	miss, n := 0, 0
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if n > 10000 && obs.Pred != b.Taken {
			miss++
		}
		p.Update(b.PC, b.Taken)
		n++
	}
	rate := float64(miss) / float64(n-10000)
	if rate > 0.01 {
		t.Fatalf("TAGE miss rate %.4f on trip-12 loop, want ~0", rate)
	}
}

func TestLearnsLongPatternBeyondBimodal(t *testing.T) {
	bits := make([]bool, 24)
	for i := range bits {
		bits[i] = i%5 < 2 || i == 17
	}
	prog := workload.NewBuilder("pat", 22).SetLength(60000).
		Block(1, 1, 1, workload.S(workload.Pattern{Bits: bits})).
		MustBuild()
	p := New(Medium64K())
	r := prog.Open()
	miss, n := 0, 0
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if n > 20000 && obs.Pred != b.Taken {
			miss++
		}
		p.Update(b.PC, b.Taken)
		n++
	}
	rate := float64(miss) / float64(n-20000)
	if rate > 0.02 {
		t.Fatalf("TAGE miss rate %.4f on period-24 pattern, want ~0", rate)
	}
}

func TestBeatsBimodalOnSuite(t *testing.T) {
	// TAGE 16K must clearly beat a standalone bimodal of the same budget on
	// a pattern-heavy trace.
	tr := workload.CBP1()[0] // FP-1
	p := New(Small16K())
	missT, _, instr := runOn(p, tr, 60000)

	// 16 Kbit worth of bimodal: 8192 entries.
	bim := newBimOnly()
	r := trace.Limit(tr, 60000).Open()
	var missB, instrB uint64
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		if bim.Predict(b.PC) != b.Taken {
			missB++
		}
		bim.Update(b.PC, b.Taken)
		instrB += uint64(b.Instr)
	}
	tageMPKI := mpki(missT, instr)
	bimMPKI := mpki(missB, instrB)
	if tageMPKI > bimMPKI*0.75 {
		t.Fatalf("TAGE %.2f MPKI vs bimodal %.2f MPKI: expected a clear win", tageMPKI, bimMPKI)
	}
}

// newBimOnly builds a pure bimodal predictor with a 16 Kbit budget via the
// bimodal package, wrapped locally to avoid an import cycle in tests.
type bimOnly struct {
	t []counter.Bimodal
}

func newBimOnly() *bimOnly {
	return &bimOnly{t: make([]counter.Bimodal, 8192)}
}

func (b *bimOnly) Predict(pc uint64) bool {
	return b.t[(pc>>2)&8191].Taken()
}

func (b *bimOnly) Update(pc uint64, taken bool) {
	i := (pc >> 2) & 8191
	b.t[i] = b.t[i].Update(taken)
}

func TestSizeOrderingOnCapacityStress(t *testing.T) {
	// On a capacity-stressing trace, bigger predictors must not lose:
	// 256K <= 64K <= 16K misprediction counts (within slack).
	tr := workload.CBP2()[3] // 181.mcf: long histories, large footprint
	var rates []float64
	for _, cfg := range StandardConfigs() {
		p := New(cfg)
		miss, _, instr := runOn(p, tr, 120000)
		rates = append(rates, mpki(miss, instr))
	}
	if rates[1] > rates[0]*1.1 {
		t.Errorf("64K (%.2f MPKI) much worse than 16K (%.2f)", rates[1], rates[0])
	}
	if rates[2] > rates[1]*1.1 {
		t.Errorf("256K (%.2f MPKI) much worse than 64K (%.2f)", rates[2], rates[1])
	}
	if rates[2] >= rates[0] {
		t.Errorf("256K (%.2f MPKI) should beat 16K (%.2f) on capacity stress", rates[2], rates[0])
	}
}

func TestObservationConsistency(t *testing.T) {
	tr := workload.CBP1()[6] // INT-2
	p := New(Small16K())
	r := trace.Limit(tr, 30000).Open()
	sawTagged, sawBim, sawUsedAlt := false, false, false
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if obs.PC != b.PC {
			t.Fatal("observation PC mismatch")
		}
		if obs.Tagged() {
			sawTagged = true
			if obs.Provider < 0 || obs.Provider >= p.Config().NumTables() {
				t.Fatalf("provider index %d out of range", obs.Provider)
			}
			s := obs.Strength()
			if s < 1 || s > 7 || s%2 == 0 {
				t.Fatalf("tagged strength %d invalid", s)
			}
			if !obs.UsedAlt {
				if obs.Pred != counter.TakenSigned(obs.ProviderCtr) {
					t.Fatal("prediction disagrees with provider counter")
				}
			}
		} else {
			sawBim = true
			if obs.Strength() != 0 {
				t.Fatal("bimodal provider must have strength 0")
			}
			if obs.Pred != obs.BimCtr.Taken() {
				t.Fatal("bimodal prediction disagrees with counter")
			}
			if obs.Pred != obs.AltPred {
				t.Fatal("with no tagged hit, altpred equals the base prediction")
			}
		}
		if obs.UsedAlt {
			sawUsedAlt = true
			if !obs.Tagged() {
				t.Fatal("UsedAlt requires a tagged provider")
			}
			if !counter.WeakSigned(obs.ProviderCtr) {
				t.Fatal("UsedAlt requires a weak provider counter")
			}
		}
		p.Update(b.PC, b.Taken)
	}
	if !sawTagged || !sawBim {
		t.Fatalf("degenerate run: tagged=%v bim=%v", sawTagged, sawBim)
	}
	_ = sawUsedAlt // UsedAlt needs USE_ALT_ON_NA >= 0 and weak providers; not guaranteed
}

func TestWeakTaggedPredictionsAreUnreliable(t *testing.T) {
	// The paper (§5.2): Wtag-class predictions mispredict at ~30-40%.
	tr := workload.CBP1()[7] // INT-3
	p := New(Small16K())
	r := trace.Limit(tr, 150000).Open()
	var weakMiss, weakTot, strongMiss, strongTot int
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if obs.Tagged() {
			if obs.Strength() == 1 {
				weakTot++
				if obs.Pred != b.Taken {
					weakMiss++
				}
			} else if obs.Strength() == 7 {
				strongTot++
				if obs.Pred != b.Taken {
					strongMiss++
				}
			}
		}
		p.Update(b.PC, b.Taken)
	}
	if weakTot < 100 || strongTot < 100 {
		t.Fatalf("not enough samples: weak=%d strong=%d", weakTot, strongTot)
	}
	weakRate := float64(weakMiss) / float64(weakTot)
	strongRate := float64(strongMiss) / float64(strongTot)
	if weakRate < 0.15 {
		t.Errorf("weak tagged miss rate %.3f suspiciously low (paper: ~0.3+)", weakRate)
	}
	if weakRate <= 2*strongRate {
		t.Errorf("weak (%.3f) should be far worse than saturated (%.3f)", weakRate, strongRate)
	}
}

func TestAllocationOnlyOnMisprediction(t *testing.T) {
	// A never-mispredicted branch must stay with the bimodal provider.
	// (The PC is chosen so its partial tag is non-zero: like the reference
	// simulator, cold all-zero tables produce false hits for branches whose
	// computed tag happens to be 0.)
	p := New(Small16K())
	pc := uint64(0x400804)
	for i := 0; i < 1000; i++ {
		obs := p.Predict(pc)
		if i > 10 && obs.Tagged() {
			t.Fatal("tagged entry allocated without any misprediction")
		}
		p.Update(pc, false) // cold bimodal predicts not-taken: always correct
	}
}

func TestUResetAges(t *testing.T) {
	cfg := Small16K()
	cfg.UResetPeriod = 64 // tiny period for the test
	p := New(cfg)
	// Drive some branches to set u bits, then verify the periodic shift
	// eventually clears them.
	tr := workload.CBP1()[5]
	r := trace.Limit(tr, 2000).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		p.Predict(b.PC)
		p.Update(b.PC, b.Taken)
	}
	// After the run, u values must be within the 2-bit range.
	for _, e := range p.entries {
		if u := entryU(e); u > 3 {
			t.Fatalf("u counter %d escaped 2-bit range", u)
		}
	}
}

func TestProbabilisticAutomatonAccuracyCost(t *testing.T) {
	// Paper §6: the modified automaton costs < 0.02 misp/KI on average.
	// Allow a loose bound on a single trace.
	tr := workload.CBP1()[0]
	std := New(Medium64K())
	stdMiss, _, instr := runOn(std, tr, 100000)

	cfg := Medium64K()
	mod := NewWithAutomaton(cfg, counter.NewProbabilistic(cfg.Seed, counter.DefaultDenomLog))
	modMiss, _, _ := runOn(mod, tr, 100000)

	stdMPKI := mpki(stdMiss, instr)
	modMPKI := mpki(modMiss, instr)
	if modMPKI > stdMPKI+0.35 {
		t.Fatalf("modified automaton cost too high: %.3f vs %.3f MPKI", modMPKI, stdMPKI)
	}
}

func TestFourBitCounterConfig(t *testing.T) {
	cfg := Small16K()
	cfg.CtrBits = 4
	p := New(cfg)
	tr := workload.CBP1()[2]
	miss, n, _ := runOn(p, tr, 30000)
	if n == 0 || miss == 0 || miss > n/2 {
		t.Fatalf("4-bit counter run degenerate: %d/%d", miss, n)
	}
}

func TestUseAltOnNAWithinRange(t *testing.T) {
	p := New(Small16K())
	tr := workload.CBP1()[8]
	runOn(p, tr, 50000)
	if v := p.UseAltOnNA(); v < -8 || v > 7 {
		t.Fatalf("USE_ALT_ON_NA = %d escaped 4-bit range", v)
	}
}

func TestTaggedEntries(t *testing.T) {
	if got := New(Small16K()).TaggedEntries(); got != 256 {
		t.Fatalf("16K tagged entries = %d, want 256", got)
	}
	if got := New(Large256K()).TaggedEntries(); got != 2048 {
		t.Fatalf("256K tagged entries = %d, want 2048", got)
	}
}

// TestFrontFollowersMatchSolo: predictors of one geometry following one
// Front make, branch for branch, the predictions of the same predictors
// run alone, and after Unfollow hold the state a solo run leaves
// (snapshot bytes). The PCs are odd half the time, so the path hash is
// live. A Front of another geometry cannot be followed, and a follower
// that predicts past its batch panics instead of reading stale rows.
func TestFrontFollowersMatchSolo(t *testing.T) {
	cfg := Small16K()
	wide := cfg
	wide.CtrBits, wide.DisableUseAltOnNA = 4, true
	build := func() []*Predictor {
		return []*Predictor{
			New(cfg),
			NewWithAutomaton(cfg, counter.NewProbabilistic(3, 3)),
			New(wide),
		}
	}
	solo, follow := build(), build()
	tr, _ := workload.ByName("INT-3")
	recs, err := trace.Collect(trace.Limit(tr, 2500))
	if err != nil {
		t.Fatal(err)
	}
	front := NewFront(follow[0], 1000)
	for start := 0; start < len(recs); start += 1000 {
		batch := recs[start:min(start+1000, len(recs))]
		front.Reset()
		for i := range batch {
			batch[i].PC |= batch[i].PC >> 2 & 1
			front.Push(batch[i].PC, batch[i].Taken)
		}
		for k, p := range follow {
			p.Follow(front)
			for i, b := range batch {
				want := *solo[k].Predict(b.PC)
				if got := *p.Predict(b.PC); got != want {
					t.Fatalf("predictor %d, branch %d: following %+v, alone %+v", k, start+i, got, want)
				}
				solo[k].Update(b.PC, b.Taken)
				p.Update(b.PC, b.Taken)
			}
		}
	}
	for k, p := range follow {
		p.Unfollow(front)
		if string(p.AppendState(nil)) != string(solo[k].AppendState(nil)) {
			t.Errorf("predictor %d: state after Unfollow differs from its solo run's", k)
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Follow of a 64K front by a 16K predictor", func() { follow[0].Follow(NewFront(New(Medium64K()), 1)) })
	front.Reset()
	front.Push(0x400000, true)
	follow[0].Follow(front)
	follow[0].Predict(0x400000)
	follow[0].Update(0x400000, true)
	mustPanic("Predict past the batch", func() { follow[0].Predict(0x400004) })
}
