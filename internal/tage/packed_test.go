package tage

import (
	"testing"
	"testing/quick"

	"repro/internal/bimodal"
	"repro/internal/counter"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestEntryFieldRoundTrip exhausts the packed-entry accessors over the
// full cross product of the extreme field widths Config.Validate admits:
// 16-bit tags, 6-bit two's-complement prediction counters (the widest
// CtrBits, saturating at -32 and 31) and 4-bit useful counters. Every
// combination must round-trip exactly, and every setter must leave the
// other two fields untouched.
func TestEntryFieldRoundTrip(t *testing.T) {
	tags := []uint16{0, 1, 0x5555, 0xAAAA, 1<<16 - 1}
	for _, tag := range tags {
		for ctr := int(counter.SignedMin(entryCtrBits)); ctr <= int(counter.SignedMax(entryCtrBits)); ctr++ {
			for u := 0; u < 1<<entryUBits; u++ {
				e := packEntry(tag, int8(ctr), uint8(u))
				if got := entryTag(e); got != tag {
					t.Fatalf("tag %#x ctr %d u %d: tag round-trip %#x", tag, ctr, u, got)
				}
				if got := entryCtr(e); got != int8(ctr) {
					t.Fatalf("tag %#x ctr %d u %d: ctr round-trip %d", tag, ctr, u, got)
				}
				if got := entryU(e); got != uint8(u) {
					t.Fatalf("tag %#x ctr %d u %d: u round-trip %d", tag, ctr, u, got)
				}

				// Setters must be surgical: replace one field, keep the rest.
				for c2 := int(counter.SignedMin(entryCtrBits)); c2 <= int(counter.SignedMax(entryCtrBits)); c2 += 9 {
					e2 := entrySetCtr(e, int8(c2))
					if entryCtr(e2) != int8(c2) || entryTag(e2) != tag || entryU(e2) != uint8(u) {
						t.Fatalf("entrySetCtr(%d) disturbed neighbors: %#x -> %#x", c2, e, e2)
					}
				}
				for u2 := 0; u2 < 1<<entryUBits; u2 += 3 {
					e2 := entrySetU(e, uint8(u2))
					if entryU(e2) != uint8(u2) || entryTag(e2) != tag || entryCtr(e2) != int8(ctr) {
						t.Fatalf("entrySetU(%d) disturbed neighbors: %#x -> %#x", u2, e, e2)
					}
				}

				// Aging is u >>= 1 and nothing else — in particular the top u
				// bit must not leak into ctr, nor ctr's top bit into u.
				aged := entryAgeU(e)
				if entryU(aged) != uint8(u)>>1 || entryTag(aged) != tag || entryCtr(aged) != int8(ctr) {
					t.Fatalf("entryAgeU broke fields: %#x -> %#x (tag %#x ctr %d u %d)", e, aged, tag, ctr, u)
				}
			}
		}
	}
}

// TestEntryCtrSaturationBothDirections drives the packed counter through
// the standard automaton at the maximum width: repeated taken updates
// must saturate at SignedMax(6)=31 and stay there, repeated not-taken at
// SignedMin(6)=-32, with every intermediate value surviving the
// pack/unpack round trip.
func TestEntryCtrSaturationBothDirections(t *testing.T) {
	const bits = entryCtrBits
	e := packEntry(0x1F2F, 0, 0xF)
	for i := 0; i < 100; i++ {
		e = entrySetCtr(e, counter.UpdateSigned(entryCtr(e), bits, true))
		if c := entryCtr(e); c > counter.SignedMax(bits) {
			t.Fatalf("ctr %d escaped positive saturation", c)
		}
	}
	if c := entryCtr(e); c != counter.SignedMax(bits) {
		t.Fatalf("ctr saturated at %d, want %d", c, counter.SignedMax(bits))
	}
	for i := 0; i < 100; i++ {
		e = entrySetCtr(e, counter.UpdateSigned(entryCtr(e), bits, false))
		if c := entryCtr(e); c < counter.SignedMin(bits) {
			t.Fatalf("ctr %d escaped negative saturation", c)
		}
	}
	if c := entryCtr(e); c != counter.SignedMin(bits) {
		t.Fatalf("ctr saturated at %d, want %d", c, counter.SignedMin(bits))
	}
	if entryTag(e) != 0x1F2F || entryU(e) != 0xF {
		t.Fatal("saturation walk disturbed tag/u fields")
	}
}

// TestEntryQuickRoundTrip property-checks the accessors over random
// field values (masked into range), complementing the exhaustive
// extreme-width walk above.
func TestEntryQuickRoundTrip(t *testing.T) {
	f := func(tag uint16, rawCtr int8, rawU uint8) bool {
		ctr := rawCtr % (counter.SignedMax(entryCtrBits) + 1)
		u := rawU & (1<<entryUBits - 1)
		e := packEntry(tag, ctr, u)
		return entryTag(e) == tag && entryCtr(e) == ctr && entryU(e) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// soaPredictor is the pre-packing reference implementation: the same
// TAGE algorithm over three structure-of-arrays slices (ctr/tag/u) and a
// byte-per-counter bimodal base. The differential tests drive it in
// lockstep with the packed Predictor; any divergence in any observation
// field on any branch is a packing bug.
type soaPredictor struct {
	cfg  Config
	base *bimodal.Predictor

	ctr []int8
	tag []uint16
	u   []uint8

	numTables int
	taggedLog uint
	rowMask   uint32
	tagMask   uint32

	histLens  []int
	pathSizes []uint

	folds []history.Folded

	ghist *history.Buffer
	phist *history.Path

	useAltOnNA int8

	auto counter.Automaton
	rng  *xrand.Rand

	tick uint64

	lastObs     Observation
	pos         []uint32
	tagc        []uint16
	hitBank     int
	altBank     int
	longestPred bool
	scratch     []int
}

func newSOA(cfg Config, auto counter.Automaton) *soaPredictor {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	maxHist := cfg.HistLengths[len(cfg.HistLengths)-1]
	m := len(cfg.HistLengths)
	rows := 1 << cfg.TaggedLog
	p := &soaPredictor{
		cfg:       cfg,
		base:      bimodal.New(cfg.BimodalLog),
		ctr:       make([]int8, m*rows),
		tag:       make([]uint16, m*rows),
		u:         make([]uint8, m*rows),
		numTables: m,
		taggedLog: cfg.TaggedLog,
		rowMask:   uint32(rows - 1),
		tagMask:   (uint32(1) << cfg.TagBits) - 1,
		histLens:  append([]int(nil), cfg.HistLengths...),
		pathSizes: make([]uint, m),
		folds:     make([]history.Folded, 3*m),
		ghist:     history.NewBuffer(maxHist + 2),
		phist:     history.NewPath(cfg.PathBits),
		auto:      auto,
		rng:       xrand.New(xrand.Mix64(cfg.Seed ^ 0x7A6E)),
		pos:       make([]uint32, m+1),
		tagc:      make([]uint16, m+1),
		scratch:   make([]int, 0, m),
	}
	tagBits := int(cfg.TagBits)
	for i := 0; i < m; i++ {
		hl := cfg.HistLengths[i]
		t2 := tagBits - 1
		if t2 < 1 {
			t2 = 1
		}
		ps := uint(hl)
		if ps > cfg.PathBits {
			ps = cfg.PathBits
		}
		p.pathSizes[i] = ps
		p.folds[3*i] = *history.NewFolded(hl, int(cfg.TaggedLog))
		p.folds[3*i+1] = *history.NewFolded(hl, tagBits)
		p.folds[3*i+2] = *history.NewFolded(hl, t2)
	}
	return p
}

func (p *soaPredictor) pathHash(bank int) uint32 {
	return refPathHash(p.phist.Value(), p.pathSizes[bank-1], uint(bank), p.taggedLog)
}

// refPathHash is the reference simulator's F(): the path-history hash of
// 1-based bank over the low size bits of path, in tables of 2^logg rows.
func refPathHash(path uint32, size, bank, logg uint) uint32 {
	a := path & ((1 << size) - 1)
	mask := uint32(1)<<logg - 1
	a1 := a & mask
	a2 := a >> logg
	sh := bank % logg
	a2 = ((a2 << sh) & mask) + (a2 >> (logg - sh))
	a = a1 ^ a2
	a = ((a << sh) & mask) + (a >> (logg - sh))
	return a & mask
}

// TestPathHashTableMatchesReference checks the tabulated path hash
// against refPathHash for every geometry Validate admits: TaggedLog
// 1..24 × PathBits 1..32, over TaggedLog+1 banks (every rotation
// amount, and one wrap), the first hashing a shorter history than the
// rest so one table mixes path widths. Each bank's value, the XOR of
// its entries in the rows of the path's bytes, must equal the reference
// for every path value of a register up to 16 bits wide, and for 4096
// seeded values of a wider one.
func TestPathHashTableMatchesReference(t *testing.T) {
	rng := xrand.New(0xF00D)
	for taggedLog := uint(1); taggedLog <= 24; taggedLog++ {
		for pathBits := uint(1); pathBits <= 32; pathBits++ {
			hist := make([]int, taggedLog+1)
			for i := range hist {
				hist[i] = int(pathBits) + i
			}
			hist[0] = max(1, int(pathBits)/2)
			cfg := Config{BimodalLog: 1, TaggedLog: taggedLog, TagBits: 2, HistLengths: hist, PathBits: pathBits}
			if cfg.Validate() != nil {
				continue
			}
			widths := make([]uint, len(hist))
			for i, hl := range hist {
				widths[i] = cfg.pathWidth(hl)
			}
			rows, nbytes := newPathTable(taggedLog, widths)
			m := len(widths)
			check := func(path uint32) {
				for i, w := range widths {
					var got uint32
					for k := range nbytes {
						got ^= rows[(k<<8|int(path>>(8*k)&255))*m+i]
					}
					if want := refPathHash(path, w, uint(i+1), taggedLog); got != want {
						t.Fatalf("TaggedLog %d PathBits %d bank %d (width %d), path %#x: table %#x, reference %#x",
							taggedLog, pathBits, i+1, w, path, got, want)
					}
				}
			}
			if pathBits <= 16 {
				for path := range uint32(1) << pathBits {
					check(path)
				}
				continue
			}
			for range 4096 {
				check(rng.Uint32() & (uint32(1)<<pathBits - 1))
			}
		}
	}
}

func (p *soaPredictor) tableIndex(pc uint64, bank int) uint32 {
	idx := uint32(pc>>2) ^ uint32(pc>>(2+p.taggedLog)) ^ p.folds[3*(bank-1)].Value() ^ p.pathHash(bank)
	return idx & p.rowMask
}

func (p *soaPredictor) tableTag(pc uint64, bank int) uint16 {
	fi := 3 * (bank - 1)
	tag := uint32(pc>>2) ^ p.folds[fi+1].Value() ^ (p.folds[fi+2].Value() << 1)
	return uint16(tag & p.tagMask)
}

func (p *soaPredictor) Predict(pc uint64) Observation {
	m := p.numTables
	logg := p.taggedLog
	p.hitBank, p.altBank = 0, 0
	for bank := 1; bank <= m; bank++ {
		p.pos[bank] = uint32(bank-1)<<logg | p.tableIndex(pc, bank)
		p.tagc[bank] = p.tableTag(pc, bank)
	}
	for bank := m; bank >= 1; bank-- {
		if p.tag[p.pos[bank]] == p.tagc[bank] {
			if p.hitBank == 0 {
				p.hitBank = bank
			} else {
				p.altBank = bank
				break
			}
		}
	}

	obs := Observation{
		PC:          pc,
		Provider:    ProviderBimodal,
		AltProvider: ProviderBimodal,
		BimCtr:      p.base.Counter(pc),
	}
	basePred := obs.BimCtr.Taken()

	if p.hitBank == 0 {
		obs.Pred = basePred
		obs.AltPred = basePred
		p.longestPred = basePred
		p.lastObs = obs
		return obs
	}

	providerPos := p.pos[p.hitBank]
	providerCtr := p.ctr[providerPos]
	p.longestPred = counter.TakenSigned(providerCtr)

	altPred := basePred
	if p.altBank > 0 {
		altCtr := p.ctr[p.pos[p.altBank]]
		altPred = counter.TakenSigned(altCtr)
		obs.AltProvider = p.altBank - 1
		obs.AltCtr = altCtr
	}

	obs.Provider = p.hitBank - 1
	obs.ProviderCtr = providerCtr
	obs.ProviderU = p.u[providerPos]
	obs.AltPred = altPred

	if p.cfg.DisableUseAltOnNA || p.useAltOnNA < 0 || !counter.WeakSigned(providerCtr) {
		obs.Pred = p.longestPred
	} else {
		obs.Pred = altPred
		obs.UsedAlt = obs.Pred != p.longestPred
	}

	p.lastObs = obs
	return obs
}

func (p *soaPredictor) Update(pc uint64, taken bool) {
	obs := p.lastObs
	m := p.numTables
	ctrBits := p.cfg.CtrBits

	if obs.Pred != taken && p.hitBank < m {
		p.allocate(taken)
	}

	if p.hitBank > 0 {
		providerPos := p.pos[p.hitBank]

		if counter.WeakSigned(p.ctr[providerPos]) && p.longestPred != obs.AltPred {
			if obs.AltPred == taken {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}

		if p.u[providerPos] == 0 {
			if p.altBank > 0 {
				altPos := p.pos[p.altBank]
				p.ctr[altPos] = p.auto.Update(p.ctr[altPos], ctrBits, taken)
			} else {
				p.base.Update(pc, taken)
			}
		}

		p.ctr[providerPos] = p.auto.Update(p.ctr[providerPos], ctrBits, taken)

		if p.longestPred != obs.AltPred {
			if p.longestPred == taken {
				p.u[providerPos] = counter.IncUnsigned(p.u[providerPos], p.cfg.UBits)
			} else {
				p.u[providerPos] = counter.DecUnsigned(p.u[providerPos])
			}
		}
	} else {
		p.base.Update(pc, taken)
	}

	p.tick++
	if p.tick&(p.cfg.UResetPeriod-1) == 0 {
		for j := range p.u {
			p.u[j] >>= 1
		}
	}

	p.ghist.Push(taken)
	p.phist.Push(pc)
	for i := range p.folds {
		p.folds[i].Update(p.ghist)
	}
}

func (p *soaPredictor) allocate(taken bool) {
	m := p.numTables
	p.scratch = p.scratch[:0]
	for bank := p.hitBank + 1; bank <= m; bank++ {
		if p.u[p.pos[bank]] == 0 {
			p.scratch = append(p.scratch, bank)
		}
	}
	if len(p.scratch) == 0 {
		for bank := p.hitBank + 1; bank <= m; bank++ {
			pos := p.pos[bank]
			p.u[pos] = counter.DecUnsigned(p.u[pos])
		}
		return
	}
	chosen := p.scratch[len(p.scratch)-1]
	for _, bank := range p.scratch[:len(p.scratch)-1] {
		if p.rng.OneIn(2) {
			chosen = bank
			break
		}
	}
	pos := p.pos[chosen]
	p.tag[pos] = p.tagc[chosen]
	p.u[pos] = 0
	if taken {
		p.ctr[pos] = 0
	} else {
		p.ctr[pos] = -1
	}
}

// diffConfigs are the differential-test configurations: the paper's
// standard sizes plus a widest-fields config exercising every bitfield
// at the maximum width Validate admits (16-bit tags, 6-bit counters,
// 4-bit u), with the widest path Validate admits for its TaggedLog, and
// a wide-path config whose longer banks hash 21 and 32 path bits, so
// Predict XORs in the path-byte rows past the first two.
func diffConfigs() []Config {
	wide := Config{
		Name:        "wide-fields",
		BimodalLog:  9,
		TaggedLog:   7,
		TagBits:     16,
		HistLengths: history.GeometricLengths(4, 64, 4),
		CtrBits:     6,
		UBits:       4,
		PathBits:    14,
		Seed:        0x11DE,
	}
	widePath := Config{
		Name:        "wide-path",
		BimodalLog:  10,
		TaggedLog:   16,
		TagBits:     12,
		HistLengths: history.GeometricLengths(4, 200, 6),
		PathBits:    32,
		Seed:        0x9A7B,
	}
	cfgs := append(StandardConfigs(), wide, widePath)
	for i := range cfgs {
		// A short aging period makes the graceful u reset fire thousands
		// of times within the differential run (the default 2^18 would
		// never trigger), so the packed aging transform is exercised too.
		cfgs[i].UResetPeriod = 1 << 12
	}
	return cfgs
}

// TestPackedMatchesSOADifferential drives the packed predictor and the
// structure-of-arrays reference in lockstep over a real workload trace
// and over a random branch stream, under both the standard and the
// probabilistic automaton, and requires every Observation field to match
// on every branch: the packed one-word layout must be bit-identical to
// the SoA layout it replaced.
func TestPackedMatchesSOADifferential(t *testing.T) {
	for _, cfg := range diffConfigs() {
		for _, mode := range []string{"standard", "probabilistic"} {
			var autoP, autoS counter.Automaton = counter.Standard{}, counter.Standard{}
			if mode == "probabilistic" {
				// Distinct automaton instances with identical seeds keep the
				// two predictors' random streams in lockstep.
				autoP = counter.NewProbabilistic(cfg.Seed, counter.DefaultDenomLog)
				autoS = counter.NewProbabilistic(cfg.Seed, counter.DefaultDenomLog)
			}
			packed := NewWithAutomaton(cfg, autoP)
			soa := newSOA(cfg, autoS)

			check := func(pc uint64, taken bool, src string, i int) {
				po := packed.Predict(pc)
				so := soa.Predict(pc)
				if *po != so {
					t.Fatalf("%s/%s/%s branch %d: packed %+v != soa %+v", cfg.Name, mode, src, i, *po, so)
				}
				packed.Update(pc, taken)
				soa.Update(pc, taken)
			}

			tr, err := workload.ByName("INT-3")
			if err != nil {
				t.Fatal(err)
			}
			// The trace twice: as recorded, then with bit 0 of each PC
			// set from its bit 2. The workload traces' PCs are all even,
			// so the first pass holds the path history at 0; the second
			// gives it live values that recur with the program's
			// control flow, so long-history banks hit through the
			// tabulated path hash.
			for pass, src := range []string{"INT-3", "INT-3/odd"} {
				r := trace.Limit(tr, 30_000).Open()
				i := 0
				for {
					b, err := r.Next()
					if err != nil {
						break
					}
					pc := b.PC
					if pass == 1 {
						pc |= pc >> 2 & 1
					}
					check(pc, b.Taken, src, i)
					i++
				}
			}

			// Random stream over a small PC set: heavy aliasing and
			// allocation pressure, the regime where a field-packing bug
			// (e.g. u leaking into ctr during aging) would surface. The
			// PCs are byte addresses, odd ones included, so the path
			// history (bit 0 of each PC) takes random values here.
			rng := xrand.New(cfg.Seed ^ 0xD1FF)
			pcs := make([]uint64, 24)
			for j := range pcs {
				pcs[j] = 0x400000 + uint64(rng.Intn(1<<14))
			}
			for j := 0; j < 20_000; j++ {
				check(pcs[rng.Intn(len(pcs))], rng.Bool(), "random", j)
			}

			if packed.UseAltOnNA() != soa.useAltOnNA {
				t.Fatalf("%s/%s: USE_ALT_ON_NA diverged: %d vs %d", cfg.Name, mode, packed.UseAltOnNA(), soa.useAltOnNA)
			}
		}
	}
}

// TestFoldWordMatchesFolded checks the packed fold word against three
// history.Folded registers, the reference definition, for every fold
// geometry Validate admits: TaggedLog 1..24 × TagBits 2..16, each at
// window lengths 1, c-1, c, 2c+1 (c each field's width) and 300. The
// word is advanced by the history front-end's own push, through
// Predictor.Update: a one-table predictor small enough to allocate for
// every case gets the layout under test installed over its own, which
// only its history advance and its hash use, and each update must leave
// the three fields equal to the reference folds and every spare bit
// clear. The advance's carry gather must index foldWrap exactly for all
// eight spare patterns. The snapshot packing must rebuild the word from
// its fields with each one masked to its width.
func TestFoldWordMatchesFolded(t *testing.T) {
	for taggedLog := uint(1); taggedLog <= 24; taggedLog++ {
		for tagBits := uint(2); tagBits <= 16; tagBits++ {
			lay := newFoldLayout(taggedLog, tagBits)
			for pat := range 8 {
				var sp uint64
				for k, s := range []uint{lay.c0, foldO1 + lay.c1, foldO2 + lay.c2} {
					if pat>>(2-k)&1 == 1 {
						sp |= 1 << s
					}
				}
				if sp&^lay.spares != 0 || sp*lay.gather>>61 != uint64(pat) {
					t.Fatalf("TaggedLog %d TagBits %d: spares %#x gather to %d, want %d", taggedLog, tagBits, sp, sp*lay.gather>>61, pat)
				}
			}
			lengths := map[int]bool{1: true, 300: true}
			for _, c := range []int{int(lay.c0), int(lay.c1), int(lay.c2)} {
				lengths[c] = true
				lengths[2*c+1] = true
				if c > 1 {
					lengths[c-1] = true
				}
			}
			for hl := range lengths {
				p := New(Config{BimodalLog: 4, TaggedLog: 4, TagBits: 8, HistLengths: []int{hl}, PathBits: 8, Seed: 1})
				p.fe.fold = lay
				p.fe.folds[0].out = lay.out(hl)
				buf := history.NewBuffer(hl + 2)
				ref := []history.Folded{
					*history.NewFolded(hl, int(taggedLog)),
					*history.NewFolded(hl, int(tagBits)),
					*history.NewFolded(hl, int(tagBits-1)),
				}
				rng := xrand.New(uint64(hl)<<16 | uint64(taggedLog)<<8 | uint64(tagBits))
				for i := 0; i < hl+200; i++ {
					pc, taken := 0x400000+uint64(rng.Intn(64))*4, rng.Bool()
					p.Predict(pc)
					p.Update(pc, taken)
					buf.Push(taken)
					for j := range ref {
						ref[j].Update(buf)
					}
					w := p.fe.folds[0].w
					idx, tag, tag2 := lay.fields(w)
					if w&^lay.keep != 0 || idx != uint64(ref[0].Value()) || tag != uint64(ref[1].Value()) || tag2 != uint64(ref[2].Value()) {
						t.Fatalf("TaggedLog %d TagBits %d L %d, update %d: word %#x = (%#x, %#x, %#x), spare %#x; want (%#x, %#x, %#x)",
							taggedLog, tagBits, hl, i, w, idx, tag, tag2, w&^lay.keep, ref[0].Value(), ref[1].Value(), ref[2].Value())
					}
					// Restore packs three decoded values: bits above a
					// field's width must drop, not spill into the next.
					high := ^uint64(0)
					if got := lay.pack(idx|high<<lay.c0, tag|high<<lay.c1, tag2|high<<lay.c2); got != w {
						t.Fatalf("TaggedLog %d TagBits %d L %d: pack of widened fields = %#x, want %#x", taggedLog, tagBits, hl, got, w)
					}
				}
			}
		}
	}
}
