// Package tage implements the TAGE conditional branch predictor (Seznec &
// Michaud, JILP 2006): a bimodal base predictor backed by several partially
// tagged tables indexed with geometrically increasing global-history
// lengths.
//
// The implementation follows the reference simulator's structure: folded
// (cyclic-shift-register) history compressions for index and tag
// computation, a path-history hash, per-entry signed prediction counters
// and useful counters, the USE_ALT_ON_NA newly-allocated-entry heuristic,
// misprediction-driven allocation preferring shorter histories, and
// periodic graceful aging of the useful counters.
//
// Everything the paper's storage-free confidence estimator needs to observe
// — which component provided the prediction and the value of its prediction
// counter — is exposed through the Observation returned by Predict.
package tage

import (
	"fmt"

	"repro/internal/bimodal"
	"repro/internal/counter"
	"repro/internal/history"
	"repro/internal/xrand"
)

// ProviderBimodal is the Observation.Provider value meaning the base
// bimodal component provided the prediction.
const ProviderBimodal = -1

// Observation captures everything visible at the outputs of the predictor
// components for one prediction — the raw material of the paper's
// storage-free confidence estimation.
type Observation struct {
	// PC is the branch the observation belongs to.
	PC uint64
	// Pred is the final prediction.
	Pred bool
	// AltPred is the prediction that would have been made had the provider
	// component missed (the next hitting component, or the base predictor).
	AltPred bool
	// Provider is the tagged table index (0-based, longer history = larger
	// index) or ProviderBimodal.
	Provider int
	// ProviderCtr is the provider's signed prediction counter (tagged
	// provider only).
	ProviderCtr int8
	// ProviderU is the provider's useful counter (tagged provider only).
	ProviderU uint8
	// BimCtr is the base bimodal counter for this branch (always valid).
	BimCtr counter.Bimodal
	// UsedAlt reports that the final prediction came from the alternate
	// prediction under the USE_ALT_ON_NA heuristic.
	UsedAlt bool
	// AltProvider is the table index of the alternate provider, or
	// ProviderBimodal.
	AltProvider int
	// AltCtr is the alternate provider's counter (tagged alternate only).
	AltCtr int8
}

// Tagged reports whether the prediction was provided by a tagged component.
//repro:hotpath
func (o Observation) Tagged() bool { return o.Provider != ProviderBimodal }

// Strength returns |2·ctr+1| of the provider counter for tagged providers,
// the paper's tagged-class discriminator; it returns 0 for bimodal
// providers.
//repro:hotpath
func (o Observation) Strength() int {
	if !o.Tagged() {
		return 0
	}
	return counter.Strength(o.ProviderCtr)
}

// Predictor is a TAGE predictor instance. It is not safe for concurrent
// use; simulate one stream per Predictor.
//
// All predictor state lives in one backing arena: the packed bimodal
// base table followed by the tagged tables, one uint32 word per tagged
// entry (tag, ctr and u bitfields — see entry.go). A tagged-bank probe
// is one load, and the whole predictor is one allocation. All
// per-prediction scratch is preallocated, so the Predict+Update hot path
// performs no heap allocations.
type Predictor struct {
	cfg  Config          //repro:derived construction input, immutable
	base *bimodal.Packed //repro:derived view aliasing the head of arena, rebuilt on restore

	// arena is the single backing allocation: bimodal words first, then
	// the tagged-entry words aliased by entries.
	arena []uint32

	// entries is the flattened packed tagged-table storage. Entry row r
	// of table t (0-based) lives at index t<<taggedLog | r.
	entries []uint32 //repro:derived view aliasing the tail of arena, rebuilt on restore

	numTables int    //repro:derived geometry fixed by cfg
	taggedLog uint   //repro:derived geometry fixed by cfg
	rowMask   uint32 //repro:derived geometry fixed by cfg
	tagMask   uint32 //repro:derived geometry fixed by cfg

	histLens []int //repro:derived geometric history lengths fixed by cfg

	// folds holds each table's folded-history registers, history length
	// and path-hash parameters in one struct: the per-branch history
	// advance walks one contiguous slice, and a probe reads everything
	// its bank hashes from adjacent words.
	folds []tableFolds

	ghist *history.Buffer
	phist *history.Path

	useAltOnNA int8 // 4-bit signed: >= 0 favors altpred on weak new entries

	auto counter.Automaton //repro:derived fixed at construction; the rng it draws from is encoded
	rng  *xrand.Rand

	tick uint64

	// Per-prediction scratch captured by Predict for the paired Update;
	// havePred is cleared on restore, invalidating all of it.
	lastObs      Observation //repro:derived per-prediction scratch
	havePred     bool
	pos          []uint32 //repro:derived per-prediction scratch
	tagc         []uint16 //repro:derived per-prediction scratch
	hitBank      int      //repro:derived per-prediction scratch
	altBank      int      //repro:derived per-prediction scratch
	longestPred  bool     //repro:derived per-prediction scratch
	allocScratch []int    //repro:derived per-prediction scratch
}

// tableFolds is one tagged table's folded-history state: the index
// compression, the two tag compressions, and the history length whose
// oldest bit leaves the fold window on each update. It also carries the
// table's precomputed path-hash parameters — the path-history mask
// ((1 << min(histLen, PathBits)) - 1) and the rotation amount
// (bank % taggedLog, 1-based bank) — so the per-probe hash is pure
// shift/mask work with no integer division.
type tableFolds struct {
	idx      history.Folded
	tag      history.Folded
	tag2     history.Folded
	histLen  int
	pathMask uint32
	pathSh   uint32
}

// New builds a predictor with the standard saturating-counter automaton.
func New(cfg Config) *Predictor {
	return NewWithAutomaton(cfg, counter.Standard{})
}

// NewWithAutomaton builds a predictor whose tagged prediction counters are
// driven by the given update automaton — counter.Standard{} for the
// unmodified TAGE, or a *counter.Probabilistic for the paper's §6
// modification.
func NewWithAutomaton(cfg Config, auto counter.Automaton) *Predictor {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	maxHist := cfg.HistLengths[len(cfg.HistLengths)-1]
	m := len(cfg.HistLengths)
	rows := 1 << cfg.TaggedLog
	// One arena holds the whole predictor: the packed bimodal base table
	// in the leading words, the tagged tables in the rest.
	bimWords := bimodal.PackedWords(cfg.BimodalLog)
	arena := make([]uint32, bimWords+m*rows)
	p := &Predictor{
		cfg:       cfg,
		base:      bimodal.NewPackedIn(arena[:bimWords:bimWords], cfg.BimodalLog),
		arena:     arena,
		entries:   arena[bimWords:],
		numTables: m,
		taggedLog: cfg.TaggedLog,
		rowMask:   uint32(rows - 1),
		tagMask:   (uint32(1) << cfg.TagBits) - 1,
		histLens:  append([]int(nil), cfg.HistLengths...),
		folds:     make([]tableFolds, m),
		ghist:     history.NewBuffer(maxHist + 2),
		phist:     history.NewPath(cfg.PathBits),
		auto:      auto,
		rng:       xrand.New(xrand.Mix64(cfg.Seed ^ 0x7A6E)),
		pos:       make([]uint32, m+1),
		tagc:      make([]uint16, m+1),

		allocScratch: make([]int, 0, m),
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
		p.folds[i] = tableFolds{
			idx:      history.MakeFolded(hl, int(cfg.TaggedLog)),
			tag:      history.MakeFolded(hl, tagBits),
			tag2:     history.MakeFolded(hl, t2),
			histLen:  hl,
			pathMask: uint32(1)<<ps - 1,
			pathSh:   uint32(uint(i+1) % cfg.TaggedLog),
		}
	}
	return p
}

// Config returns the (normalized) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Automaton returns the installed tagged-counter update automaton.
func (p *Predictor) Automaton() counter.Automaton { return p.auto }

// Predict computes the prediction for pc and returns the component
// observation. Each Predict must be followed by exactly one Update for the
// same pc before predicting the next branch.
//repro:hotpath
func (p *Predictor) Predict(pc uint64) Observation {
	logg := p.taggedLog
	rowMask, tagMask := p.rowMask, p.tagMask
	// Scratch as locals behind geometry guards: with
	// len(pos) == len(tagc) == len(folds)+1 established, the per-bank
	// loops below index the scratch and fold slices check-free. Bank b
	// (1-based) hashes into pos[b] and tagc[b]; the hash loop writes
	// through views starting at bank 1 because the compiler cannot carry
	// a +1 offset from a length relation to an index.
	pos, tagc, folds := p.pos, p.tagc, p.folds
	if len(pos) == 0 || len(tagc) != len(pos) {
		panic("tage: prediction scratch out of sync with geometry")
	}
	bankPos, bankTag := pos[1:], tagc[1:]
	if len(bankPos) != len(folds) || len(bankTag) != len(folds) {
		panic("tage: prediction scratch out of sync with geometry")
	}
	entries := p.entries
	hitBank, altBank := 0, 0
	// The per-branch hash inputs are the same for every bank.
	pcTag := uint32(pc >> 2)
	pcIdx := pcTag ^ uint32(pc>>((2+logg)&63))
	path := p.phist.Value()
	// One pass computes each bank's absolute flat-storage position and
	// partial tag from the bank's folded-history registers. The index
	// mixes in the F() path-history hash of the reference TAGE
	// simulator: two rotations by the bank's precomputed amount sh
	// within taggedLog bits. Validate bounds taggedLog by 24, so every
	// shift count here is below 32 and the & 31 / & 63 masks are no-ops
	// that drop the compiler's oversized-shift guards.
	for i := range folds {
		f := &folds[i]
		sh := uint(f.pathSh) & 31
		rsh := (logg - uint(f.pathSh)) & 31
		a := path & f.pathMask
		a2 := a >> (logg & 31)
		a2 = ((a2 << sh) & rowMask) + (a2 >> rsh)
		a = (a & rowMask) ^ a2
		a = ((a << sh) & rowMask) + (a >> rsh)
		idx := pcIdx ^ f.idx.Value() ^ a
		bankPos[i] = uint32(i)<<(logg&31) | idx&rowMask
		bankTag[i] = uint16((pcTag ^ f.tag.Value() ^ f.tag2.Value()<<1) & tagMask)
	}
	for bank := len(pos) - 1; bank >= 1; bank-- {
		if entryTag(entries[pos[bank]]) == tagc[bank] { //repro:allow-bce pos[bank] = (bank-1)<<taggedLog | (row & rowMask) < numTables<<taggedLog = len(entries) by arena construction
			if hitBank == 0 {
				hitBank = bank
			} else {
				altBank = bank
				break
			}
		}
	}
	p.hitBank, p.altBank = hitBank, altBank

	obs := Observation{
		PC:          pc,
		Provider:    ProviderBimodal,
		AltProvider: ProviderBimodal,
		BimCtr:      p.base.Counter(pc), //repro:allow-bce inlined bimodal read: slot/packedPerWord < len(words) by NewPackedIn's length check
	}
	basePred := obs.BimCtr.Taken()

	if hitBank == 0 {
		obs.Pred = basePred
		obs.AltPred = basePred
		p.longestPred = basePred
		p.lastObs = obs
		p.havePred = true
		return obs
	}

	// The provider's word was just loaded by the tag-match loop; ctr and
	// u come out of the same word with no further memory traffic.
	providerEntry := entries[pos[hitBank]] //repro:allow-bce pos[hitBank] is an arena position < len(entries) by construction (see the tag-match loop)
	providerCtr := entryCtr(providerEntry)
	p.longestPred = counter.TakenSigned(providerCtr)

	altPred := basePred
	if altBank > 0 {
		altCtr := entryCtr(entries[pos[altBank]]) //repro:allow-bce pos[altBank] is an arena position < len(entries) by construction
		altPred = counter.TakenSigned(altCtr)
		obs.AltProvider = altBank - 1
		obs.AltCtr = altCtr
	}

	obs.Provider = hitBank - 1
	obs.ProviderCtr = providerCtr
	obs.ProviderU = entryU(providerEntry)
	obs.AltPred = altPred

	// Prediction selection (paper §3.1): use the provider counter unless it
	// is weak and USE_ALT_ON_NA is non-negative.
	if p.cfg.DisableUseAltOnNA || p.useAltOnNA < 0 || !counter.WeakSigned(providerCtr) {
		obs.Pred = p.longestPred
	} else {
		obs.Pred = altPred
		obs.UsedAlt = obs.Pred != p.longestPred
	}

	p.lastObs = obs
	p.havePred = true
	return obs
}

// Update resolves the branch predicted by the immediately preceding
// Predict call, training tables, allocating entries on mispredictions, and
// advancing the global/path histories.
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	if !p.havePred || p.lastObs.PC != pc {
		panic(fmt.Sprintf("tage: Update(%#x) without matching Predict (last %#x)", pc, p.lastObs.PC)) //repro:allow-alloc guard path: protocol violation aborts the run, allocation cost is irrelevant
	}
	p.havePred = false
	obs := p.lastObs
	m := p.numTables
	ctrBits := p.cfg.CtrBits
	hitBank, altBank := p.hitBank, p.altBank
	entries := p.entries

	// Allocation on misprediction when a longer-history table exists.
	if obs.Pred != taken && hitBank < m {
		p.allocate(taken)
	}

	if hitBank > 0 {
		// uint compares: one cold guard lifts the scratch-index bounds
		// checks off the provider/alternate updates below.
		pos := p.pos
		if uint(hitBank) >= uint(len(pos)) || uint(altBank) >= uint(len(pos)) {
			panic("tage: prediction scratch out of sync with geometry")
		}
		// The provider's ctr and u updates below are a read-modify-write
		// of one entry word: load once, rewrite fields, store once.
		providerPos := pos[hitBank]
		e := entries[providerPos] //repro:allow-bce providerPos = (hitBank-1)<<taggedLog | (row & rowMask) < len(entries) by arena construction
		ctr := entryCtr(e)

		// USE_ALT_ON_NA monitors whether the alternate prediction beats a
		// weak ("newly allocated") provider.
		if counter.WeakSigned(ctr) && p.longestPred != obs.AltPred {
			if obs.AltPred == taken {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}

		// When the provider entry is not yet established (u == 0), also
		// train the alternate prediction source.
		if entryU(e) == 0 {
			if altBank > 0 {
				altPos := pos[altBank]
				ae := entries[altPos] //repro:allow-bce altPos is an arena position < len(entries) by construction
				entries[altPos] = entrySetCtr(ae, p.auto.Update(entryCtr(ae), ctrBits, taken))
			} else {
				p.base.Update(pc, taken)
			}
		}

		e = entrySetCtr(e, p.auto.Update(ctr, ctrBits, taken))

		// Useful counter: credit the provider when it disagreed with the
		// alternate prediction and was right; debit when wrong.
		if p.longestPred != obs.AltPred {
			if p.longestPred == taken {
				e = entrySetU(e, counter.IncUnsigned(entryU(e), p.cfg.UBits))
			} else {
				e = entrySetU(e, counter.DecUnsigned(entryU(e)))
			}
		}
		entries[providerPos] = e
	} else {
		p.base.Update(pc, taken)
	}

	// Graceful aging of useful counters: a one-bit right shift of every u
	// every UResetPeriod updates — one pass over the flat entry array.
	p.tick++
	if p.tick&(p.cfg.UResetPeriod-1) == 0 {
		for j := range entries {
			entries[j] = entryAgeU(entries[j])
		}
	}

	// Advance histories: push the outcome and path bits, then run every
	// folded-history register in one pass over the contiguous fold slice.
	// The three folds of a table share one history window, so the boundary
	// bits are loaded once per table and fed from registers (the newest
	// bit is the outcome just pushed).
	p.ghist.Push(taken) //repro:allow-bce inlined circular-buffer write: head & mask < len(bits) by NewBuffer's power-of-two sizing
	p.phist.Push(pc)
	var newest uint8
	if taken {
		newest = 1
	}
	folds := p.folds
	for t := range folds {
		f := &folds[t]
		leaving := p.ghist.Bit(f.histLen) //repro:allow-bce inlined circular-buffer read: (head+i) & mask < len(bits) by NewBuffer's power-of-two sizing
		f.idx.UpdateBits(newest, leaving)
		f.tag.UpdateBits(newest, leaving)
		f.tag2.UpdateBits(newest, leaving)
	}
}

// allocate installs at most one new entry in a table with a longer history
// than the provider, choosing among entries with u == 0 with a geometric
// preference for shorter histories (each candidate is taken with
// probability 1/2 before considering the next, the reference design's 2:1
// skew); if every candidate is useful, their u counters are decremented
// instead (the anti-ping-pong rule of the TAGE paper).
//repro:hotpath
func (p *Predictor) allocate(taken bool) {
	m := p.numTables
	// Same geometry guard as Predict: with len(pos) == len(tagc) == m+1
	// established and hitBank ranged, the candidate loops below index
	// the scratch slices check-free.
	pos, tagc, entries := p.pos, p.tagc, p.entries
	if len(pos) != m+1 || len(tagc) != m+1 {
		panic("tage: prediction scratch out of sync with geometry")
	}
	hitBank := p.hitBank
	if uint(hitBank) >= uint(len(pos)) {
		panic("tage: stale provider bank")
	}
	scratch := p.allocScratch[:0]
	for bank := hitBank + 1; bank < len(pos); bank++ {
		if entryU(entries[pos[bank]]) == 0 { //repro:allow-bce pos[bank] is an arena position < len(entries) by construction
			scratch = append(scratch, bank)
		}
	}
	p.allocScratch = scratch
	if len(scratch) == 0 {
		for bank := hitBank + 1; bank < len(pos); bank++ {
			pp := pos[bank]
			e := entries[pp] //repro:allow-bce pos[bank] is an arena position < len(entries) by construction
			entries[pp] = entrySetU(e, counter.DecUnsigned(entryU(e)))
		}
		return
	}
	chosen := scratch[len(scratch)-1]
	for _, bank := range scratch[:len(scratch)-1] {
		if p.rng.OneIn(2) {
			chosen = bank
			break
		}
	}
	var ctr int8
	if !taken {
		ctr = -1
	}
	if uint(chosen) >= uint(len(pos)) {
		panic("tage: allocation candidate out of range")
	}
	entries[pos[chosen]] = packEntry(tagc[chosen], ctr, 0) //repro:allow-bce pos[chosen] is an arena position < len(entries) by construction
}

// UseAltOnNA returns the current USE_ALT_ON_NA counter value (for tests
// and diagnostics).
//repro:hotpath
func (p *Predictor) UseAltOnNA() int8 { return p.useAltOnNA }

// TaggedEntries returns the number of entries in each tagged table.
func (p *Predictor) TaggedEntries() int { return 1 << p.cfg.TaggedLog }

// TableStats is per-tagged-table occupancy introspection.
type TableStats struct {
	// HistLen is the table's history length.
	HistLen int
	// LiveEntries counts entries with a non-weak prediction counter
	// (established state).
	LiveEntries int
	// UsefulEntries counts entries with u > 0 (protected from allocation).
	UsefulEntries int
	// SaturatedEntries counts entries with a saturated counter.
	SaturatedEntries int
}

// Stats returns a per-table occupancy snapshot — observability for
// capacity analysis (which tables hold established state, how much of it
// is protected, how much has saturated).
func (p *Predictor) Stats() []TableStats {
	out := make([]TableStats, p.numTables)
	rows := 1 << p.taggedLog
	for i := 0; i < p.numTables; i++ {
		s := TableStats{HistLen: p.histLens[i]}
		lo := i * rows
		for j := lo; j < lo+rows; j++ {
			e := p.entries[j]
			ctr := entryCtr(e)
			if !counter.WeakSigned(ctr) {
				s.LiveEntries++
			}
			if entryU(e) > 0 {
				s.UsefulEntries++
			}
			if counter.SaturatedSigned(ctr, p.cfg.CtrBits) {
				s.SaturatedEntries++
			}
		}
		out[i] = s
	}
	return out
}
