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
// periodic graceful aging of the useful counters. The path-history hash
// is the reference F() in table form: Config.Validate admits only
// geometries where F is linear over GF(2), so each bank's hash is the
// XOR of one precomputed value per path byte.
//
// The history front-end (front.go) is split from the tables: the global
// and path histories, each table's three folds packed in one word, and
// the history half of every bank's index and tag, which Predict combines
// with the branch's pc. It depends only on the branch stream, so
// predictors of one geometry (TaggedLog, TagBits, HistLengths, PathBits)
// fed the same branches can share one: a Front advances once per branch
// and every predictor following it reads its recorded rows. A lone
// Predictor advances its own front-end in Update.
//
// Everything the paper's storage-free confidence estimator needs to observe
// — which component provided the prediction and the value of its prediction
// counter — is exposed through the Observation that Predict returns. The
// predictor writes it once per prediction and hands out a pointer to it.
package tage

import (
	"repro/internal/bimodal"
	"repro/internal/counter"
	"repro/internal/xrand"
)

// ProviderBimodal is the Observation.Provider value meaning the base
// bimodal component provided the prediction.
const ProviderBimodal = -1

// Observation captures everything visible at the outputs of the predictor
// components for one prediction — the raw material of the paper's
// storage-free confidence estimation.
//
// The predictor keeps one Observation: Predict overwrites it and
// returns a pointer to it, which stays valid, and unchanged, until the
// next Predict or RestoreState. Copy it to keep it longer.
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
//
//repro:hotpath
func (o Observation) Tagged() bool { return o.Provider != ProviderBimodal }

// Strength returns |2·ctr+1| of the provider counter for tagged providers,
// the paper's tagged-class discriminator; it returns 0 for bimodal
// providers.
//
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
	cfg  Config          // construction input, immutable
	base *bimodal.Packed // view aliasing the head of arena, rebuilt on restore

	// arena is the single backing allocation: bimodal words first, then
	// the tagged-entry words aliased by entries.
	arena []uint32

	// entries is the flattened packed tagged-table storage. Entry row r
	// of table t (0-based) lives at index t<<taggedLog | r.
	entries []uint32 // view aliasing the tail of arena, rebuilt on restore

	numTables int    // geometry fixed by cfg
	taggedLog uint   // geometry fixed by cfg
	rowMask   uint32 // geometry fixed by cfg
	tagMask   uint32 // geometry fixed by cfg

	histLens []int // geometric history lengths fixed by cfg

	// fe is the predictor's own history front-end, and rows the hash rows
	// Predict reads: fe.row, or while following a Front the rest of its
	// batch (see Follow).
	fe        front
	rows      []uint64
	following bool

	useAltOnNA int8 // 4-bit signed: >= 0 favors altpred on weak new entries

	auto counter.Automaton // fixed at construction; the rng it draws from is encoded
	rng  *xrand.Rand

	tick uint64

	// Per-prediction scratch captured by Predict for the paired Update;
	// havePred is cleared on restore, invalidating all of it. lastObs is
	// the one Observation, written once per Predict.
	lastObs      Observation // per-prediction scratch
	havePred     bool
	pos          []uint32 // per-prediction scratch
	tagc         []uint16 // per-prediction scratch
	hitBank      int      // per-prediction scratch
	altBank      int      // per-prediction scratch
	longestPred  bool     // per-prediction scratch
	allocScratch []int    // per-prediction scratch
}

// pathF is F, the path-history hash of the reference TAGE simulator, for
// 1-based bank in tables of 2^taggedLog rows: the low width bits of path,
// split at bit taggedLog, with the high part rotated by bank % taggedLog
// within taggedLog bits, xored onto the low part, and the result rotated
// again. Each rotation adds two shifted parts; while width <= 2·taggedLog
// the parts occupy disjoint bits, the additions are XORs, and F is linear
// over GF(2), which is what lets newPathTable tabulate it.
func pathF(path uint32, width, bank, taggedLog uint) uint32 {
	mask := uint32(1)<<taggedLog - 1
	sh := bank % taggedLog
	a := path & (uint32(1)<<width - 1)
	a2 := a >> taggedLog
	a2 = ((a2 << sh) & mask) + (a2 >> (taggedLog - sh))
	a = (a & mask) ^ a2
	return ((a << sh) & mask) + (a >> (taggedLog - sh))
}

// newPathTable tabulates pathF for tables whose path widths are given,
// one per bank, shortest history first. F is linear under the bound
// Config.Validate enforces, so a bank's hash of a path value is the XOR
// of its hashes of the value's bytes taken one at a time: the returned
// rows hold, for each path byte k and byte value v, every bank's F of
// v<<8k, row (k, v) at (k<<8|v)*len(widths). There are at least two
// byte tables, enough for the widest bank.
func newPathTable(taggedLog uint, widths []uint) (rows []uint32, nbytes int) {
	m := len(widths)
	nbytes = 2
	for _, w := range widths {
		nbytes = max(nbytes, int(w+7)/8)
	}
	rows = make([]uint32, (nbytes<<8)*m)
	for k := range nbytes {
		for v := range 256 {
			row := rows[(k<<8|v)*m:][:m]
			for i, w := range widths {
				row[i] = pathF(uint32(v)<<(8*k), w, uint(i+1), taggedLog)
			}
		}
	}
	return rows, nbytes
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
		fe:        newFront(cfg),
		auto:      auto,
		rng:       xrand.New(xrand.Mix64(cfg.Seed ^ 0x7A6E)),
		pos:       make([]uint32, m+1),
		tagc:      make([]uint16, m+1),

		allocScratch: make([]int, 0, m),
	}
	p.rows = p.fe.row
	return p
}

// Config returns the (normalized) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Automaton returns the installed tagged-counter update automaton.
func (p *Predictor) Automaton() counter.Automaton { return p.auto }

// Predict computes the prediction for pc and returns the component
// observation: a pointer to the predictor's one Observation, valid until
// the next Predict or RestoreState. Each Predict must be followed by
// exactly one Update for the same pc before predicting the next branch.
//
//repro:hotpath
func (p *Predictor) Predict(pc uint64) *Observation {
	logg := p.taggedLog
	rowMask, tagMask := p.rowMask, p.tagMask
	// Scratch as locals behind geometry guards: with
	// len(pos) == len(tagc) == numTables+1 established, the per-bank
	// loops below index the scratch and the hash row check-free. Bank b
	// (1-based) hashes into pos[b] and tagc[b]; the hash loop writes
	// through views starting at bank 1 because the compiler cannot carry
	// a +1 offset from a length relation to an index.
	pos, tagc := p.pos, p.tagc
	if len(pos) == 0 || len(tagc) != len(pos) {
		panic("tage: prediction scratch out of sync with geometry")
	}
	bankPos, bankTag := pos[1:], tagc[1:]
	// The history half of every bank's index and tag, from the front-end
	// (see front.row); a following predictor at the end of its batch
	// panics here.
	row := p.rows[:len(bankPos)] //repro:allow-bce the one check a follower past its batch must fail; numTables <= len(rows) otherwise
	if len(bankTag) != len(row) {
		panic("tage: prediction scratch out of sync with geometry")
	}
	entries := p.entries
	hitBank, altBank := 0, 0
	// The pc half is the same for every bank. Validate bounds TaggedLog
	// by 24, so the & 63 is a no-op that drops the compiler's
	// oversized-shift guard.
	pcTag := uint32(pc >> 2)
	pcIdx := (pcTag ^ uint32(pc>>((2+logg)&63))) & rowMask
	pcTag &= tagMask
	// Probe from the longest history down, hashing each bank as it is
	// reached; the probe stops at the alternate, so banks below it are
	// neither hashed nor recorded. Update and allocate read only the
	// banks from the longest down to the alternate.
	for i := len(row) - 1; i >= 0; i-- {
		r := row[i]
		ps, tg := uint32(r)^pcIdx, uint16(r>>32)^uint16(pcTag)
		bankPos[i], bankTag[i] = ps, tg
		if entryTag(entries[ps]) == tg { //repro:allow-bce ps = i<<taggedLog | (row & rowMask) < numTables<<taggedLog = len(entries) by arena construction
			bank := i + 1
			if hitBank == 0 {
				hitBank = bank
			} else {
				altBank = bank
				break
			}
		}
	}
	p.hitBank, p.altBank = hitBank, altBank

	// The one Observation is written field by field, straight from
	// registers: a composite literal would be built on the stack and
	// copied.
	o := &p.lastObs
	bimCtr := p.base.Counter(pc) //repro:allow-bce inlined bimodal read: slot/packedPerWord < len(words) by NewPackedIn's length check
	basePred := bimCtr.Taken()
	o.PC, o.BimCtr = pc, bimCtr
	p.havePred = true

	if hitBank == 0 {
		p.longestPred = basePred
		o.Pred, o.AltPred, o.UsedAlt = basePred, basePred, false
		o.Provider, o.ProviderCtr, o.ProviderU = ProviderBimodal, 0, 0
		o.AltProvider, o.AltCtr = ProviderBimodal, 0
		return o
	}

	// The provider's word was just loaded by the tag-match loop; ctr and
	// u come out of the same word with no further memory traffic.
	providerEntry := entries[pos[hitBank]] //repro:allow-bce pos[hitBank] is an arena position < len(entries) by construction (see the tag-match loop)
	providerCtr := entryCtr(providerEntry)
	longestPred := counter.TakenSigned(providerCtr)
	p.longestPred = longestPred

	altPred, altProvider, altCtr := basePred, ProviderBimodal, int8(0)
	if altBank > 0 {
		altCtr = entryCtr(entries[pos[altBank]]) //repro:allow-bce pos[altBank] is an arena position < len(entries) by construction
		altPred = counter.TakenSigned(altCtr)
		altProvider = altBank - 1
	}

	// Prediction selection (paper §3.1): use the provider counter unless it
	// is weak and USE_ALT_ON_NA is non-negative.
	pred := longestPred
	if !p.cfg.DisableUseAltOnNA && p.useAltOnNA >= 0 && counter.WeakSigned(providerCtr) {
		pred = altPred
	}

	o.Pred, o.AltPred, o.UsedAlt = pred, altPred, pred != longestPred
	o.Provider, o.ProviderCtr, o.ProviderU = hitBank-1, providerCtr, entryU(providerEntry)
	o.AltProvider, o.AltCtr = altProvider, altCtr
	return o
}

// Observation returns the observation of the most recent Predict: the
// pointer Predict returned, with the same lifetime.
//
//repro:hotpath
func (p *Predictor) Observation() *Observation { return &p.lastObs }

// Update resolves the branch predicted by the immediately preceding
// Predict call, training tables, allocating entries on mispredictions, and
// advancing the global/path histories.
//
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	obs := &p.lastObs
	if !p.havePred || obs.PC != pc {
		panic("tage: Update without a matching Predict of the same pc")
	}
	p.havePred = false
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

	// Advance the history, or, following a Front, step to the batch's
	// next row: the front advances for every follower at once.
	if p.following {
		p.rows = p.rows[m:] //repro:allow-bce Predict just read rows[:m], so m <= len(rows)
		return
	}
	p.fe.push(pc, taken)
}

// allocate installs at most one new entry in a table with a longer history
// than the provider, choosing among entries with u == 0 with a geometric
// preference for shorter histories (each candidate is taken with
// probability 1/2 before considering the next, the reference design's 2:1
// skew); if every candidate is useful, their u counters are decremented
// instead (the anti-ping-pong rule of the TAGE paper).
//
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
//
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
