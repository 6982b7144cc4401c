// Package bimodal implements Smith's 2-bit counter bimodal predictor
// (Smith, ISCA 1981): a PC-indexed table of 2-bit saturating counters.
//
// It serves three roles in this repository: the TAGE base predictor
// component (the paper's configurations use unshared hysteresis, i.e. plain
// 2-bit counters); a standalone baseline predictor; and the original
// storage-free confidence estimator — Smith observed that a saturated
// counter is more likely to be correct than a weak one, the idea the paper
// generalizes to TAGE.
package bimodal

import (
	"fmt"

	"repro/internal/counter"
)

// Predictor is a PC-indexed table of 2-bit counters.
type Predictor struct {
	table   []counter.Bimodal
	mask    uint64 // from logSize at construction
	logSize uint   // construction parameter, fixed for the predictor's lifetime
}

// New returns a bimodal predictor with 2^logSize entries, initialized to
// weak not-taken (the conventional cold state).
func New(logSize uint) *Predictor {
	if logSize == 0 || logSize > 28 {
		panic(fmt.Sprintf("bimodal: unreasonable logSize %d", logSize))
	}
	n := 1 << logSize
	t := make([]counter.Bimodal, n)
	for i := range t {
		t[i] = counter.BimodalWeakNotTaken
	}
	return &Predictor{table: t, mask: uint64(n - 1), logSize: logSize}
}

// index maps a branch PC to a table slot. The low two bits of typical RISC
// branch addresses are constant, so they are shifted out before masking.
//
//repro:hotpath
func (p *Predictor) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Predict returns the predicted direction for pc.
//
//repro:hotpath
func (p *Predictor) Predict(pc uint64) bool {
	return p.table[p.index(pc)].Taken()
}

// Counter returns the raw 2-bit counter state for pc, which the confidence
// classifier inspects (a weak counter makes the prediction low confidence).
//
//repro:hotpath
func (p *Predictor) Counter(pc uint64) counter.Bimodal {
	return p.table[p.index(pc)]
}

// Weak reports whether pc's counter is in a weak state.
//
//repro:hotpath
func (p *Predictor) Weak(pc uint64) bool {
	return p.table[p.index(pc)].Weak()
}

// Update trains the counter for pc toward the resolved direction.
//
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	i := p.index(pc)
	p.table[i] = p.table[i].Update(taken)
}

// Entries returns the number of table entries.
func (p *Predictor) Entries() int { return len(p.table) }

// StorageBits returns the predictor's storage budget in bits
// (2 bits per entry, hysteresis unshared).
func (p *Predictor) StorageBits() int { return 2 * len(p.table) }

// Packed is the arena-backed bimodal variant: the same 2-bit-counter
// table stored 16 counters per uint32 word, over a word slice the caller
// may carve out of a larger backing allocation. The TAGE predictor uses
// it to keep its base table and tagged tables in one arena (hardware
// implementations hold the whole predictor in one SRAM macro for the
// same locality reason); predictions are bit-identical to Predictor's.
type Packed struct {
	words   []uint32
	mask    uint64
	logSize uint
}

// packedPerWord is the number of 2-bit counters per backing word.
const packedPerWord = 16

// weakNotTakenWord is a backing word with every counter at
// BimodalWeakNotTaken (0b01 repeated), the conventional cold state.
const weakNotTakenWord = 0x5555_5555

// PackedWords returns the backing-slice length (in uint32 words) a
// Packed table of 2^logSize entries requires.
func PackedWords(logSize uint) int {
	return (1<<logSize + packedPerWord - 1) / packedPerWord
}

// NewPackedIn initializes a Packed table of 2^logSize entries over the
// given backing words (length must be exactly PackedWords(logSize)),
// resetting every counter to weak not-taken.
func NewPackedIn(words []uint32, logSize uint) *Packed {
	if logSize == 0 || logSize > 28 {
		panic(fmt.Sprintf("bimodal: unreasonable logSize %d", logSize))
	}
	if len(words) != PackedWords(logSize) {
		panic(fmt.Sprintf("bimodal: backing slice has %d words, want %d", len(words), PackedWords(logSize)))
	}
	for i := range words {
		words[i] = weakNotTakenWord
	}
	return &Packed{words: words, mask: uint64(1<<logSize) - 1, logSize: logSize}
}

// NewPacked returns a self-backed Packed table with 2^logSize entries.
func NewPacked(logSize uint) *Packed {
	return NewPackedIn(make([]uint32, PackedWords(logSize)), logSize)
}

// index maps a branch PC to a table slot (same mapping as Predictor).
//
//repro:hotpath
func (p *Packed) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Counter returns the raw 2-bit counter state for pc.
//
//repro:hotpath
func (p *Packed) Counter(pc uint64) counter.Bimodal {
	i := p.index(pc)
	return counter.Bimodal(p.words[i/packedPerWord] >> (i % packedPerWord * 2) & 3)
}

// Predict returns the predicted direction for pc.
//
//repro:hotpath
func (p *Packed) Predict(pc uint64) bool { return p.Counter(pc).Taken() }

// Weak reports whether pc's counter is in a weak state.
//
//repro:hotpath
func (p *Packed) Weak(pc uint64) bool { return p.Counter(pc).Weak() }

// Update trains the counter for pc toward the resolved direction.
//
//repro:hotpath
func (p *Packed) Update(pc uint64, taken bool) {
	i := p.index(pc)
	w, sh := i/packedPerWord, i%packedPerWord*2
	c := counter.Bimodal(p.words[w] >> sh & 3).Update(taken)
	p.words[w] = p.words[w]&^(3<<sh) | uint32(c)<<sh
}

// Entries returns the number of table entries.
func (p *Packed) Entries() int { return 1 << p.logSize }

// StorageBits returns the table's storage budget in bits (2 per entry).
func (p *Packed) StorageBits() int { return 2 << p.logSize }
