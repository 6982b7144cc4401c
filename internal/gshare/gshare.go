// Package gshare implements McFarling's gshare predictor (DEC WRL TN-36,
// 1993): a table of 2-bit counters indexed by the XOR of the branch PC and
// the global branch history.
//
// In this repository gshare is a baseline predictor for accuracy
// comparisons and the substrate under the JRS confidence estimator
// (internal/jrs), which the paper's related-work section contrasts with
// storage-free estimation.
package gshare

import (
	"fmt"

	"repro/internal/counter"
)

// Predictor is a gshare branch predictor.
type Predictor struct {
	table    []counter.Bimodal
	mask     uint64 // from logSize at construction
	histBits uint   // construction parameter, fixed for the predictor's lifetime
	ghist    uint64
}

// New returns a gshare predictor with 2^logSize entries using histBits bits
// of global history (clamped to logSize, the useful maximum).
func New(logSize, histBits uint) *Predictor {
	if logSize == 0 || logSize > 28 {
		panic(fmt.Sprintf("gshare: unreasonable logSize %d", logSize))
	}
	if histBits > logSize {
		histBits = logSize
	}
	n := 1 << logSize
	t := make([]counter.Bimodal, n)
	for i := range t {
		t[i] = counter.BimodalWeakNotTaken
	}
	return &Predictor{table: t, mask: uint64(n - 1), histBits: histBits}
}

// Index exposes the table index for pc under the current history; the JRS
// estimator uses the same indexing scheme.
//repro:hotpath
func (p *Predictor) Index(pc uint64) uint64 {
	return ((pc >> 2) ^ (p.ghist & ((1 << p.histBits) - 1))) & p.mask
}

// Predict returns the predicted direction for pc.
//repro:hotpath
func (p *Predictor) Predict(pc uint64) bool {
	return p.table[p.Index(pc)].Taken()
}

// Counter returns the counter backing pc's prediction under the current
// history.
//repro:hotpath
func (p *Predictor) Counter(pc uint64) counter.Bimodal {
	return p.table[p.Index(pc)]
}

// Update trains the indexed counter and shifts the outcome into the global
// history. It must be called with the same pc the prediction was made for,
// before any further Predict calls for subsequent branches.
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	i := p.Index(pc)
	p.table[i] = p.table[i].Update(taken)
	p.pushHistory(taken)
}

//repro:hotpath
func (p *Predictor) pushHistory(taken bool) {
	p.ghist <<= 1
	if taken {
		p.ghist |= 1
	}
}

// History returns the low bits of the global history register (for tests).
func (p *Predictor) History() uint64 { return p.ghist & ((1 << p.histBits) - 1) }

// StorageBits returns the table storage in bits (2 per entry).
func (p *Predictor) StorageBits() int { return 2 * len(p.table) }
