// Package jrs implements the JRS confidence estimator (Jacobsen, Rotenberg
// & Smith, MICRO 1996) and its enhancement by Grunwald et al. (ISCA 1998),
// the storage-based baselines of the paper's related-work section.
//
// The JRS estimator is a gshare-indexed table of resetting counters ("miss
// distance counters"): a correct prediction increments the indexed counter
// (saturating), a misprediction resets it to zero, and a prediction is
// classified high confidence when the counter is at or above a threshold.
// The paper cites 4-bit counters with threshold 15 as the interesting
// trade-off: high confidence means at least 15 consecutive correct
// predictions for this (branch, history) slot.
//
// The Grunwald et al. enhancement folds the predicted direction into the
// table index, so that "taken" and "not-taken" predictions for the same
// (branch, history) pair are graded independently.
//
// Unlike the paper's storage-free estimator, JRS costs real storage:
// 2^logSize × bits table bits on top of the predictor.
package jrs

import (
	"fmt"

	"repro/internal/counter"
)

// Estimator is a JRS confidence estimator. The predictor registry's jrs
// family pairs it with a TAGE predictor whose predictions it grades.
type Estimator struct {
	table     []uint8
	mask      uint64 // from logSize at construction
	bits      uint
	threshold uint8 // construction parameter, fixed for the estimator's lifetime
	histBits  uint  // construction parameter, fixed for the estimator's lifetime
	ghist     uint64
	usePred   bool // construction parameter, fixed for the estimator's lifetime
}

// DefaultLogSize is log2 of the default table size, 1K counters: the
// table the jrs predictor family builds unless its spec says otherwise.
const DefaultLogSize = 10

// DefaultCounterBits is the counter width shown as a good trade-off in the
// original JRS study.
const DefaultCounterBits = 4

// DefaultThreshold is the matching high-confidence threshold (saturated
// 4-bit counter).
const DefaultThreshold = 15

// DefaultStorageBits is the default table's cost: 2^DefaultLogSize
// counters of DefaultCounterBits bits (4 Kbits).
const DefaultStorageBits = 1 << DefaultLogSize * DefaultCounterBits

// New returns a JRS estimator with 2^logSize counters of the given width,
// classifying predictions with counter >= threshold as high confidence.
func New(logSize uint, bits uint, threshold uint8, histBits uint) *Estimator {
	if logSize == 0 || logSize > 24 {
		panic(fmt.Sprintf("jrs: unreasonable logSize %d", logSize))
	}
	if bits == 0 || bits > 8 {
		panic(fmt.Sprintf("jrs: unreasonable counter width %d", bits))
	}
	if histBits > logSize {
		histBits = logSize
	}
	return &Estimator{
		table:     make([]uint8, 1<<logSize),
		mask:      uint64(1<<logSize) - 1,
		bits:      bits,
		threshold: threshold,
		histBits:  histBits,
	}
}

// NewDefault returns the classic configuration: 4-bit counters, threshold
// 15.
func NewDefault(logSize uint, histBits uint) *Estimator {
	return New(logSize, DefaultCounterBits, DefaultThreshold, histBits)
}

// Enhanced switches on the Grunwald et al. refinement (prediction folded
// into the index) and returns the estimator.
func (e *Estimator) Enhanced() *Estimator {
	e.usePred = true
	return e
}

//repro:hotpath
func (e *Estimator) index(pc uint64, pred bool) uint64 {
	idx := (pc >> 2) ^ (e.ghist & ((1 << e.histBits) - 1))
	if e.usePred && pred {
		// Fold the predicted direction in as the top index bit.
		idx ^= (e.mask + 1) >> 1
	}
	return idx & e.mask
}

// HighConfidence grades the upcoming prediction pred for pc: high when
// the indexed miss-distance counter has reached the threshold.
//
//repro:hotpath
func (e *Estimator) HighConfidence(pc uint64, pred bool) bool {
	return e.table[e.index(pc, pred)] >= e.threshold
}

// Update trains the estimator with the resolved outcome of the graded
// prediction pred: increment on a correct prediction, reset on a
// misprediction, then advance the local history copy.
//
//repro:hotpath
func (e *Estimator) Update(pc uint64, pred, taken bool) {
	i := e.index(pc, pred)
	if pred == taken {
		e.table[i] = counter.IncUnsigned(e.table[i], e.bits)
	} else {
		e.table[i] = 0
	}
	e.ghist <<= 1
	if taken {
		e.ghist |= 1
	}
}

// StorageBits returns the estimator's table cost in bits — the storage the
// paper's estimator avoids.
func (e *Estimator) StorageBits() int { return len(e.table) * int(e.bits) }

// Threshold returns the high-confidence threshold.
func (e *Estimator) Threshold() uint8 { return e.threshold }
