// Package perceptron implements the global-history perceptron branch
// predictor (Jiménez & Lin, HPCA 2001) together with its storage-free
// self-confidence estimate: the magnitude of the perceptron output sum
// relative to the training threshold θ grades how confident the prediction
// is (Jiménez & Lin TR 02-14; Akkary et al., HPCA 2004).
//
// The paper's related-work section cites this self-confidence scheme as the
// neural-predictor analogue of what it builds for TAGE; this package lets
// the benchmark harness compare the two directly.
package perceptron

import (
	"fmt"
)

// Predictor is a PC-indexed table of perceptrons over the global branch
// history.
type Predictor struct {
	weights [][]int16 // [entry][histLen+1], index 0 is the bias weight
	mask    uint64    // from logSize at construction
	histLen int
	theta   int32  // fixed by histLen (θ = ⌊1.93·h + 14⌋)
	ghist   []int8 // +1 taken, -1 not-taken; ghist[0] = most recent
	lastSum int32  // per-prediction scratch
}

// New returns a perceptron predictor with 2^logSize perceptrons over
// histLen history bits. The training threshold uses the authors' rule
// θ = ⌊1.93·h + 14⌋.
func New(logSize uint, histLen int) *Predictor {
	if logSize == 0 || logSize > 24 {
		panic(fmt.Sprintf("perceptron: unreasonable logSize %d", logSize))
	}
	if histLen < 1 || histLen > 1024 {
		panic(fmt.Sprintf("perceptron: unreasonable history length %d", histLen))
	}
	n := 1 << logSize
	w := make([][]int16, n)
	for i := range w {
		w[i] = make([]int16, histLen+1)
	}
	return &Predictor{
		weights: w,
		mask:    uint64(n - 1),
		histLen: histLen,
		theta:   int32(1.93*float64(histLen) + 14),
		ghist:   make([]int8, histLen),
	}
}

//repro:hotpath
func (p *Predictor) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// sum computes the perceptron output for pc under the current history.
//
//repro:hotpath
func (p *Predictor) sum(pc uint64) int32 {
	w := p.weights[p.index(pc)]
	s := int32(w[0])
	for i := 0; i < p.histLen; i++ {
		if p.ghist[i] >= 0 {
			s += int32(w[i+1])
		} else {
			s -= int32(w[i+1])
		}
	}
	return s
}

// Predict returns the predicted direction for pc and records the output sum
// for the subsequent Update/Confidence calls.
//
//repro:hotpath
func (p *Predictor) Predict(pc uint64) bool {
	p.lastSum = p.sum(pc)
	return p.lastSum >= 0
}

// LastSum returns the output sum computed by the most recent Predict.
//
//repro:hotpath
func (p *Predictor) LastSum() int32 { return p.lastSum }

// Theta returns the training threshold θ.
func (p *Predictor) Theta() int32 { return p.theta }

// HighConfidence reports the self-confidence estimate for the most recent
// prediction: |sum| at or above the training threshold. About one third of
// low-confidence predictions are mispredicted on the O-GEHL-style
// predictors evaluated in the literature.
//
//repro:hotpath
func (p *Predictor) HighConfidence() bool {
	s := p.lastSum
	if s < 0 {
		s = -s
	}
	return s >= p.theta
}

const weightMax = 127
const weightMin = -128

// Update trains the perceptron (on misprediction or weak sum) and shifts
// the outcome into the history. Must be called after Predict for the same
// branch.
//
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	predTaken := p.lastSum >= 0
	mag := p.lastSum
	if mag < 0 {
		mag = -mag
	}
	if predTaken != taken || mag <= p.theta {
		w := p.weights[p.index(pc)]
		t := int16(-1)
		if taken {
			t = 1
		}
		w[0] = clampWeight(w[0] + t)
		for i := 0; i < p.histLen; i++ {
			x := int16(-1)
			if p.ghist[i] >= 0 {
				x = 1
			}
			// Increment when outcome agrees with history bit, else decrement.
			w[i+1] = clampWeight(w[i+1] + t*x)
		}
	}
	// Shift history.
	copy(p.ghist[1:], p.ghist)
	if taken {
		p.ghist[0] = 1
	} else {
		p.ghist[0] = -1
	}
}

//repro:hotpath
func clampWeight(v int16) int16 {
	if v > weightMax {
		return weightMax
	}
	if v < weightMin {
		return weightMin
	}
	return v
}

// StorageBits returns the weight-table storage in bits (8 bits per weight).
func (p *Predictor) StorageBits() int {
	return len(p.weights) * (p.histLen + 1) * 8
}
