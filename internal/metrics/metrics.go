// Package metrics defines the measurement vocabulary of the paper:
//
//   - MKP, mispredictions per kilo-prediction, the per-class rate unit
//     (§4, "Confidence metrics");
//   - misp/KI, mispredictions per kilo-instruction, the whole-trace
//     accuracy unit (Table 1);
//   - Pcov / MPcov / MPrate, the coverage and rate triple reported for
//     every prediction class (§4); a class's MPrate is its Counts.MKP;
//   - SENS / PVP / SPEC / PVN, Grunwald et al.'s quality metrics for
//     binary (high/low) confidence estimators (§2.2), used to compare the
//     storage-free estimator against the JRS baseline.
package metrics

import "fmt"

// Counts is a (predictions, mispredictions) pair.
type Counts struct {
	Preds uint64
	Misps uint64
}

// Add accumulates other into c.
//
//repro:deterministic
func (c *Counts) Add(other Counts) {
	c.Preds += other.Preds
	c.Misps += other.Misps
}

// Sub removes other from c, clamping at zero. The serve engine uses it
// to un-fold the tallies of an evicted session that is re-adopted from
// its checkpoint, so its branches are counted exactly once.
//
//repro:deterministic
func (c *Counts) Sub(other Counts) {
	if other.Preds > c.Preds {
		c.Preds = 0
	} else {
		c.Preds -= other.Preds
	}
	if other.Misps > c.Misps {
		c.Misps = 0
	} else {
		c.Misps -= other.Misps
	}
}

// Record tallies one resolved prediction.
//
//repro:hotpath
func (c *Counts) Record(mispredicted bool) {
	c.Preds++
	if mispredicted {
		c.Misps++
	}
}

// MKP returns the misprediction rate in mispredictions per
// kilo-prediction; 0 when there are no predictions.
//
//repro:deterministic
func (c Counts) MKP() float64 {
	if c.Preds == 0 {
		return 0
	}
	return 1000 * float64(c.Misps) / float64(c.Preds)
}

// Rate returns the misprediction rate as a fraction in [0, 1].
//
//repro:deterministic
func (c Counts) Rate() float64 { return c.MKP() / 1000 }

//repro:deterministic
func (c Counts) String() string {
	return fmt.Sprintf("%d/%d (%.1f MKP)", c.Misps, c.Preds, c.MKP())
}

// MPKI converts a misprediction count and instruction count to
// mispredictions per kilo-instruction.
//
//repro:deterministic
func MPKI(misps, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(misps) / float64(instructions)
}

// Pcov is the prediction coverage of a class: the fraction of all
// predictions that belong to it.
//
//repro:deterministic
func Pcov(class, total Counts) float64 {
	if total.Preds == 0 {
		return 0
	}
	return float64(class.Preds) / float64(total.Preds)
}

// MPcov is the misprediction coverage of a class: the fraction of all
// mispredictions that belong to it.
//
//repro:deterministic
func MPcov(class, total Counts) float64 {
	if total.Misps == 0 {
		return 0
	}
	return float64(class.Misps) / float64(total.Misps)
}

// Binary is the confusion tally of a two-way (high/low confidence)
// estimator, in the axes of Grunwald et al.
type Binary struct {
	HighCorrect uint64 // high confidence, correctly predicted
	HighWrong   uint64 // high confidence, mispredicted
	LowCorrect  uint64 // low confidence, correctly predicted
	LowWrong    uint64 // low confidence, mispredicted
}

// Add accumulates other into b.
//
//repro:deterministic
func (b *Binary) Add(other Binary) {
	b.HighCorrect += other.HighCorrect
	b.HighWrong += other.HighWrong
	b.LowCorrect += other.LowCorrect
	b.LowWrong += other.LowWrong
}

// Total returns the number of recorded predictions.
//
//repro:deterministic
func (b Binary) Total() uint64 {
	return b.HighCorrect + b.HighWrong + b.LowCorrect + b.LowWrong
}

//repro:deterministic
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Sens (sensitivity) is the fraction of correct predictions classified
// high confidence.
//
//repro:deterministic
func (b Binary) Sens() float64 { return ratio(b.HighCorrect, b.HighCorrect+b.LowCorrect) }

// PVP (predictive value of a positive test) is the probability that a
// high-confidence prediction is correct.
//
//repro:deterministic
func (b Binary) PVP() float64 { return ratio(b.HighCorrect, b.HighCorrect+b.HighWrong) }

// Spec (specificity) is the fraction of mispredictions correctly
// identified as low confidence.
//
//repro:deterministic
func (b Binary) Spec() float64 { return ratio(b.LowWrong, b.LowWrong+b.HighWrong) }

// PVN (predictive value of a negative test) is the fraction of
// low-confidence predictions that are effectively mispredicted.
//
//repro:deterministic
func (b Binary) PVN() float64 { return ratio(b.LowWrong, b.LowWrong+b.LowCorrect) }

//repro:deterministic
func (b Binary) String() string {
	return fmt.Sprintf("SENS=%.3f PVP=%.3f SPEC=%.3f PVN=%.3f", b.Sens(), b.PVP(), b.Spec(), b.PVN())
}
