// Package counter implements the saturating counters used by the branch
// predictors in this repository, together with the prediction-counter update
// automatons studied in the paper.
//
// Three families of state live here:
//
//   - signed saturating counters (the TAGE tagged-table "ctr" field, the
//     USE_ALT_ON_NA counter, perceptron-adjacent bias counters);
//   - unsigned saturating counters (the TAGE "u" useful field, JRS
//     confidence counters);
//   - the 2-bit bimodal counter of Smith's predictor (the TAGE base table).
//
// The paper's §6 contribution — slowing down the transition into the
// saturated state so that saturation implies high confidence — is
// implemented by Probabilistic, a drop-in replacement for the Standard
// update automaton.
package counter

import "repro/internal/xrand"

// SignedMin returns the minimum value of a signed saturating counter of the
// given width in bits, 1..8. A 3-bit counter spans [-4, 3].
//
// The signed helpers mask their shift counts to the int8 width (& 7, a
// no-op on every legal width) so the compiler emits no oversized-shift
// guard on the per-branch path.
//repro:hotpath
func SignedMin(bits uint) int8 {
	return int8(-1) << ((bits - 1) & 7)
}

// SignedMax returns the maximum value of a signed saturating counter of the
// given width in bits, 1..8.
//repro:hotpath
func SignedMax(bits uint) int8 {
	return int8(1<<((bits-1)&7)) - 1
}

// UpdateSigned moves a signed saturating counter of the given width one step
// toward taken (increment) or not-taken (decrement), saturating at the
// bounds. It is the "Standard" automaton as a pure function.
//repro:hotpath
func UpdateSigned(v int8, bits uint, taken bool) int8 {
	if taken {
		if v < SignedMax(bits) {
			return v + 1
		}
		return v
	}
	if v > SignedMin(bits) {
		return v - 1
	}
	return v
}

// TakenSigned reports the prediction encoded by a signed counter:
// taken if and only if the counter is non-negative.
//repro:hotpath
func TakenSigned(v int8) bool { return v >= 0 }

// WeakSigned reports whether a signed counter is in one of its two weak
// states (0 or -1), i.e. whether the prediction has minimal strength.
//repro:hotpath
func WeakSigned(v int8) bool { return v == 0 || v == -1 }

// Strength returns |2v+1|, the symmetric magnitude of a signed prediction
// counter used by the paper to grade tagged-table predictions:
// 1 = weak (Wtag), 3 = nearly weak (NWtag), 5 = nearly saturated (NStag),
// 7 = saturated (Stag) for a 3-bit counter.
//repro:hotpath
func Strength(v int8) int {
	s := int(2*int16(v) + 1)
	if s < 0 {
		return -s
	}
	return s
}

// SaturatedSigned reports whether the counter sits at either bound.
//repro:hotpath
func SaturatedSigned(v int8, bits uint) bool {
	return v == SignedMin(bits) || v == SignedMax(bits)
}

// NearlySaturatedSigned reports whether the counter is one step away from a
// bound (2 or -3 for a 3-bit counter) — the states whose outgoing
// "saturating" transition the paper's modified automaton throttles.
//repro:hotpath
func NearlySaturatedSigned(v int8, bits uint) bool {
	return v == SignedMin(bits)+1 || v == SignedMax(bits)-1
}

// IncUnsigned increments an unsigned saturating counter of the given width
// in bits, 0..8. The bound is computed in 32 bits so that width 8 fits
// under the guard-free & 31 shift mask.
//repro:hotpath
func IncUnsigned(v uint8, bits uint) uint8 {
	if uint32(v) < uint32(1)<<(bits&31)-1 {
		return v + 1
	}
	return v
}

// DecUnsigned decrements an unsigned saturating counter toward zero.
//repro:hotpath
func DecUnsigned(v uint8) uint8 {
	if v > 0 {
		return v - 1
	}
	return v
}

// Bimodal is the classic 2-bit counter of Smith's bimodal predictor, also
// used (with unshared hysteresis, as in the paper's configurations) as the
// TAGE base-table entry. Values span 0..3; 2 and 3 predict taken.
type Bimodal uint8

// BimodalWeaklyNotTaken and friends name the four states.
const (
	BimodalStrongNotTaken Bimodal = 0
	BimodalWeakNotTaken   Bimodal = 1
	BimodalWeakTaken      Bimodal = 2
	BimodalStrongTaken    Bimodal = 3
)

// Taken reports the prediction encoded by the counter.
//repro:hotpath
func (b Bimodal) Taken() bool { return b >= 2 }

// Weak reports whether the counter is in a weak state (1 or 2). The paper's
// low-conf-bim class is exactly the BIM-provided predictions with Weak()
// true.
//repro:hotpath
func (b Bimodal) Weak() bool { return b == BimodalWeakNotTaken || b == BimodalWeakTaken }

// Update moves the counter one step toward the observed outcome.
//repro:hotpath
func (b Bimodal) Update(taken bool) Bimodal {
	if taken {
		if b < BimodalStrongTaken {
			return b + 1
		}
		return b
	}
	if b > BimodalStrongNotTaken {
		return b - 1
	}
	return b
}

// An Automaton is an update policy for the signed prediction counters of the
// TAGE tagged tables. Update returns the counter's next value after
// observing the branch outcome taken.
//
// Standard is the textbook saturating counter. Probabilistic implements the
// paper's §6 modification. Both are deterministic given their seed, so the
// whole simulation is reproducible.
type Automaton interface {
	Update(v int8, bits uint, taken bool) int8
}

// Standard is the unmodified saturating-counter automaton.
type Standard struct{}

// Update implements Automaton.
//repro:hotpath
func (Standard) Update(v int8, bits uint, taken bool) int8 {
	return UpdateSigned(v, bits, taken)
}

// Probabilistic is the paper's modified automaton: on a correct prediction,
// when the counter is nearly saturated (2 or -3 for 3 bits), the transition
// into the saturated state is performed only with probability 2^-DenomLog.
// All other transitions are unchanged. With DenomLog = 7 (probability
// 1/128), a saturated counter implies that no misprediction was provided by
// the entry in the recent past, making the Stag class high confidence.
//
// DenomLog may be changed at run time; the adaptive controller in
// internal/core drives it between 0 (probability 1) and 10 (1/1024).
type Probabilistic struct {
	rng      *xrand.Rand
	denomLog uint
}

// DefaultDenomLog is the paper's main operating point: probability 1/128.
const DefaultDenomLog = 7

// MaxDenomLog bounds the adaptive range at probability 1/1024.
const MaxDenomLog = 10

// NewProbabilistic returns the modified automaton with saturation
// probability 2^-denomLog, drawing randomness from the given seed.
func NewProbabilistic(seed uint64, denomLog uint) *Probabilistic {
	if denomLog > MaxDenomLog {
		denomLog = MaxDenomLog
	}
	return &Probabilistic{rng: xrand.New(seed), denomLog: denomLog}
}

// DenomLog returns the current log2 of the saturation-probability
// denominator (0 => always saturate, 7 => 1/128, 10 => 1/1024).
//repro:hotpath
func (p *Probabilistic) DenomLog() uint { return p.denomLog }

// SetDenomLog sets the saturation probability to 2^-l, clamped to
// [0, MaxDenomLog].
//repro:hotpath
func (p *Probabilistic) SetDenomLog(l uint) {
	if l > MaxDenomLog {
		l = MaxDenomLog
	}
	p.denomLog = l
}

// Rand exposes the automaton's random stream so snapshot codecs can
// capture and restore the exact generator state; the probabilistic
// saturation decisions are part of the predictor's bit-reproducible
// behavior.
func (p *Probabilistic) Rand() *xrand.Rand { return p.rng }

// Probability returns the current saturation probability as a float.
func (p *Probabilistic) Probability() float64 {
	return 1.0 / float64(uint64(1)<<p.denomLog)
}

// Update implements Automaton. denomLog never exceeds MaxDenomLog, so the
// & 63 on the draw's shift count is a no-op that only removes the
// compiler's oversized-shift guard.
//repro:hotpath
func (p *Probabilistic) Update(v int8, bits uint, taken bool) int8 {
	max := SignedMax(bits)
	min := SignedMin(bits)
	if taken && v == max-1 {
		// Correct taken prediction about to saturate positively.
		if p.denomLog == 0 || p.rng.OneIn(1<<(p.denomLog&63)) {
			return max
		}
		return v
	}
	if !taken && v == min+1 {
		// Correct not-taken prediction about to saturate negatively.
		if p.denomLog == 0 || p.rng.OneIn(1<<(p.denomLog&63)) {
			return min
		}
		return v
	}
	return UpdateSigned(v, bits, taken)
}
