package core

import "repro/internal/counter"

// Adaptive implements the run-time adaptation of the saturation
// probability (§6.2, Table 3): the probability varies between 1/1024 and 1
// by factors of 2; the controller monitors the misprediction rate of the
// high-confidence predictions over a window and maximizes high-confidence
// coverage subject to keeping that rate under a target (10 MKP in the
// paper).
//
// Control law per evaluation window of high-confidence predictions:
//
//   - measured rate above the target → halve the saturation probability
//     (saturated counters become rarer and purer);
//   - measured rate below the hysteresis fraction of the target → double
//     the probability (coverage grows at some purity cost);
//   - otherwise leave it unchanged.
//
// The paper does not specify the monitoring window; 16 K high-confidence
// predictions balances reaction time against estimation noise (at the
// 10 MKP target the window sees ~160 expected mispredictions).
type Adaptive struct {
	auto       *counter.Probabilistic
	targetMKP  float64
	window     uint64
	hysteresis float64

	hiPreds uint64
	hiMisps uint64

	adjustments uint64
}

// DefaultAdaptiveWindow is the evaluation window in high-confidence
// predictions.
const DefaultAdaptiveWindow = 16384

// DefaultTargetMKP is the paper's target: at most 10 mispredictions per
// kilo-prediction on the high-confidence class.
const DefaultTargetMKP = 10.0

// defaultHysteresis is the fraction of the target below which the
// controller doubles the probability to reclaim coverage.
const defaultHysteresis = 0.6

// NewAdaptive returns a controller driving auto. targetMKP and window of 0
// select the defaults.
func NewAdaptive(auto *counter.Probabilistic, targetMKP float64, window uint64) *Adaptive {
	if targetMKP <= 0 {
		targetMKP = DefaultTargetMKP
	}
	if window == 0 {
		window = DefaultAdaptiveWindow
	}
	return &Adaptive{
		auto:       auto,
		targetMKP:  targetMKP,
		window:     window,
		hysteresis: defaultHysteresis,
	}
}

// Observe feeds one resolved prediction to the controller.
//
//repro:hotpath
func (a *Adaptive) Observe(level Level, mispredicted bool) {
	if level != High {
		return
	}
	a.hiPreds++
	if mispredicted {
		a.hiMisps++
	}
	if a.hiPreds < a.window {
		return
	}
	rate := 1000 * float64(a.hiMisps) / float64(a.hiPreds)
	switch {
	case rate > a.targetMKP:
		// Too many high-confidence mispredictions: make saturation rarer.
		if a.auto.DenomLog() < counter.MaxDenomLog {
			a.auto.SetDenomLog(a.auto.DenomLog() + 1)
			a.adjustments++
		}
	case rate < a.targetMKP*a.hysteresis:
		// Comfortably clean: grow coverage.
		if a.auto.DenomLog() > 0 {
			a.auto.SetDenomLog(a.auto.DenomLog() - 1)
			a.adjustments++
		}
	}
	a.hiPreds, a.hiMisps = 0, 0
}

// Probability returns the current saturation probability.
func (a *Adaptive) Probability() float64 { return a.auto.Probability() }

// DenomLog returns the current log2 probability denominator.
func (a *Adaptive) DenomLog() uint { return a.auto.DenomLog() }

// Adjustments returns how many times the controller changed the
// probability (diagnostics).
func (a *Adaptive) Adjustments() uint64 { return a.adjustments }

// TargetMKP returns the configured target rate.
func (a *Adaptive) TargetMKP() float64 { return a.targetMKP }
