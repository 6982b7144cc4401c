package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/tage"
	"repro/internal/xrand"
)

// AutomatonMode selects the tagged-counter update automaton of the
// underlying predictor, which determines how much confidence the class
// observation carries (§5 vs §6).
type AutomatonMode uint8

const (
	// ModeStandard is the unmodified TAGE automaton (§5): seven observable
	// classes, but Stag is only average-confidence.
	ModeStandard AutomatonMode = iota
	// ModeProbabilistic installs the §6 automaton with a fixed saturation
	// probability (1/128 by default), making Stag high confidence.
	ModeProbabilistic
	// ModeAdaptive is ModeProbabilistic plus the run-time probability
	// controller of §6.2 holding the high-confidence misprediction rate
	// under a target.
	ModeAdaptive
)

// String names the mode.
//
//repro:deterministic
func (m AutomatonMode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeProbabilistic:
		return "probabilistic"
	case ModeAdaptive:
		return "adaptive"
	default:
		return "invalid-mode"
	}
}

// ParseMode resolves a mode name — the single definition of the
// name-to-mode table the spec "mode" parameter uses. "prob" and
// "modified" are accepted aliases for the §6 probabilistic automaton.
func ParseMode(name string) (AutomatonMode, error) {
	switch name {
	case "standard":
		return ModeStandard, nil
	case "probabilistic", "prob", "modified":
		return ModeProbabilistic, nil
	case "adaptive":
		return ModeAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want standard, probabilistic or adaptive)", name)
	}
}

// Options configures an Estimator beyond its predictor configuration.
type Options struct {
	// Mode selects the automaton (default ModeStandard).
	Mode AutomatonMode
	// DenomLog is the log2 saturation-probability denominator for
	// ModeProbabilistic/ModeAdaptive (default counter.DefaultDenomLog = 7,
	// i.e. probability 1/128).
	DenomLog uint
	// BimWindow is the medium-conf-bim window (default DefaultBimWindow).
	// Negative disables the window (0 means default).
	BimWindow int
	// TargetMKP is the adaptive controller's target (default 10 MKP).
	TargetMKP float64
	// AdaptiveWindow is the controller's evaluation window (default 16 K
	// high-confidence predictions).
	AdaptiveWindow uint64
}

// Estimator bundles a TAGE predictor with the storage-free confidence
// classifier, and optionally the modified automaton and adaptive
// controller. It is the package's top-level convenience type; the pieces
// remain usable separately.
type Estimator struct {
	pred *tage.Predictor
	cls  *Classifier
	auto *counter.Probabilistic // nil in ModeStandard
	ctl  *Adaptive              // nil unless ModeAdaptive
	mode AutomatonMode          // fixed by opts at construction

	// cfg/opts are the construction inputs, kept so Reset can rebuild
	// the identical cold estimator.
	cfg  tage.Config // construction input, immutable
	opts Options     // construction input, immutable

	lastClass Class // per-prediction scratch; havePred is cleared on restore
	havePred  bool
}

// NewEstimator builds an estimator over a fresh predictor with the given
// configuration and options.
func NewEstimator(cfg tage.Config, opts Options) *Estimator {
	denomLog := opts.DenomLog
	if denomLog == 0 {
		denomLog = counter.DefaultDenomLog
	}
	var auto counter.Automaton = counter.Standard{}
	var prob *counter.Probabilistic
	if opts.Mode != ModeStandard {
		prob = counter.NewProbabilistic(xrand.Mix64(cfg.Seed^0xC0FF), denomLog)
		auto = prob
	}
	e := &Estimator{
		pred: tage.NewWithAutomaton(cfg, auto),
		cls:  NewOptionsClassifier(cfg, opts),
		auto: prob,
		mode: opts.Mode,
		cfg:  cfg,
		opts: opts,
	}
	if opts.Mode == ModeAdaptive {
		e.ctl = NewAdaptive(prob, opts.TargetMKP, opts.AdaptiveWindow)
	}
	return e
}

// NewOptionsClassifier returns the classifier NewEstimator builds for
// (cfg, opts): opts.BimWindow sets its window (0 = DefaultBimWindow,
// negative = none). It is the estimator's only part that reads BimWindow.
func NewOptionsClassifier(cfg tage.Config, opts Options) *Classifier {
	window := opts.BimWindow
	if window == 0 {
		window = DefaultBimWindow
	}
	return NewClassifierWindow(cfg, window)
}

// Predict returns the prediction for pc together with its confidence class
// and level. Each Predict must be followed by one Update for the same pc.
//
//repro:hotpath
func (e *Estimator) Predict(pc uint64) (pred bool, class Class, level Level) {
	obs := e.pred.Predict(pc)
	e.lastClass = e.cls.Classify(obs)
	e.havePred = true
	return obs.Pred, e.lastClass, e.lastClass.Level()
}

// Observation returns the raw component observation of the most recent
// Predict, the predictor's own (see tage.Predictor.Predict for its
// lifetime).
//
//repro:hotpath
func (e *Estimator) Observation() *tage.Observation { return e.pred.Observation() }

// Update resolves the most recent prediction, training the predictor,
// advancing the classifier window and feeding the adaptive controller.
//
//repro:hotpath
func (e *Estimator) Update(pc uint64, taken bool) {
	obs := e.pred.Observation()
	if !e.havePred || obs.PC != pc {
		panic(fmt.Sprintf("core: Update(%#x) without matching Predict", pc))
	}
	e.havePred = false
	e.cls.Resolve(obs, taken)
	if e.ctl != nil {
		e.ctl.Observe(e.lastClass.Level(), obs.Pred != taken)
	}
	e.pred.Update(pc, taken)
}

// Reset restores the estimator to its initial cold state — predictor
// tables, classifier window, automaton randomness and adaptive
// controller all rebuilt exactly as a fresh NewEstimator with the same
// inputs. Together with Predict/Update/Label this makes *Estimator
// satisfy the backend-agnostic contract (predictor.Backend) directly.
func (e *Estimator) Reset() { *e = *NewEstimator(e.cfg, e.opts) }

// Label returns the predictor configuration name — the value simulation
// results and serving metrics are keyed by for TAGE backends.
func (e *Estimator) Label() string { return e.cfg.Name }

// Predictor exposes the underlying TAGE predictor.
func (e *Estimator) Predictor() *tage.Predictor { return e.pred }

// Classifier exposes the class observer.
func (e *Estimator) Classifier() *Classifier { return e.cls }

// Mode returns the automaton mode.
func (e *Estimator) Mode() AutomatonMode { return e.mode }

// SaturationProbability returns the current saturation probability, or 1
// in ModeStandard (the standard automaton always saturates on a correct
// prediction from the nearly-saturated state).
func (e *Estimator) SaturationProbability() float64 {
	if e.auto == nil {
		return 1
	}
	return e.auto.Probability()
}

// Controller returns the adaptive controller, or nil outside ModeAdaptive.
func (e *Estimator) Controller() *Adaptive { return e.ctl }
