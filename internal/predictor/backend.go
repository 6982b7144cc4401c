package predictor

import (
	"repro/internal/core"
	"repro/internal/statecodec"
)

// Backend is the backend-agnostic estimator contract: one predictor
// instance that predicts, trains, and grades its own predictions with
// the repository's confidence taxonomy. Every predictor family in
// internal/ is available behind this interface through the registry, and
// every driver (sim, serve, the CLIs) accepts any Backend.
//
// Protocol: each Predict must be followed by exactly one Update for the
// same pc before the next Predict, exactly as the underlying predictors
// require. Backends are not safe for concurrent use; drive one branch
// stream per instance.
//
// Confidence grading: backends return one of the seven core.Class values
// plus its aggregate core.Level, and class.Level() always equals the
// returned level. The TAGE estimator grades with the paper's full
// seven-class taxonomy. Families with a binary self-confidence estimate
// (bimodal, perceptron, ogehl, jrs) grade through the
// bimodal-provider classes, which map one-to-one onto the levels:
// LowConfBim for low, MediumConfBim for medium, HighConfBim for high.
type Backend interface {
	// Predict returns the prediction for pc with its confidence grade.
	Predict(pc uint64) (pred bool, class core.Class, level core.Level)
	// Update trains the backend with the resolved direction of the most
	// recent Predict (same pc).
	Update(pc uint64, taken bool)
	// Reset restores the backend to its initial (cold) state, as if
	// freshly built from its spec.
	Reset()
	// Label returns the canonical description of the instance: the
	// canonical spec string for registry-built backends, the
	// configuration name for directly constructed TAGE estimators.
	// Results and metrics are keyed by this label.
	Label() string
}

// ModeOf returns the automaton mode a backend reports, or
// core.ModeStandard for backends without a mode (every non-TAGE family).
func ModeOf(b Backend) core.AutomatonMode {
	if m, ok := b.(interface{ Mode() core.AutomatonMode }); ok {
		return m.Mode()
	}
	return core.ModeStandard
}

// SaturationProbabilityOf returns the backend's current saturation
// probability, or 1 for backends without a probabilistic automaton —
// the same value a ModeStandard TAGE estimator reports.
//
//repro:deterministic
func SaturationProbabilityOf(b Backend) float64 {
	if p, ok := b.(interface{ SaturationProbability() float64 }); ok {
		return p.SaturationProbability()
	}
	return 1
}

// graded is the generic Backend adapter for families with a binary (or
// three-way) self-confidence estimate: predict and grade are supplied by
// closures over the underlying predictor, and Reset rebuilds the
// predictor from its spec through the registry.
type graded struct {
	label   string                                         // rebuild recipe, fixed at registration
	spec    Spec                                           // rebuild recipe, fixed at registration
	predict func(pc uint64) (bool, core.Class, core.Level) // closure over the predictor; state lives behind save/load
	update  func(pc uint64, taken bool)                    // closure over the predictor; state lives behind save/load
	rebuild func()                                         // closure over the predictor; state lives behind save/load
	save    func(dst []byte) []byte
	load    func(r *statecodec.Reader) error
}

func (g *graded) Predict(pc uint64) (bool, core.Class, core.Level) { return g.predict(pc) }
func (g *graded) Update(pc uint64, taken bool)                     { g.update(pc, taken) }
func (g *graded) Reset()                                           { g.rebuild() }
func (g *graded) Label() string                                    { return g.label }

// SnapshotSpec returns the canonical spec the backend was built from —
// the rebuild recipe a snapshot envelope records.
func (g *graded) SnapshotSpec() Spec { return g.spec }

// AppendState implements Snapshotter through the family's save closure.
func (g *graded) AppendState(dst []byte) []byte { return g.save(dst) }

// RestoreState implements Snapshotter through the family's load closure.
func (g *graded) RestoreState(r *statecodec.Reader) error { return g.load(r) }

// levelClass maps a confidence level onto its bimodal-provider class,
// the generic grading buckets (see the Backend doc).
func levelClass(l core.Level) core.Class {
	switch l {
	case core.Low:
		return core.LowConfBim
	case core.Medium:
		return core.MediumConfBim
	default:
		return core.HighConfBim
	}
}
