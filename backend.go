package repro

import (
	"strconv"

	"repro/internal/predictor"
	"repro/internal/sim"
)

// Backend is the backend-agnostic estimator contract: any registered
// predictor family behind one Predict/Update/Reset interface with
// confidence grading (see predictor.Backend). New builds one from a
// spec; every driver in this package (Run, RunSuiteSpec, the serving
// sessions) accepts any Backend. A *Estimator is itself a Backend.
type Backend = predictor.Backend

// Spec is the parsed, canonical, comparable form of a backend spec
// string (see predictor.Spec). Two Specs are equal exactly when they
// denote the same canonical spec, which makes Spec a safe cache key.
type Spec = predictor.Spec

// BackendFamily describes one registered backend family: name, summary,
// paper reference, variants and accepted parameters.
type BackendFamily = predictor.Family

// ParseSpec parses a backend spec string ("tage-64K?mode=adaptive",
// "gshare-64K", "perceptron", ...) into its canonical Spec without
// building the backend.
func ParseSpec(spec string) (Spec, error) { return predictor.Parse(spec) }

// Backends lists the registered backend families, sorted by name.
func Backends() []BackendFamily { return predictor.Families() }

// Option is a functional option for New. Options are spec-parameter
// overrides: each one sets (or clears) a parameter on the parsed spec
// before the backend is built, so WithMode(ModeAdaptive) on "tage-64K"
// builds exactly what "tage-64K?mode=adaptive" builds and the resulting
// backend's canonical label reflects the applied options.
type Option func(Spec) Spec

// WithMode selects the tagged-counter automaton (TAGE-family specs).
func WithMode(m AutomatonMode) Option {
	return WithParam("mode", m.String())
}

// WithBimWindow sets the medium-conf-bim window (0 = default 8, -1 =
// disabled; TAGE-family specs).
func WithBimWindow(w int) Option {
	if w == 0 {
		return WithParam("window", "")
	}
	return WithParam("window", strconv.Itoa(w))
}

// WithDenomLog sets the log2 saturation-probability denominator for the
// probabilistic and adaptive automatons (TAGE-family specs).
func WithDenomLog(d uint) Option {
	if d == 0 {
		return WithParam("denomlog", "")
	}
	return WithParam("denomlog", strconv.FormatUint(uint64(d), 10))
}

// WithTargetMKP sets the adaptive controller's misprediction target in
// mispredictions per kilo-prediction (TAGE-family specs).
func WithTargetMKP(target float64) Option {
	if target == 0 {
		return WithParam("mkp", "")
	}
	return WithParam("mkp", strconv.FormatFloat(target, 'g', -1, 64))
}

// WithAdaptiveWindow sets the adaptive controller's evaluation window
// (TAGE-family specs).
func WithAdaptiveWindow(n uint64) Option {
	if n == 0 {
		return WithParam("awindow", "")
	}
	return WithParam("awindow", strconv.FormatUint(n, 10))
}

// WithSeed overrides the predictor's internal randomness seed
// (TAGE-family specs).
func WithSeed(seed uint64) Option {
	return WithParam("seed", strconv.FormatUint(seed, 10))
}

// WithParam sets an arbitrary spec parameter (an empty value clears it).
// Unknown keys fail at build time with the family's accepted list.
func WithParam(key, value string) Option {
	return func(sp Spec) Spec { return sp.WithParam(key, value) }
}

// New builds a backend from a spec string plus functional options — the
// primary construction path of this package. The spec names a family,
// an optional variant and optional parameters; options override
// parameters on top:
//
//	est, err := repro.New("tage-64K", repro.WithMode(repro.ModeAdaptive))
//	gs, err := repro.New("gshare-64K?hist=13")
//
// For TAGE specs the returned Backend is a *Estimator constructed
// exactly as NewEstimator(cfg, opts) — outputs are bit-identical to the
// typed Config+Options constructor. Unknown families, variants and parameter
// keys error with the valid choices listed.
func New(spec string, opts ...Option) (Backend, error) {
	sp, err := predictor.Parse(spec)
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		sp = opt(sp)
	}
	return predictor.Build(sp)
}

// NewSpec builds a backend from an already parsed Spec.
func NewSpec(sp Spec) (Backend, error) { return predictor.Build(sp) }

// RunSpec builds a fresh backend from the spec and simulates it over a
// trace (limit 0 = full trace).
func RunSpec(spec string, tr Trace, limit uint64) (Result, error) {
	b, err := New(spec)
	if err != nil {
		return Result{}, err
	}
	return Run(b, tr, limit)
}

// RunSuiteSpec simulates a fresh spec-built backend per trace and
// aggregates, the backend-agnostic counterpart of RunSuite.
func RunSuiteSpec(spec string, traces []Trace, limit uint64) (SuiteResult, error) {
	sp, err := predictor.Parse(spec)
	if err != nil {
		return SuiteResult{}, err
	}
	return sim.RunSuiteSpec(sp, traces, limit)
}

// SnapshotBackend serializes a backend's complete predictor state into a
// self-describing versioned blob: spec line, state image and checksum.
// Restoring the blob yields a backend that continues bit-identically to
// the original. Every registered family supports it.
func SnapshotBackend(b Backend) ([]byte, error) {
	return predictor.AppendSnapshot(nil, b)
}

// RestoreBackend rebuilds a backend from a SnapshotBackend blob,
// validating the format version and checksum.
func RestoreBackend(blob []byte) (Backend, error) {
	return predictor.RestoreSnapshot(blob)
}
