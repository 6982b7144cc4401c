package repro

import (
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
// "bimodal-64K", "perceptron", ...) into its canonical Spec without
// building the backend.
func ParseSpec(spec string) (Spec, error) { return predictor.Parse(spec) }

// Backends lists the registered backend families, sorted by name.
func Backends() []BackendFamily { return predictor.Families() }

// New builds a backend from a spec string — the one construction path
// of this package. The spec names a family, an optional variant and
// optional parameters:
//
//	est, err := repro.New("tage-64K?mode=adaptive")
//	bm, err := repro.New("bimodal-64K?log=13")
//
// For TAGE specs the returned Backend is an *Estimator. Unknown
// families, variants and parameter keys error with the valid choices
// listed.
func New(spec string) (Backend, error) {
	b, _, err := predictor.New(spec)
	return b, err
}

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
// aggregates.
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
