// Package suite enumerates the repository's analyzers — the set
// cmd/tagevet runs and CI requires.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/lockcheck"
)

// All returns every analyzer in the tagevet suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		lockcheck.Analyzer,
	}
}
