package lockcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata/locks", lockcheck.Analyzer)
}

func TestLockcheckAtomicCalls(t *testing.T) {
	analysistest.Run(t, "testdata/atomiccalls", lockcheck.Analyzer)
}
