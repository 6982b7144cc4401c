//go:build race

package main

// raceEnabled reports that this test binary was built with -race, which
// slows the workloads several-fold, so wall-clock budgets do not apply.
const raceEnabled = true
