//go:build !race

package main

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
