// Backends: run every registered predictor family over the same trace
// through the one backend-agnostic API and compare accuracy and
// confidence behavior — the "Branch Prediction Is Not a Solved Problem"
// exercise in five lines per predictor. Specs parameterize each family
// ("bimodal-64K?log=13", "tage-16K?mode=adaptive&mkp=4", ...); see
// repro.Backends() for the registry.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	tr, err := repro.TraceByName("186.crafty")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("registered backend families:")
	for _, f := range repro.Backends() {
		fmt.Printf("  %-11s %s\n", f.Name, f.Summary)
	}

	specs := []string{
		"bimodal-64K",
		"perceptron",
		"ogehl",
		"jrs-64K?enhanced=true",
		"tage-64K?mode=probabilistic",
		"ltage-64K",
	}
	fmt.Printf("\n%s, 200k branches:\n", tr.Name())
	fmt.Printf("  %-28s %9s  %23s\n", "backend", "misp/KI", "high-confidence slice")
	for _, spec := range specs {
		res, err := repro.RunSpec(spec, tr, 200_000)
		if err != nil {
			log.Fatal(err)
		}
		high := res.Level(repro.High)
		pcov := 100 * float64(high.Preds) / float64(res.Total.Preds)
		fmt.Printf("  %-28s %9.2f  %6.1f%% of preds @ %5.1f MKP\n",
			spec, res.MPKI(), pcov, high.MKP())
	}
	fmt.Println("\n(high-confidence slice: coverage and misprediction rate of the")
	fmt.Println(" predictions each backend grades high — the paper's estimator is")
	fmt.Println(" storage-free; JRS pays table bits for its grading.)")
}
