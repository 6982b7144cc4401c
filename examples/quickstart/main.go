// Quickstart: build the paper's 64 Kbit TAGE predictor with storage-free
// confidence estimation, run it over a synthetic trace, and read back the
// per-class behavior.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A predictor is named by a backend spec. "tage-64K?mode=probabilistic"
	// is the paper's 64 Kbit TAGE with the §6 modified automaton
	// (saturation probability 1/128), which makes the three levels
	// meaningful: high < 1%, medium ~5-10%, low > 30% misprediction.
	est, err := repro.New("tage-64K?mode=probabilistic")
	if err != nil {
		log.Fatal(err)
	}

	tr, err := repro.TraceByName("186.crafty")
	if err != nil {
		log.Fatal(err)
	}

	// Drive the predictor by hand to show the per-branch API...
	reader := tr.Open()
	var preds, correct uint64
	levelCounts := map[repro.Level]uint64{}
	for i := 0; i < 100000; i++ {
		b, err := reader.Next()
		if err != nil {
			break
		}
		pred, class, level := est.Predict(b.PC)
		_ = class // the fine-grained 7-way class is also available
		if pred == b.Taken {
			correct++
		}
		preds++
		levelCounts[level]++
		est.Update(b.PC, b.Taken)
	}
	fmt.Printf("hand-driven: %d branches, %.2f%% accuracy\n", preds, 100*float64(correct)/float64(preds))
	for _, l := range repro.Levels() {
		fmt.Printf("  %-6s confidence: %5.1f%% of predictions\n",
			l, 100*float64(levelCounts[l])/float64(preds))
	}

	// ...or use the simulation driver for full per-class statistics
	// (RunSpec builds a fresh backend from the spec each run).
	res, err := repro.RunSpec("tage-64K?mode=probabilistic", tr, 100000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsim driver: %.2f misp/KI overall\n", res.MPKI())
	for _, c := range repro.Classes() {
		fmt.Printf("  %-16s Pcov=%.3f MPrate=%6.1f MKP (level %s)\n",
			c, res.Pcov(c), res.MPrate(c), c.Level())
	}
}
