// Adaptive saturation probability: watch the §6.2 controller adjust the
// probability at run time to hold the high-confidence misprediction rate
// under 10 MKP while maximizing coverage, across traces of very different
// difficulty.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/metrics"
)

func main() {
	fmt.Println("Adaptive saturation probability (16 Kbit TAGE, target < 10 MKP on high confidence)")
	fmt.Println()
	fmt.Printf("%-14s %-12s %-12s %-12s %-10s\n",
		"trace", "final prob", "high Pcov", "high MPrate", "adjustments")

	for _, name := range []string{
		"252.eon",    // very predictable: probability can stay high
		"FP-1",       //
		"186.crafty", // middling
		"SERV-4",     // capacity-stressed
		"300.twolf",  // hard: controller must throttle saturation
		"164.gzip",   //
	} {
		tr, err := repro.TraceByName(name)
		if err != nil {
			log.Fatal(err)
		}
		// awindow=8192, a smaller evaluation window than the default:
		// visible adaptation on short runs.
		b, err := repro.New("tage-16K?mode=adaptive&awindow=8192")
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.Run(b, tr, 300000)
		if err != nil {
			log.Fatal(err)
		}
		hi := res.Level(repro.High)
		fmt.Printf("%-14s 1/%-10.0f %-12.3f %-12.1f %d\n",
			name,
			1/res.FinalProbability,
			metrics.Pcov(hi, res.Total),
			hi.MKP(),
			b.(*repro.Estimator).Controller().Adjustments())
	}

	fmt.Println()
	fmt.Println("Predictable traces keep a high saturation probability (large coverage);")
	fmt.Println("hard traces drive it toward 1/1024 to keep the high class clean.")
}
