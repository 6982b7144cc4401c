// Command reprotables regenerates the tables and figures of the paper
// (Seznec, "Storage Free Confidence Estimation for the TAGE branch
// predictor", HPCA 2011) from the synthetic workload suites.
//
// Usage:
//
//	reprotables -experiment table1
//	reprotables -experiment all -branches 600000
//	reprotables -experiment all -parallel 4
//	reprotables -listnames
//
// -listnames prints every experiment name (experiments.Names()); "all"
// runs them all.
//
// -parallel sets the simulation worker count (0 = GOMAXPROCS, 1 = serial).
// The run plans every simulation the chosen experiments read, then
// executes the plan trace by trace across the pool: each trace is read
// once, every distinct (config, options, trace) simulation runs exactly
// once, and output is byte-identical at every worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		name     = flag.String("experiment", "all", "experiment to regenerate (see -listnames)")
		branches = flag.Uint64("branches", experiments.DefaultLimit, "branch records per trace (0 = full trace)")
		parallel = flag.Int("parallel", 0, "simulation workers for the experiment and trace axes (0 = GOMAXPROCS, 1 = serial)")
		list     = flag.Bool("listnames", false, "list experiment names and exit")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	runner := experiments.NewWorkers(*branches, *parallel)
	start := time.Now()
	out, err := runner.Run(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprotables:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		payload := map[string]any{
			"experiment":       *name,
			"branchesPerTrace": *branches,
			"results":          out,
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "reprotables:", err)
			os.Exit(1)
		}
	} else {
		for i, r := range out {
			if i > 0 {
				fmt.Println()
			}
			r.Render(os.Stdout)
		}
	}
	fmt.Fprintf(os.Stderr, "\n[%s in %.1fs, %d branch records per trace]\n",
		*name, time.Since(start).Seconds(), *branches)
}
