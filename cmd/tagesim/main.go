// Command tagesim runs a branch predictor over a synthetic trace or a
// whole suite and reports accuracy with the confidence-class breakdown.
// The -backend flag names the predictor by spec; any registered backend
// runs.
//
// Usage:
//
//	tagesim -trace 300.twolf
//	tagesim -backend "tage-16K?mode=probabilistic" -suite cbp1 -branches 200000
//	tagesim -backend bimodal-64K -suite cbp2
//	tagesim -backend "tage-16K?mode=adaptive&mkp=4" -trace 181.mcf
//	tagesim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func main() {
	var (
		spec      = flag.String("backend", "tage-64K", "backend spec, e.g. tage-16K?mode=adaptive, bimodal-64K, perceptron (see -list)")
		traceName = flag.String("trace", "", "single trace to simulate (see -list)")
		suiteName = flag.String("suite", "", "suite to simulate: cbp1, cbp2 or all")
		branches  = flag.Uint64("branches", 0, "branch records per trace (0 = full trace)")
		parallel  = flag.Int("parallel", 0, "simulation workers for suite runs (0 = GOMAXPROCS, 1 = serial)")
		timings   = flag.Bool("timings", false, "report per-trace wall-time quantiles for suite runs")
		list      = flag.Bool("list", false, "list available backends and traces, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("backends (-backend FAMILY[-VARIANT][?key=value&...]):")
		for _, f := range predictor.Families() {
			variants := "no variants"
			if len(f.Variants) > 0 {
				variants = "variants: " + strings.Join(f.Variants, ", ")
			}
			fmt.Printf("  %-11s %s\n              %s; params: %s\n", f.Name, f.Summary, variants, f.ParamsHelp)
		}
		fmt.Println("suites: cbp1, cbp2, all")
		fmt.Printf("traces: %s\n", strings.Join(workload.TraceNames(), ", "))
		return
	}

	probe, sp, err := predictor.New(*spec)
	if err != nil {
		fatal(err)
	}

	switch {
	case *traceName != "":
		tr, err := workload.ByName(*traceName)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(probe, tr, *branches)
		if err != nil {
			fatal(err)
		}
		report(res)
	case *suiteName != "":
		traces, err := workload.Suite(*suiteName)
		if err != nil {
			fatal(err)
		}
		pool := sim.SuiteRunner{Workers: *parallel}
		if *timings {
			pool.JobTime = &obs.Histogram{}
		}
		sr, err := pool.RunSuiteSpec(sp, traces, *branches)
		if err != nil {
			fatal(err)
		}
		var rows [][]string
		var mpkis []float64
		for _, res := range sr.PerTrace {
			rows = append(rows, []string{res.Trace, fmt.Sprintf("%.2f", res.MPKI()),
				fmt.Sprintf("%.1f", res.Total.MKP())})
			mpkis = append(mpkis, res.MPKI())
		}
		textplot.Table(os.Stdout, fmt.Sprintf("%s on %s (%v automaton)", probe.Label(), *suiteName, predictor.ModeOf(probe)),
			[]string{"trace", "misp/KI", "MKP"}, rows)
		fmt.Printf("\nper-trace misp/KI: %s\n\n", metrics.Summarize(mpkis))
		if h := pool.JobTime; h != nil {
			fmt.Printf("per-trace wall time: n=%d p50=%v p90=%v p99=%v max=%v\n\n",
				h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Quantile(1))
		}
		report(sr.Aggregate)
	default:
		fatal(fmt.Errorf("specify -trace or -suite (or -list)"))
	}
}

func report(res sim.Result) {
	fmt.Printf("%s, %s, %v automaton: %d branches, %.2f misp/KI (%.1f MKP)\n",
		res.Trace, res.Config, res.Mode, res.Branches, res.MPKI(), res.Total.MKP())
	var rows [][]string
	for _, c := range core.Classes() {
		rows = append(rows, []string{
			c.String(), c.Level().String(),
			fmt.Sprintf("%.3f", res.Pcov(c)),
			fmt.Sprintf("%.3f", res.MPcov(c)),
			fmt.Sprintf("%.1f", res.MPrate(c)),
		})
	}
	textplot.Table(os.Stdout, "prediction classes",
		[]string{"class", "level", "Pcov", "MPcov", "MPrate (MKP)"}, rows)
	var lrows [][]string
	for _, l := range core.Levels() {
		lc := res.Level(l)
		lrows = append(lrows, []string{
			l.String(),
			fmt.Sprintf("%.3f", metrics.Pcov(lc, res.Total)),
			fmt.Sprintf("%.3f", metrics.MPcov(lc, res.Total)),
			fmt.Sprintf("%.1f", lc.MKP()),
		})
	}
	textplot.Table(os.Stdout, "confidence levels",
		[]string{"level", "Pcov", "MPcov", "MPrate (MKP)"}, lrows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tagesim:", err)
	os.Exit(1)
}
