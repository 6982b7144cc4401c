// Command confsim runs the confidence-estimation comparisons: a
// confidence-graded backend in binary (high vs not-high) mode against
// the JRS storage-based baselines over the same predictions, reporting
// Grunwald et al.'s SENS/PVP/SPEC/PVN quality metrics, and the adaptive
// controller's probability trajectory.
//
// The graded row defaults to the paper's storage-free estimator on
// probabilistic TAGE; -backend swaps in any registered backend
// ("perceptron", "ogehl", "gshare-64K", ...), with the JRS baselines
// re-grading that backend's prediction stream.
//
// Usage:
//
//	confsim -config 16K -suite cbp1
//	confsim -backend perceptron -suite cbp1
//	confsim -config 64K -trace 300.twolf -adaptive
//
// -parallel sets the simulation worker count (0 = GOMAXPROCS, 1 = serial)
// for both modes: the comparison fans the (estimator × trace) matrix out
// across the pool, and the -adaptive trajectory fans its per-trace runs
// out with order-preserving output. Results are byte-identical at every
// worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/jrs"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		bf        = predictor.AddBackendFlags(flag.CommandLine, "16K", "probabilistic")
		suiteName = flag.String("suite", "cbp1", "suite: cbp1, cbp2 or all")
		traceName = flag.String("trace", "", "single trace instead of a suite")
		branches  = flag.Uint64("branches", 0, "branch records per trace (0 = full)")
		parallel  = flag.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS, 1 = serial)")
		adaptive  = flag.Bool("adaptive", false, "show the adaptive controller trajectory instead")
	)
	flag.Parse()

	var traces []trace.Trace
	if *traceName != "" {
		tr, err := workload.ByName(*traceName)
		if err != nil {
			fatal(err)
		}
		traces = []trace.Trace{tr}
	} else {
		var err error
		traces, err = workload.Suite(*suiteName)
		if err != nil {
			fatal(err)
		}
	}

	pool := sim.SuiteRunner{Workers: *parallel}
	if *adaptive {
		// The trajectory is the §6.2 TAGE adaptive controller; there is
		// no backend-agnostic equivalent, so an explicit -backend is a
		// contradiction rather than something to silently ignore.
		if bf.Explicit() {
			fatal(fmt.Errorf("-adaptive shows the TAGE adaptive-controller trajectory and is incompatible with -backend (use -config)"))
		}
		cfg, err := tage.ConfigByName(*bf.Config)
		if err != nil {
			fatal(err)
		}
		trajectory(pool, cfg, traces, *branches)
		return
	}
	spec, err := bf.Spec()
	if err != nil {
		fatal(err)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		fatal(err)
	}
	compare(pool, sp, bf.Explicit(), traces, *branches)
}

func compare(pool sim.SuiteRunner, sp predictor.Spec, explicitBackend bool, traces []trace.Trace, limit uint64) {
	probe, err := predictor.Build(sp)
	if err != nil {
		fatal(err)
	}
	label := probe.Label()
	// The JRS baselines grade a raw prediction stream. Without -backend
	// that stream is the paper's: the unmodified standard-automaton TAGE
	// predictor (the graded row wraps the probabilistic estimator of the
	// same configuration). With -backend both rows run over the named
	// backend.
	substrate := func() predictor.Backend {
		b, err := predictor.Build(sp)
		if err != nil {
			fatal(err)
		}
		return b
	}
	if !explicitBackend {
		cfg := probe.(*core.Estimator).Predictor().Config()
		substrate = func() predictor.Backend { return core.NewEstimator(cfg, core.Options{}) }
	}
	type estimatorRun struct {
		name    string
		storage int
		run     func(tr trace.Trace) (metrics.Binary, error)
	}
	runs := []estimatorRun{
		{
			name: fmt.Sprintf("%s self-confidence (high vs rest)", label), storage: 0,
			run: func(tr trace.Trace) (metrics.Binary, error) {
				res, err := sim.RunSpec(sp, tr, limit)
				return res.Binary(), err
			},
		},
		{
			name: "JRS 4-bit (1K entries)", storage: jrs.NewDefault(10, 10).StorageBits(),
			run: func(tr trace.Trace) (metrics.Binary, error) {
				res, err := sim.RunBinary(substrate(), jrs.NewDefault(10, 10), tr, limit)
				return res.Confusion, err
			},
		},
		{
			name: "JRS 4-bit enhanced", storage: jrs.NewDefault(10, 10).StorageBits(),
			run: func(tr trace.Trace) (metrics.Binary, error) {
				res, err := sim.RunBinary(substrate(), jrs.NewDefault(10, 10).Enhanced(), tr, limit)
				return res.Confusion, err
			},
		},
	}
	// The full (estimator × trace) matrix fans out across the pool;
	// per-cell confusions are merged in estimator-major, trace-minor
	// order, so the table is identical at any worker count.
	cells := make([]metrics.Binary, len(runs)*len(traces))
	if err := pool.ForEach(len(cells), func(i int) error {
		conf, err := runs[i/len(traces)].run(traces[i%len(traces)])
		if err != nil {
			return err
		}
		cells[i] = conf
		return nil
	}); err != nil {
		fatal(err)
	}
	var rows [][]string
	for ei, er := range runs {
		var total metrics.Binary
		for ti := range traces {
			total.Add(cells[ei*len(traces)+ti])
		}
		rows = append(rows, []string{
			er.name, fmt.Sprintf("%d bits", er.storage),
			fmt.Sprintf("%.3f", total.Sens()),
			fmt.Sprintf("%.3f", total.PVP()),
			fmt.Sprintf("%.3f", total.Spec()),
			fmt.Sprintf("%.3f", total.PVN()),
		})
	}
	textplot.Table(os.Stdout,
		fmt.Sprintf("binary confidence estimation on %s (%d traces)", label, len(traces)),
		[]string{"estimator", "extra storage", "SENS", "PVP", "SPEC", "PVN"}, rows)
}

// trajectory fans the independent per-trace adaptive runs out across the
// pool, collecting each trace's line into its own slot so output order
// (and content) is identical to a serial loop at any worker count.
func trajectory(pool sim.SuiteRunner, cfg tage.Config, traces []trace.Trace, limit uint64) {
	lines := make([]string, len(traces))
	if err := pool.ForEach(len(traces), func(i int) error {
		tr := traces[i]
		est := core.NewEstimator(cfg, core.Options{Mode: core.ModeAdaptive})
		res, err := sim.Run(est, tr, limit)
		if err != nil {
			return err
		}
		hi := res.Level(core.High)
		lines[i] = fmt.Sprintf("%-14s final probability 1/%.0f  adjustments %d  high: Pcov %.3f MPrate %.1f MKP\n",
			tr.Name(), 1/res.FinalProbability, est.Controller().Adjustments(),
			metrics.Pcov(hi, res.Total), hi.MKP())
		return nil
	}); err != nil {
		fatal(err)
	}
	for _, line := range lines {
		fmt.Print(line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confsim:", err)
	os.Exit(1)
}
