// Command tagebench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks every result
// against committed goldens, and prints every metric by name with its
// unit:
//
//	go run ./tagebench -workload offline-suite -seed 1 -seconds 15
//
// With -trace 1 the same workload also runs traced, followed by the layer
// ladder, and the per-layer metrics are printed instead. -compare reads
// the output of paired runs of two commits and gives a verdict per
// metric. See ../README.md for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/workload"
)

// fullLength is the per-trace record count -scale is relative to.
const fullLength = workload.SuiteLength

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	limit    uint64 // per-trace record limit
	seconds  float64
	workers  int
	workdir  string // scratch space for durable-session state
	// gold overrides the embedded goldens (tests inject altered ones).
	gold *goldens
}

// instance is a workload that has been set up and can run passes.
type instance interface {
	// pass runs the workload's fixed work list once, checking every
	// result against the goldens, and accounts for it in rec.
	pass(tr *tracer, rec *passRecord) error
	// layers derives the workload's per-layer metrics from the spans of
	// its traced passes; totalPasses counts every pass of the run.
	layers(spans []span, totalPasses int) map[string]float64
	// close releases what setup acquired.
	close() error
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	setup func(c *config, g *goldens) (instance, error)
}

var workloads = []workloadDef{
	{"offline-suite", setupOfflineSuite},
	{"reproduce-all", setupReproduceAll},
	{"serve-stream", setupServeStream},
	{"serve-durable", setupServeDurable},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// passRecord is what one pass did.
type passRecord struct {
	wall      time.Duration
	peakRSS   float64 // MiB, the pass's resident high-water mark
	branches  uint64  // branches put through a predictor
	latencies []int64 // ns per request: a job, an experiment or a batch
	attempted uint64  // operations tried
	failed    uint64  // operations that failed
	tallies   []tally
	renders   map[string]string
}

// measure runs passes until the time budget is spent (at least one; the
// pass in flight when the budget runs out completes). Each pass's peak
// resident set is taken on its own, so one burst cannot set the run's
// figure.
func measure(inst instance, seconds float64, tr *tracer) ([]passRecord, error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var passes []passRecord
	for {
		var rec passRecord
		resetPeakRSS()
		t := time.Now()
		err := inst.pass(tr, &rec)
		rec.wall = time.Since(t)
		rec.peakRSS = peakRSSMiB()
		passes = append(passes, rec)
		if err != nil || time.Since(start) >= budget {
			return passes, err
		}
	}
}

// report is the outcome of one run.
type report struct {
	meta      map[string]any
	metrics   []metricValue
	rungs     []rungResult
	passWalls map[string][]float64 // seconds per pass, untraced and traced
	attempted uint64
	failed    uint64
	digest    string
	err       error
}

type metricValue struct {
	Name  string
	Unit  string
	Value float64
}

// runWorkload sets the workload up, measures it and, when traced, runs
// it again with spans and then the layer ladder.
func runWorkload(c *config, traced bool, spansPath string) *report {
	h := currentHost()
	rep := &report{meta: map[string]any{
		"workload": c.workload, "seed": c.seed, "limit": c.limit,
		"scale": float64(c.limit) / fullLength, "seconds": c.seconds,
		"trace": traced, "workers": c.workers,
		"cpu": h.CPU, "nproc": h.NumCPU, "gomaxprocs": h.GOMAXPROCS, "go": h.GoVersion, "host": h.key(),
	}}
	def, err := lookupWorkload(c.workload)
	if err != nil {
		rep.err = err
		return rep
	}

	var inst instance
	var g *goldens
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				rep.err = err
				return rep
			}
		}
		t := time.Now()
		g = c.gold
		if g == nil {
			if g, err = loadGoldens(c.limit); err != nil {
				rep.err = err
				return rep
			}
		}
		if inst, err = def.setup(c, g); err != nil {
			rep.err = fmt.Errorf("setup: %w", err)
			return rep
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() {
		if inst == nil {
			return
		}
		if err := inst.close(); err != nil && rep.err == nil {
			rep.err = err
		}
	}()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes, err := measure(inst, c.seconds, nil)
	runtime.ReadMemStats(&ms1)
	rep.account("pass_s", passes)
	if err != nil {
		rep.err = err
		return rep
	}
	untraced := passMetrics(passes)
	if !traced {
		rep.metrics = pick(endToEndMetrics, map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         untraced.wall,
			"branches_per_s": untraced.rate,
			"latency_p50_ms": untraced.latencyP50,
			"peak_rss_mb":    untraced.peakRSS,
		})
		return rep
	}

	tr := newTracer()
	tracedPasses, err := measure(inst, c.seconds, tr)
	rep.account("traced_pass_s", tracedPasses)
	if err != nil {
		rep.err = err
		return rep
	}
	values := inst.layers(tr.snapshot(), len(passes)+len(tracedPasses))
	var branches uint64
	for _, p := range passes {
		branches += p.branches
	}
	values["go.alloc_bytes_per_branch"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(branches, 1))
	values["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(len(passes))
	values["bench.trace_overhead_frac"] = passMetrics(tracedPasses).wall/untraced.wall - 1

	// The workload's servers and background loops stop before the ladder
	// times single calls.
	err = inst.close()
	inst = nil
	if err != nil {
		rep.err = err
		return rep
	}
	lad, err := runLadder(c, g, tr)
	rep.attempted += lad.attempted
	if err != nil {
		rep.failed++
		rep.err = fmt.Errorf("ladder: %w", err)
		return rep
	}
	for k, v := range lad.metrics {
		values[k] = v
	}
	rep.rungs = lad.rungs
	rep.metrics = pick(perLayerMetrics, values)
	if spansPath != "" {
		if err := tr.writeFile(spansPath); err != nil {
			rep.err = fmt.Errorf("write spans: %w", err)
		}
	}
	return rep
}

// account adds passes' times and operation counts, and the first pass's
// results digest, to the report.
func (r *report) account(kind string, passes []passRecord) {
	if r.passWalls == nil {
		r.passWalls = make(map[string][]float64)
	}
	for _, p := range passes {
		r.passWalls[kind] = append(r.passWalls[kind], p.wall.Seconds())
		r.attempted += p.attempted
		r.failed += p.failed
	}
	if r.digest == "" && len(passes) > 0 && passes[0].failed == 0 {
		r.digest = digest(passes[0].tallies, passes[0].renders)
	}
}

// pick lists defs in order with their values; a metric the run did not
// produce reads 0.
func pick(defs []metricDef, values map[string]float64) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		out[i] = metricValue{d.Name, d.Unit, values[d.Name]}
	}
	return out
}

// passSummary is the end-to-end view of a set of passes.
type passSummary struct {
	wall       float64 // median pass seconds
	rate       float64 // median branches per second
	latencyP50 float64 // ms, over every request of every pass
	peakRSS    float64 // median MiB
}

func passMetrics(passes []passRecord) passSummary {
	var walls, rates, rss, latMs []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rss = append(rss, p.peakRSS)
		rates = append(rates, float64(p.branches)/p.wall.Seconds())
		for _, ns := range p.latencies {
			latMs = append(latMs, float64(ns)/1e6)
		}
	}
	return passSummary{
		wall:       median(walls),
		rate:       median(rates),
		latencyP50: median(latMs),
		peakRSS:    median(rss),
	}
}

// shuffled returns a copy of xs in an order drawn from (seed, salt).
func shuffled[T any](seed, salt uint64, xs []T) []T {
	out := append([]T(nil), xs...)
	r := rand.New(rand.NewPCG(seed, salt))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// printReport writes the metadata line, one line per metric, the pass
// times, one line per ladder rung, and finally the one-object result line.
func printReport(w io.Writer, rep *report) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep.meta); err != nil {
		return err
	}
	name := rep.meta["workload"]
	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		if err := enc.Encode(map[string]any{"workload": name, "metric": m.Name, "value": m.Value, "unit": m.Unit}); err != nil {
			return err
		}
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, kind := range sortedKeys(rep.passWalls) {
		if err := enc.Encode(map[string]any{"workload": name, kind: rep.passWalls[kind]}); err != nil {
			return err
		}
	}
	for _, r := range rep.rungs {
		if err := enc.Encode(map[string]any{"workload": name, "rung": r.Name, "median_ns_per_branch": r.Median,
			"min_ns_per_branch": r.Min, "max_ns_per_branch": r.Max, "reps": r.Reps}); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{
		"correct":   rep.err == nil && rep.failed == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tagebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: offline-suite, reproduce-all, serve-stream or serve-durable")
	seed := fs.Uint64("seed", 1, "orders the work (never its content); seeds 1-5 are for development, others are held out")
	seconds := fs.Float64("seconds", 15, "time budget for the measured passes")
	traceFlag := fs.Int("trace", 0, "1 = also run traced and the layer ladder, and print per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans as JSON lines to this file")
	scale := fs.Float64("scale", 0.25, "per-trace length as a share of the full 600k-branch traces")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for durable-session state")
	compare := fs.Bool("compare", false, "compare two output files: -compare parent.jsonl change.jsonl")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file giving each metric's direction and bound")
	update := fs.Bool("update-golden", false, "regenerate testdata/golden_<limit>.json for -scale from offline simulation (run in this package's directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "tagebench: -compare takes two files: parent.jsonl change.jsonl")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), *benchJSON); err != nil {
			fmt.Fprintln(stderr, "tagebench:", err)
			return 1
		}
		return 0
	}
	limit := uint64(math.Round(*scale * fullLength))
	if limit == 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "tagebench: need -scale > 0 and -trace 0 or 1")
		return 2
	}
	if *update {
		if err := updateGoldens("testdata", limit, runtime.NumCPU()); err != nil {
			fmt.Fprintln(stderr, "tagebench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "tagebench:", err)
		return 1
	}
	// Simulation workers and serving connections both match the CPUs.
	c := &config{workload: *name, seed: *seed, limit: limit, seconds: *seconds, workers: runtime.NumCPU(), workdir: *workdir}
	rep := runWorkload(c, *traceFlag == 1, *spans)
	if rep.err != nil {
		fmt.Fprintln(stderr, "tagebench:", rep.err)
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "tagebench:", err)
		return 1
	}
	if rep.err != nil || rep.failed != 0 {
		return 1
	}
	return 0
}
