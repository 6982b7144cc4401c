package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeScale is the -scale the tests run workloads at (3000 branches per
// trace), for which goldens are committed.
const smokeScale = "0.005"

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.99); !near(q, 9.9) {
		t.Errorf("p99 of {0,10} = %v, want 9.9", q)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
}

func TestRungDifferences(t *testing.T) {
	l := &ladder{samples: map[string][]float64{}}
	set := func(name string, v ...float64) { l.samples[name] = v }
	for _, cfg := range ladderConfigs {
		set("base."+cfg, 2, 2, 2)
		set("tage."+cfg, 100, 102, 98)
		set("estimator."+cfg, 110, 111, 109)
		set("sim."+cfg, 125, 120, 130)
	}
	set("workload.generate", 40, 41, 39)
	for _, b := range []string{"b1024", "b64"} {
		set("serve.session."+b, 135, 136, 134)
		set("serve.client_encode."+b, 5, 5, 5)
		set("serve.server_decode."+b, 9, 9, 9)
		set("serve.server_encode."+b, 1, 1, 1)
		set("serve.client_decode."+b, 6, 6, 6)
		set("serve.rtt."+b, 200, 190, 210)
	}
	// The estimator rung at 16K is cheaper than raw TAGE by far more than
	// its own spread: one inversion.
	set("estimator.16K", 80, 81, 79)
	l.speedups = []float64{1.5, 1.9, 1.8}
	m := l.result().metrics
	want := map[string]float64{
		"tage.predict_update_ns_per_branch.64K": 98,
		"core.estimator_ns_per_branch.64K":      10,
		"core.estimator_ns_per_branch.16K":      -20,
		"sim.tally_ns_per_branch":               15,
		"sim.ladder_total_ns_per_branch.256K":   125,
		"serve.session_ns_per_branch.b64":       10,
		"serve.socket_ns_per_branch.b1024":      200 - (135 + 5 + 9 + 1 + 6),
		"serve.ladder_total_ns_per_branch.b64":  200,
		"workload.generate_ns_per_branch":       40,
		"sim.parallel_speedup":                  1.8,
		"bench.ladder_inversions":               1,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 4, Start: 95, End: 100},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 30 - 10, 2: 20, 3: 20, 4: 25, 5: 5, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root.id)
	child.end()
	if d := root.end(); d <= 0 {
		t.Fatalf("root duration %v", d)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[1].Parent != 0 {
		t.Fatalf("spans %+v: want child under root", spans)
	}
	var nilTracer *tracer
	if d := nilTracer.begin("x", 0).end(); d < 0 || nilTracer.snapshot() != nil {
		t.Fatalf("nil tracer must time without recording")
	}
}

func TestNormalizeCPU(t *testing.T) {
	for in, want := range map[string]string{
		" Intel(R) Xeon(R) Processor @ 2.70GHz":         "Intel(R) Xeon(R) Processor",
		"Intel(R) Xeon(R) Processor":                    "Intel(R) Xeon(R) Processor",
		"AMD EPYC 7B13  64-Core   Processor":            "AMD EPYC 7B13 64-Core Processor",
		"Intel(R) Core(TM) i7-8650U CPU @ 1900MHz\t":    "Intel(R) Core(TM) i7-8650U CPU",
		"Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz foo": "Intel(R) Xeon(R) CPU E5-2686 v4 foo",
	} {
		if got := normalizeCPU(in); got != want {
			t.Errorf("normalizeCPU(%q) = %q, want %q", in, got, want)
		}
	}
	h := host{CPU: "X", NumCPU: 2, GOMAXPROCS: 2}
	if h.key() != "X|nproc=2|gomaxprocs=2" {
		t.Errorf("host key %q", h.key())
	}
}

func TestCompareVerdict(t *testing.T) {
	ramp := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	lower := gate{better: "lower", bound: 0.05}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		g              gate
		want           string
	}{
		{"clear gain", ramp(100, 0.2), ramp(90, 0.2), lower, "improved"},
		{"clear loss", ramp(100, 0.2), ramp(110, 0.2), lower, "regressed"},
		{"within bound", ramp(100, 0.2), ramp(101, 0.2), lower, "unchanged"},
		{"higher is better", ramp(100, 0.2), ramp(110, 0.2), gate{better: "higher", bound: 0.05}, "improved"},
		{"parent too noisy", ramp(100, 5), ramp(99, 5), lower, "unresolved"},
		{"noisy but dominated", ramp(100, 5), ramp(50, 1), lower, "improved"},
		{"too few pairs", ramp(100, 0.2)[:9], ramp(90, 0.2)[:9], lower, "unresolved"},
		{"per-layer worse", ramp(100, 0.2), ramp(110, 0.2), gate{better: "lower"}, "worsened"},
		// Wins in only half the pairs: no gain claimed.
		{"half wins", ramp(100, 0.2), []float64{99, 99, 99, 99, 99, 101, 101, 101, 101, 101}, lower, "unchanged"},
	} {
		if got, _, _ := verdict(tc.parent, tc.change, tc.g); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesRejectsMixedHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, host string, v float64) string {
		p := filepath.Join(dir, name)
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			b.WriteString(`{"workload":"w","host":"` + host + `"}` + "\n")
			line, _ := json.Marshal(map[string]any{"workload": "w", "metric": "wall_s", "value": v, "unit": "s"})
			b.Write(append(line, '\n'))
		}
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareFiles(&out, write("a", "h1", 2), write("b", "h1", 1), bench); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "improved") {
		t.Errorf("compare output lacks the improved wall_s row:\n%s", out.String())
	}
	if err := compareFiles(&out, write("c", "h1", 2), write("d", "h2", 1), bench); err == nil {
		t.Error("runs from different hosts were compared")
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (names []string, e2e, perLayer []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	return names, bj.EndToEnd, bj.PerLayer
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	names, e2e, perLayer := benchmarkJSON(t)
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v\ncommand prints %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(perLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v\ncommand prints %v", perLayer, perLayerMetrics)
	}
}

// runCLI runs the command in-process and returns its result line.
func runCLI(t *testing.T, args ...string) (code int, result map[string]any, stdout string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-scale", smokeScale, "-seconds", "0", "-workdir", t.TempDir())
	code = run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("%v: last line %q is not JSON: %v (stderr %s)", args, lines[len(lines)-1], err, errb.String())
	}
	return code, result, out.String()
}

func metricNames(result map[string]any) []string {
	var names []string
	for k := range result["metrics"].(map[string]any) {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs all four workloads untraced and checks the result line
// against the benchmark contract.
func TestSmoke(t *testing.T) {
	start := time.Now()
	_, e2e, _ := benchmarkJSON(t)
	for _, w := range workloads {
		code, res, _ := runCLI(t, "-workload", w.name, "-seed", "1", "-trace", "0")
		if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
			t.Errorf("%s: exit %d, result %v", w.name, code, res)
		}
		if len(res) != 4 {
			t.Errorf("%s: result keys %v, want correct, attempted, failed, metrics", w.name, res)
		}
		if got, want := metricNames(res), defNames(e2e); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics %v, want %v", w.name, got, want)
		}
		for name, v := range res["metrics"].(map[string]any) {
			if v.(map[string]any)["value"].(float64) <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("smoke run of four workloads took %v, budget 5s", d)
	}
}

// TestTracedSmoke runs each workload traced and checks that every
// per-layer metric is printed.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ladder four times")
	}
	_, _, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		code, res, stdout := runCLI(t, "-workload", w.name, "-trace", "1")
		if code != 0 || res["correct"] != true {
			t.Errorf("%s traced: exit %d, result %v", w.name, code, res)
		}
		if got, want := metricNames(res), defNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced: metrics %v, want %v", w.name, got, want)
		}
		if !strings.Contains(stdout, `"rung":"serve.rtt.b64"`) {
			t.Errorf("%s traced: no ladder rung lines", w.name)
		}
	}
}

// TestGoldenMismatchFails alters one golden each workload checks and
// requires the run to fail.
func TestGoldenMismatchFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		spec     string // tally to alter; empty alters the render hash
	}{
		{"offline-suite", "tage-256K?mode=adaptive"},
		{"reproduce-all", ""},
		{"serve-stream", "tage-16K?mode=probabilistic"},
		{"serve-durable", "tage-64K?mode=probabilistic"},
	} {
		g, err := loadGoldens(3000)
		if err != nil {
			t.Fatal(err)
		}
		if tc.spec == "" {
			g.Renders["fig4"] = strings.Repeat("0", 64)
		} else {
			altered := false
			for i := range g.Tallies {
				if g.Tallies[i].Spec == tc.spec && g.Tallies[i].Trace == "181.mcf" {
					g.Tallies[i].Class[3][1]++
					altered = true
				}
			}
			if !altered {
				t.Fatalf("no golden for %s on 181.mcf", tc.spec)
			}
			g.reindex()
		}
		c := &config{workload: tc.workload, seed: 1, limit: 3000, workers: 2, workdir: t.TempDir(), gold: g}
		rep := runWorkload(c, false, "")
		if rep.err == nil || rep.failed == 0 {
			t.Errorf("%s: run passed against an altered golden (failed=%d, err=%v)", tc.workload, rep.failed, rep.err)
		}
		var out bytes.Buffer
		if err := printReport(&out, rep); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line does not report the failure", tc.workload)
		}
	}
}

// TestSeedInvariance checks that the seed orders the work without
// changing any result.
func TestSeedInvariance(t *testing.T) {
	for _, w := range workloads {
		var digests []string
		for _, seed := range []uint64{1, 7} {
			c := &config{workload: w.name, seed: seed, limit: 3000, workers: 2, workdir: t.TempDir()}
			rep := runWorkload(c, false, "")
			if rep.err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, rep.err)
			}
			digests = append(digests, rep.digest)
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: seeds 1 and 7 give digests %q and %q", w.name, digests[0], digests[1])
		}
	}
}

func TestSeedChangesOrder(t *testing.T) {
	a := shuffled(1, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	b := shuffled(7, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 7 give the same order %v", a)
	}
	if !reflect.DeepEqual(a, shuffled(1, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})) {
		t.Error("the same seed gave two orders")
	}
}
