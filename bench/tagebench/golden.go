package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// goldenFS holds the committed expected results, one file per per-trace
// record limit.
//
//go:embed testdata/golden_*.json
var goldenFS embed.FS

// goldenModes are the automaton modes the workloads run: offline-suite
// uses standard and adaptive, the serving workloads probabilistic.
var goldenModes = []core.AutomatonMode{core.ModeStandard, core.ModeProbabilistic, core.ModeAdaptive}

// tally is one (spec, trace) simulation result as the goldens record it.
type tally struct {
	Spec         string `json:"spec"`
	Trace        string `json:"trace"`
	Branches     uint64 `json:"branches"`
	Instructions uint64 `json:"instructions"`
	Misses       uint64 `json:"misses"`
	// Class holds (predictions, mispredictions) per confidence class, in
	// core.Class order.
	Class [core.NumClasses][2]uint64 `json:"class"`
}

func tallyOf(spec string, r sim.Result) tally {
	t := tally{Spec: spec, Trace: r.Trace, Branches: r.Branches, Instructions: r.Instructions, Misses: r.Total.Misps}
	for c := range t.Class {
		t.Class[c] = [2]uint64{r.Class[c].Preds, r.Class[c].Misps}
	}
	return t
}

func (t tally) key() string { return t.Spec + "|" + t.Trace }

// goldens are the expected results of every workload at one per-trace
// record limit. They are generated from offline simulation only, so the
// serving workloads checking against them is the online == offline check.
type goldens struct {
	Limit uint64 `json:"limit"`
	// TraceSims and TraceHits are the reproduce-all memo counts.
	TraceSims uint64 `json:"trace_sims"`
	TraceHits uint64 `json:"trace_hits"`
	// Renders maps each experiment to the SHA-256 of its render.
	Renders map[string]string `json:"renders"`
	Tallies []tally           `json:"tallies"`

	index map[string]tally
}

// specName is the canonical backend spec of a TAGE configuration and mode.
func specName(cfg tage.Config, mode core.AutomatonMode) string {
	return predictor.TAGESpec(cfg, core.Options{Mode: mode}).String()
}

func goldenFile(limit uint64) string { return fmt.Sprintf("golden_%d.json", limit) }

// loadGoldens parses the embedded goldens for limit.
func loadGoldens(limit uint64) (*goldens, error) {
	data, err := goldenFS.ReadFile("testdata/" + goldenFile(limit))
	if err != nil {
		return nil, fmt.Errorf("no goldens for limit %d (regenerate with -update-golden): %w", limit, err)
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse goldens: %w", err)
	}
	g.reindex()
	return &g, nil
}

func (g *goldens) reindex() {
	g.index = make(map[string]tally, len(g.Tallies))
	for _, t := range g.Tallies {
		g.index[t.key()] = t
	}
}

// check compares one result against its golden.
func (g *goldens) check(spec string, r sim.Result) error {
	got := tallyOf(spec, r)
	want, ok := g.index[got.key()]
	if !ok {
		return fmt.Errorf("no golden for %s on %s", spec, r.Trace)
	}
	if got != want {
		return fmt.Errorf("%s on %s: got %+v, golden %+v", spec, r.Trace, got, want)
	}
	return nil
}

// checkRender compares one experiment's render hash against its golden.
func (g *goldens) checkRender(name, sum string) error {
	if want := g.Renders[name]; sum != want {
		return fmt.Errorf("experiment %s: render sha256 %s, golden %q", name, sum, want)
	}
	return nil
}

// table1MPKIs are the paper-reproduction headline numbers at the 150k
// record limit: CBP-1 at 16K, 64K and 256K, then CBP-2 at 256K.
var table1MPKIs = [4]string{"4.385", "3.560", "3.371", "4.122"}

// table1Limit is the record limit the Table 1 MPKIs are pinned at.
const table1Limit = 150_000

// checkTable1 asserts the Table 1 MPKIs when the run is at their limit.
func checkTable1(limit uint64, t experiments.Table1) error {
	if limit != table1Limit {
		return nil
	}
	if len(t.Rows) != 3 {
		return fmt.Errorf("table1: %d rows, want 3", len(t.Rows))
	}
	got := [4]string{
		fmt.Sprintf("%.3f", t.Rows[0].CBP1MPKI),
		fmt.Sprintf("%.3f", t.Rows[1].CBP1MPKI),
		fmt.Sprintf("%.3f", t.Rows[2].CBP1MPKI),
		fmt.Sprintf("%.3f", t.Rows[2].CBP2MPKI),
	}
	if got != table1MPKIs {
		return fmt.Errorf("table1 MPKIs %v, paper reproduction pins %v", got, table1MPKIs)
	}
	return nil
}

// renderHash renders r and returns the SHA-256 of the output.
func renderHash(r experiments.Renderer) string {
	h := sha256.New()
	r.Render(h)
	return hex.EncodeToString(h.Sum(nil))
}

// digest hashes a run's results in a canonical order, so two runs that
// differ only in the order work was done agree.
func digest(tallies []tally, renders map[string]string) string {
	sorted := append([]tally(nil), tallies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key() < sorted[j].key() })
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, t := range sorted {
		enc.Encode(t) // hash.Hash writes never fail
	}
	for _, n := range sortedKeys(renders) {
		io.WriteString(h, n+"="+renders[n]+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildGoldens computes the goldens for limit from offline simulation:
// sim.Run over every trace × standard configuration × mode, plus one
// reproduce-all pass for the render hashes and memo counts.
func buildGoldens(limit uint64, workers int) (*goldens, error) {
	var jobs []sim.Job
	var specs []string
	for _, tr := range workload.All() {
		for _, cfg := range tage.StandardConfigs() {
			for _, m := range goldenModes {
				jobs = append(jobs, sim.Job{Cfg: cfg, Opts: core.Options{Mode: m}, Trace: tr, Limit: limit})
				specs = append(specs, specName(cfg, m))
			}
		}
	}
	results, err := sim.SuiteRunner{Workers: workers}.RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	g := &goldens{Limit: limit, Renders: make(map[string]string)}
	for i, r := range results {
		g.Tallies = append(g.Tallies, tallyOf(specs[i], r))
	}
	r := experiments.NewWorkers(limit, workers)
	for _, name := range experimentNames() {
		out, err := r.Run(name)
		if err != nil {
			return nil, err
		}
		g.Renders[name] = renderHash(out[0])
	}
	g.TraceSims, g.TraceHits = r.Simulations(), r.TraceHits()
	g.reindex()
	return g, nil
}

// marshal encodes the goldens with one tally per line, so a changed count
// shows as a one-line diff.
func (g *goldens) marshal() ([]byte, error) {
	var b bytes.Buffer
	renders, err := json.MarshalIndent(g.Renders, "  ", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "{\n  \"limit\": %d,\n  \"trace_sims\": %d,\n  \"trace_hits\": %d,\n  \"renders\": %s,\n  \"tallies\": [\n",
		g.Limit, g.TraceSims, g.TraceHits, renders)
	lines := make([]string, len(g.Tallies))
	for i, t := range g.Tallies {
		line, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		lines[i] = "    " + string(line)
	}
	b.WriteString(strings.Join(lines, ",\n"))
	b.WriteString("\n  ]\n}\n")
	return b.Bytes(), nil
}

// updateGoldens regenerates the golden file for limit into dir.
func updateGoldens(dir string, limit uint64, workers int) error {
	g, err := buildGoldens(limit, workers)
	if err != nil {
		return err
	}
	data, err := g.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile(limit)), data, 0o644)
}
