// Package compilerfacts gates the hot path on facts extracted from the
// compiler itself: bounds-check elimination, shift-guard elimination,
// escape analysis, and inlinability.
//
// The repo's performance contract ("as fast as the hardware allows",
// 0 allocs per branch) ultimately rests on compiler behavior that no
// source-level analyzer can see: whether the TAGE probe loop keeps a
// bounds check, whether a folded-history shift still carries an
// oversized-count guard, whether a receiver is moved to the heap, whether
// the entry accessors still inline. Benchmarks catch regressions of those
// facts only as a >10% latency drift several PRs later. This gate makes
// them explicit: `tagevet -facts` shells out to
//
//	go build -gcflags='-m=1 -d=ssa/check_bce/debug=1,ssa/prove/debug=1' <patterns>
//
// (cheap: Go's build cache replays compiler diagnostics on cached
// builds), parses the diagnostics, attributes them to //repro:hotpath
// functions, and compares the result against a committed golden
// (testdata/compilerfacts.golden). Shifts are matched the other way
// round: the syntax inventory lists every shift with a non-constant
// count, and each one the compiler does not report as "Proved …
// bounded" counts as unproven — it carries a CMP/SBB/AND guard. A named
// must-be-zero set — the TAGE probe/update loops and the history and
// counter helpers they run, the serve batch loop, the obs Observe/Record
// paths — additionally fails the gate on any unwaived bounds check,
// unproven shift or heap escape regardless of what the golden says, so a
// refresh cannot legitimize a regression there. Individual bounds-check
// sites are waived with //repro:allow-bce <why> (justification
// mandatory, stale waivers reported); unproven shifts have no waiver.
// The golden is keyed to the Go toolchain version: on a mismatched
// toolchain the gate skips with a warning instead of producing noise
// diffs.
package compilerfacts

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// GCFlags is the compiler flag set the gate builds with.
const GCFlags = "-m=1 -d=ssa/check_bce/debug=1,ssa/prove/debug=1"

// mustBeZero lists hotpath functions that may carry no unwaived bounds
// check, no unproven shift and no heap escape, golden or not: the
// per-branch TAGE loops and the history and counter helpers they run,
// the shared sim/serve branch step, the serve batch loop, and the
// observability record paths.
var mustBeZero = []string{
	"repro/internal/tage.Predictor.Predict",
	"repro/internal/tage.Predictor.Update",
	"repro/internal/tage.Predictor.allocate",
	"repro/internal/history.Folded.UpdateBits",
	"repro/internal/history.Path.Push",
	"repro/internal/counter.SignedMin",
	"repro/internal/counter.SignedMax",
	"repro/internal/counter.UpdateSigned",
	"repro/internal/counter.IncUnsigned",
	"repro/internal/counter.DecUnsigned",
	"repro/internal/counter.Standard.Update",
	"repro/internal/counter.Probabilistic.Update",
	"repro/internal/sim.Result.Step",
	"repro/internal/serve.Session.step",
	"repro/internal/serve.Session.Serve",
	"repro/internal/obs.Histogram.Observe",
	"repro/internal/obs.Histogram.ObserveValue",
	"repro/internal/obs.FlightRecorder.Record",
}

// inlineAllowList names the leaf helpers whose inlinability the golden
// tracks, in the compiler's own spelling: losing "can inline" on any of
// these adds a call per branch.
var inlineAllowList = []struct {
	Pkg  string
	Name string
}{
	{"repro/internal/tage", "packEntry"},
	{"repro/internal/tage", "entryTag"},
	{"repro/internal/tage", "entryCtr"},
	{"repro/internal/tage", "entryU"},
	{"repro/internal/tage", "entrySetCtr"},
	{"repro/internal/tage", "entrySetU"},
	{"repro/internal/tage", "entryAgeU"},
	{"repro/internal/history", "(*Folded).UpdateBits"},
	{"repro/internal/history", "(*Folded).Value"},
	{"repro/internal/bimodal", "(*Packed).index"},
	{"repro/internal/bimodal", "(*Packed).Counter"},
	{"repro/internal/bimodal", "(*Packed).Predict"},
	{"repro/internal/bimodal", "(*Packed).Weak"},
}

// FuncFacts is the gate's verdict on one hotpath function.
type FuncFacts struct {
	Key string
	// BCE is the number of unwaived bounds-check sites in the function.
	BCE int
	// Waived is the number of sites excused by //repro:allow-bce.
	Waived int
	// Shifts is the number of variable-count shifts in the body, and
	// Unproven how many of them the compiler did not prove bounded.
	Shifts, Unproven int
	// Heap lists locals/args moved to the heap, sorted.
	Heap []string
}

// Report is the full fact set for one Collect run.
type Report struct {
	// GoVersion is the toolchain that produced the diagnostics
	// ("go1.24.5"); the golden is only comparable under the same version.
	GoVersion string
	Funcs     []FuncFacts
	// InlineOK maps allow-list indices to inlinability.
	InlineOK []bool
	// Stale and Unjustified are allow-bce directive misuses (gate
	// errors, not golden content).
	Stale       []string
	Unjustified []string
}

// Collect builds the module with diagnostic gcflags and distills the
// compiler facts for every //repro:hotpath function.
func Collect(dir string, patterns []string) (*Report, error) {
	inv, err := CollectInventory(dir, patterns)
	if err != nil {
		return nil, err
	}
	goVersion, err := toolchainVersion(dir)
	if err != nil {
		return nil, err
	}

	args := append([]string{"build", "-gcflags=" + GCFlags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build %s: %v\n%s", GCFlags, err, truncate(out.String(), 4000))
	}
	diags, err := ParseDiagnostics(&out)
	if err != nil {
		return nil, err
	}
	if len(diags) == 0 {
		return nil, fmt.Errorf("go build -gcflags='%s' produced zero recognizable diagnostics; the diagnostic format has drifted (Go %s) — update compilerfacts.ParseDiagnostics", GCFlags, goVersion)
	}

	byKey := make(map[string]*FuncFacts)
	keys := make([]string, 0, len(inv.Funcs))
	for _, fs := range inv.Funcs {
		if byKey[fs.Key] == nil {
			byKey[fs.Key] = &FuncFacts{Key: fs.Key}
			keys = append(keys, fs.Key)
		}
	}
	canInline := make(map[string]bool) // "pkg\x00name"
	bounded := make(map[string]bool)   // "file:line:col" of proven shifts
	for _, d := range diags {
		switch d.Kind {
		case ShiftBounded:
			// Inlined copies report at the callee's position, so a site
			// counts as proven if any compiled copy of it is.
			bounded[fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)] = true
		case BoundsCheck, SliceBoundsCheck:
			fs, ok := inv.spanOf(d.File, d.Line)
			if !ok {
				continue
			}
			if _, waived := inv.waiverAt(d.File, d.Line); waived {
				byKey[fs.Key].Waived++
			} else {
				byKey[fs.Key].BCE++
			}
		case MovedToHeap:
			fs, ok := inv.spanOf(d.File, d.Line)
			if !ok {
				continue
			}
			byKey[fs.Key].Heap = append(byKey[fs.Key].Heap, d.Name)
		case CanInline:
			canInline[d.Pkg+"\x00"+d.Name] = true
		}
	}

	for _, fs := range inv.Funcs {
		ff := byKey[fs.Key]
		for _, sh := range fs.Shifts {
			ff.Shifts++
			if !bounded[fmt.Sprintf("%s:%d:%d", fs.File, sh.Line, sh.Col)] {
				ff.Unproven++
			}
		}
	}

	sort.Strings(keys)
	r := &Report{GoVersion: goVersion}
	for _, k := range keys {
		ff := byKey[k]
		sort.Strings(ff.Heap)
		r.Funcs = append(r.Funcs, *ff)
	}
	for _, e := range inlineAllowList {
		r.InlineOK = append(r.InlineOK, canInline[e.Pkg+"\x00"+e.Name])
	}
	r.Stale, r.Unjustified = inv.staleWaivers()
	sort.Strings(r.Stale)
	sort.Strings(r.Unjustified)
	return r, nil
}

// toolchainVersion returns the active `go env GOVERSION`.
func toolchainVersion(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// Render serializes the report in golden-file form: stable, line-based,
// and free of source positions (line numbers churn on unrelated edits;
// counts and names are what the gate protects).
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString("# Compiler-derived facts for //repro:hotpath functions.\n")
	b.WriteString("# Regenerate: UPDATE_FACTS_GOLDEN=1 go run ./cmd/tagevet -facts ./...\n")
	fmt.Fprintf(&b, "go %s\n", r.GoVersion)
	for _, ff := range r.Funcs {
		fmt.Fprintf(&b, "bce %s %d", ff.Key, ff.BCE)
		if ff.Waived > 0 {
			fmt.Fprintf(&b, " waived %d", ff.Waived)
		}
		b.WriteByte('\n')
	}
	for _, ff := range r.Funcs {
		if ff.Shifts > 0 {
			fmt.Fprintf(&b, "shift %s %d\n", ff.Key, ff.Unproven)
		}
	}
	for _, ff := range r.Funcs {
		if len(ff.Heap) > 0 {
			fmt.Fprintf(&b, "heap %s %s\n", ff.Key, strings.Join(ff.Heap, ","))
		}
	}
	for i, e := range inlineAllowList {
		verdict := "no"
		if r.InlineOK[i] {
			verdict = "yes"
		}
		fmt.Fprintf(&b, "inline %s.%s %s\n", e.Pkg, e.Name, verdict)
	}
	return b.String()
}

// Violations returns the must-be-zero and directive-hygiene failures
// that hold regardless of golden content.
func (r *Report) Violations() []string {
	byKey := make(map[string]FuncFacts, len(r.Funcs))
	for _, ff := range r.Funcs {
		byKey[ff.Key] = ff
	}
	var out []string
	for _, k := range mustBeZero {
		ff, ok := byKey[k]
		if !ok {
			out = append(out, fmt.Sprintf("%s: must-be-zero function not found (not //repro:hotpath, renamed, or outside the analyzed patterns)", k))
			continue
		}
		if ff.BCE > 0 {
			out = append(out, fmt.Sprintf("%s: %d unwaived bounds check(s); eliminate them (uint compare, clamp, re-slice hints) or waive each site with //repro:allow-bce <why>", k, ff.BCE))
		}
		if ff.Unproven > 0 {
			out = append(out, fmt.Sprintf("%s: %d shift(s) with an unproven count carry an oversized-shift guard; mask the count at the site (& 31, & 63) or precompute the mask at construction", k, ff.Unproven))
		}
		if len(ff.Heap) > 0 {
			out = append(out, fmt.Sprintf("%s: moved to heap: %s", k, strings.Join(ff.Heap, ",")))
		}
	}
	for i, ok := range r.InlineOK {
		if !ok {
			e := inlineAllowList[i]
			out = append(out, fmt.Sprintf("inline %s.%s: no longer inlinable (adds a call per branch); simplify it or shrink its cost", e.Pkg, e.Name))
		}
	}
	for _, w := range r.Stale {
		out = append(out, fmt.Sprintf("%s: unused //repro:allow-bce (no bounds check on this line; remove the stale waiver)", w))
	}
	for _, w := range r.Unjustified {
		out = append(out, fmt.Sprintf("%s: //repro:allow-bce requires a justification (why is this bounds check acceptable?)", w))
	}
	return out
}

// GoldenVersion extracts the "go goX.Y.Z" line of a golden file.
func GoldenVersion(golden string) string {
	for _, line := range strings.Split(golden, "\n") {
		if v, ok := strings.CutPrefix(line, "go "); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Diff compares a golden rendering with the current one, ignoring
// comment lines, and returns readable diff lines (empty when equal).
func Diff(golden, got string) []string {
	want := factLines(golden)
	have := factLines(got)
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	haveSet := make(map[string]bool, len(have))
	for _, l := range have {
		haveSet[l] = true
	}
	var out []string
	for _, l := range want {
		if !haveSet[l] {
			out = append(out, "- "+l)
		}
	}
	for _, l := range have {
		if !wantSet[l] {
			out = append(out, "+ "+l)
		}
	}
	return out
}

func factLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n... (truncated)"
}

// WriteGolden writes the rendered report to path.
func WriteGolden(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
