// Command tagevet is the repository's static-analysis suite: a
// multichecker of two repo-specific analyzers for the invariants no
// test observes reliably, plus the compiler-facts gate. lockcheck
// checks //repro:guardedby lock discipline and reports every
// package-level sync/atomic function call (shared values are typed
// atomics); determinism checks //repro:deterministic purity. See PERF.md "Static invariants" for the
// directive conventions and the guard audit that chose this set.
//
// Usage:
//
//	go run ./cmd/tagevet ./...
//	go run ./cmd/tagevet -test=false ./internal/serve
//	go run ./cmd/tagevet -gha ./...    // GitHub Actions ::error lines
//	go run ./cmd/tagevet -facts ./...  // compiler-facts golden gate
//
// The -facts mode runs the compilerfacts gate instead of the source
// analyzers: it rebuilds the tree with diagnostic gcflags, distills
// bounds-check/shift/heap-escape/inline facts for every //repro:hotpath
// function, and compares them against the committed golden
// (internal/analysis/compilerfacts/testdata/compilerfacts.golden).
// UPDATE_FACTS_GOLDEN=1 refreshes the golden in place.
//
// Exit status: 0 when clean, 1 on findings, 2 on internal errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/compilerfacts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run())
}

// finding is one diagnostic.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func run() int {
	fs := flag.NewFlagSet("tagevet", flag.ExitOnError)
	tests := fs.Bool("test", true, "also analyze packages' test files")
	ghaOut := fs.Bool("gha", false, "emit findings as GitHub Actions ::error annotations")
	factsMode := fs.Bool("facts", false, "run the compiler-facts golden gate instead of the source analyzers")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tagevet [-test=false] [-gha] [-facts] packages...\n\nAnalyzers:\n")
		for _, a := range suite.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", "facts", "compiler-fact golden gate (bounds checks, shifts, heap escapes, inlining) for //repro:hotpath functions")
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	if *factsMode {
		return runFacts(patterns, *ghaOut)
	}

	units, facts, err := load.Load(load.Config{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagevet: %v\n", err)
		return 2
	}

	var findings []finding
	seen := make(map[finding]bool)
	for _, u := range units {
		pass := func(a *analysis.Analyzer) *analysis.Pass {
			return &analysis.Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Types,
				TypesInfo: u.Info,
				Dirs:      u.Dirs,
				Facts:     facts,
				Report: func(d analysis.Diagnostic) {
					pos := u.Fset.Position(d.Pos)
					f := finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Analyzer: d.Analyzer, Message: d.Message}
					if !seen[f] {
						seen[f] = true
						findings = append(findings, f)
					}
				},
			}
		}
		for _, a := range suite.All() {
			if err := a.Run(pass(a)); err != nil {
				fmt.Fprintf(os.Stderr, "tagevet: %s on %s: %v\n", a.Name, u.PkgPath, err)
				return 2
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return emit(findings, *ghaOut)
}

// emit writes findings to stderr, like go vet's own output, as plain
// lines or ::error annotations, and returns the exit status.
func emit(findings []finding, ghaOut bool) int {
	for _, f := range findings {
		if ghaOut {
			// GitHub annotation paths must be repo-relative for the finding
			// to land on the PR diff.
			file := f.File
			if wd, err := os.Getwd(); err == nil {
				if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			fmt.Fprintf(os.Stderr, "::error file=%s,line=%d,col=%d,title=tagevet/%s::%s\n",
				filepath.ToSlash(file), f.Line, f.Col, f.Analyzer, ghaEscape(f.Message))
		} else {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tagevet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// ghaEscape encodes the characters GitHub's annotation parser treats as
// message terminators.
func ghaEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// goldenRelPath locates the compilerfacts golden inside the module.
const goldenRelPath = "internal/analysis/compilerfacts/testdata/compilerfacts.golden"

// runFacts drives the compiler-facts gate: collect, then refresh or
// compare the committed golden, plus the golden-independent must-be-zero
// and waiver-hygiene checks.
func runFacts(patterns []string, ghaOut bool) int {
	root := moduleRoot(".")
	if root == "" {
		fmt.Fprintf(os.Stderr, "tagevet -facts: no go.mod above the working directory\n")
		return 2
	}
	report, err := compilerfacts.Collect(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagevet -facts: %v\n", err)
		return 2
	}
	rendered := report.Render()
	goldenPath := filepath.Join(root, goldenRelPath)

	failed := false
	fail := func(msg string) {
		failed = true
		if ghaOut {
			fmt.Fprintf(os.Stderr, "::error title=tagevet/facts::%s\n", ghaEscape(msg))
		} else {
			fmt.Fprintf(os.Stderr, "tagevet -facts: %s\n", msg)
		}
	}
	for _, v := range report.Violations() {
		fail(v)
	}

	if os.Getenv("UPDATE_FACTS_GOLDEN") == "1" {
		if err := compilerfacts.WriteGolden(goldenPath, rendered); err != nil {
			fmt.Fprintf(os.Stderr, "tagevet -facts: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "tagevet -facts: wrote %s (%s)\n", goldenPath, report.GoVersion)
		if failed {
			return 1
		}
		return 0
	}

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		fail(fmt.Sprintf("missing golden %s — generate it with UPDATE_FACTS_GOLDEN=1 go run ./cmd/tagevet -facts ./...", goldenRelPath))
		return 1
	}
	if gv := compilerfacts.GoldenVersion(string(golden)); gv != report.GoVersion {
		// Compiler facts are toolchain-specific; a mismatched local
		// toolchain would produce pure-noise diffs. CI pins the version, so
		// skipping here loses nothing.
		fmt.Fprintf(os.Stderr, "tagevet -facts: warning: golden is for %s, toolchain is %s; skipping the golden gate\n", gv, report.GoVersion)
		if failed {
			return 1
		}
		return 0
	}
	if diff := compilerfacts.Diff(string(golden), rendered); len(diff) > 0 {
		fail(fmt.Sprintf("compiler facts diverge from %s (- golden, + current); inspect the diff, fix the regression or refresh with UPDATE_FACTS_GOLDEN=1:", goldenRelPath))
		for _, d := range diff {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintf(os.Stderr, "tagevet -facts: %d hotpath function(s) match %s (%s)\n", len(report.Funcs), goldenRelPath, report.GoVersion)
	return 0
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
