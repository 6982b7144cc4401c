// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against // want "regex" expectations embedded
// in the fixture source — the x/tools analysistest idea rebuilt on the
// repo's stdlib-only analysis framework.
//
// Fixtures live under a testdata directory (invisible to ./... package
// patterns, so deliberately-broken invariants never fail the real
// tagevet run) and are plain Go packages: parsed, type-checked against
// the live build cache (stdlib imports resolve through `go list
// -export`), then analyzed. A comment
//
//	// want "regex"
//	// want "first" "second"
//
// on a line declares that the analyzer must report on that line with
// messages matching the regexes, in any order. Every diagnostic must be
// wanted and every want must be matched; anything else fails the test.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// FixtureModulePath is the synthetic module path fixture packages are
// type-checked under. The determinism analyzer treats the fixture
// package as module-local (its own functions must carry annotations to
// be callable from deterministic code), exactly like real repo packages.
const FixtureModulePath = "fixture"

// Run analyzes the fixture package in dir with a and reports every
// mismatch between diagnostics and // want expectations as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no .go files in %s", dir)
	}

	pkgPath := FixtureModulePath + "/" + files[0].Name.Name
	exports, importMap, err := stdlibExports(files)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	facts := analysis.NewModuleFacts()
	facts.ModulePath = FixtureModulePath
	load.CollectFacts(facts, pkgPath, files)

	tpkg, info, err := load.Check(fset, pkgPath, files, load.Importer(fset, exports, importMap))
	if err != nil {
		t.Fatalf("analysistest: typecheck %s: %v", dir, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
		Dirs:      analysis.NewDirectives(fset, files),
		Facts:     facts,
		Report:    func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range got {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		ws := wants[key]
		matched := false
		for i, w := range ws {
			if w != nil && w.MatchString(d.Message) {
				ws[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w)
			}
		}
	}
}

// wantRe matches a // want comment: one or more quoted regexes.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRe matches one Go-quoted string.
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants gathers the // want expectations of every fixture file,
// keyed by "filename:line".
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, s, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// stdlibExports resolves the fixture files' imports to compiled export
// data through `go list -export` (offline, straight from the build
// cache, compiling on demand if needed).
func stdlibExports(files []*ast.File) (exports, importMap map[string]string, err error) {
	seen := make(map[string]bool)
	var paths []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p)
		}
	}
	exports = make(map[string]string)
	importMap = make(map[string]string)
	if len(paths) == 0 {
		return exports, importMap, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,ImportMap"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath string
			Export     string
			ImportMap  map[string]string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
	}
	return exports, importMap, nil
}
