// Package load turns package patterns into type-checked analysis units
// using only the standard library: `go list -export -json` supplies the
// file lists and compiled export data (offline, straight from the build
// cache), go/parser the syntax, and go/importer's gc importer the
// dependency types. It also builds the module-wide directive facts the
// determinism analyzer needs to reason about cross-package calls.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Package is one type-checked unit ready for analysis.
type Package struct {
	// PkgPath is the import path (test variants collapse to the path of
	// the package under test, external test packages to path + "_test").
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Dirs    *analysis.Directives
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Module     *struct {
		Path string
		Main bool
		Dir  string
	}
}

// Config controls a Load.
type Config struct {
	// Dir is the working directory for go list ("" = current).
	Dir string
	// Tests includes each package's test variant (the package compiled
	// with its _test.go files, plus external _test packages).
	Tests bool
}

// Load lists, parses and type-checks the packages matching patterns,
// and builds module-wide facts from every module-local package in the
// dependency graph.
func Load(cfg Config, patterns ...string) ([]*Package, *analysis.ModuleFacts, error) {
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Dir,Name,Export,GoFiles,ImportMap,Standard,DepOnly,ForTest,Module"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}

	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// When tests are included, a package under test appears twice: plain
	// and as the "pkg [pkg.test]" variant whose file set is a superset.
	// Analyzing both would double every diagnostic, so the plain package
	// yields to its variant.
	hasVariant := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			hasVariant[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	parsed := make(map[string][]*ast.File) // ImportPath → syntax
	parseAll := func(p *listPackage) ([]*ast.File, error) {
		if files, ok := parsed[p.ImportPath]; ok {
			return files, nil
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		parsed[p.ImportPath] = files
		return files, nil
	}

	// Module facts: scan every module-local package in the graph for
	// //repro:deterministic functions, syntax only.
	facts := analysis.NewModuleFacts()
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || !p.Module.Main || p.Name == "" {
			continue
		}
		if facts.ModulePath == "" {
			facts.ModulePath = p.Module.Path
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		files, err := parseAll(p)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %v", p.ImportPath, err)
		}
		CollectFacts(facts, canonicalPath(p), files)
	}

	var units []*Package
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest == "" && hasVariant[p.ImportPath] {
			continue
		}
		files, err := parseAll(p)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %v", p.ImportPath, err)
		}
		if len(files) == 0 {
			continue
		}
		tpkg, info, err := Check(fset, canonicalPath(p), files, Importer(fset, exports, p.ImportMap))
		if err != nil {
			return nil, nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		units = append(units, &Package{
			PkgPath: canonicalPath(p),
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
			Dirs:    analysis.NewDirectives(fset, files),
		})
	}
	return units, facts, nil
}

// canonicalPath strips the " [pkg.test]" variant suffix so analysis
// paths (and fact keys) match the plain import path.
func canonicalPath(p *listPackage) string {
	if i := strings.Index(p.ImportPath, " ["); i >= 0 {
		return p.ImportPath[:i]
	}
	return p.ImportPath
}

// CollectFacts records the //repro:deterministic functions of the
// given files under pkgPath. Syntax only — resolution is by name, which
// is exactly as much as the cross-package consumers need.
func CollectFacts(facts *analysis.ModuleFacts, pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if _, ok := analysis.FuncDirective(fn, "deterministic"); ok {
					facts.Deterministic[analysis.DeclFuncKey(pkgPath, fn)] = true
				}
			}
		}
	}
}

// Importer returns a types.Importer resolving imports through compiled
// export data: importMap (may be nil) maps source import paths to
// resolved package paths (test variants), exports maps resolved paths
// to export data files.
func Importer(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if importMap != nil {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Check type-checks one package's files, returning the package and a
// fully populated types.Info.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}
