// Package load turns package patterns into type-checked analysis units
// using only the standard library: `go list -export -json` supplies the
// file lists and compiled export data (offline, straight from the build
// cache), go/parser the syntax, and go/importer's gc importer the
// dependency types. It also builds the module-wide directive facts the
// determinism and atomics analyzers need to reason about cross-package
// calls and fields.
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
	// //repro:deterministic functions and atomically-disciplined fields,
	// syntax only.
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

// CollectFacts records the directive facts of the given files under
// pkgPath: //repro:deterministic functions, plus
// atomically-disciplined struct fields (typed sync/atomic fields, and
// plain fields whose address feeds an atomic.* call in a method or
// function of this package). Syntax only — resolution is by name, which
// is exactly as much as the cross-package consumers need.
func CollectFacts(facts *analysis.ModuleFacts, pkgPath string, files []*ast.File) {
	for _, f := range files {
		atomicName := importLocalName(f, "sync/atomic", "atomic")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if _, ok := analysis.FuncDirective(decl, "deterministic"); ok {
					facts.Deterministic[analysis.DeclFuncKey(pkgPath, decl)] = true
				}
				if atomicName != "" {
					collectAtomicCallFacts(facts, pkgPath, decl, atomicName)
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE || atomicName == "" {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !isAtomicTypeExpr(field.Type, atomicName) {
							continue
						}
						for _, name := range field.Names {
							facts.AtomicFields[analysis.FieldKey(pkgPath, ts.Name.Name, name.Name)] = true
						}
					}
				}
			}
		}
	}
}

// importLocalName returns the local name the file imports path under
// ("" when the file does not import it; defName when imported without a
// rename).
func importLocalName(f *ast.File, path, defName string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"`+path+`"` {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return defName
	}
	return ""
}

// isAtomicTypeExpr matches atomic.X and atomic.Pointer[T] type syntax.
func isAtomicTypeExpr(t ast.Expr, atomicName string) bool {
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == atomicName
}

// collectAtomicCallFacts records fields of this package's own struct
// types whose address is passed to an atomic.* call inside fn — the
// legacy pre-typed-atomic idiom (atomic.AddUint64(&s.n, 1)). The base
// variable must be the receiver or a parameter whose type names a local
// struct, so the field's owning type resolves without type checking.
func collectAtomicCallFacts(facts *analysis.ModuleFacts, pkgPath string, fn *ast.FuncDecl, atomicName string) {
	if fn.Body == nil {
		return
	}
	// varType maps receiver/parameter names to their local base type name.
	varType := make(map[string]string)
	addFields := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			t := f.Type
			if st, ok := t.(*ast.StarExpr); ok {
				t = st.X
			}
			id, ok := t.(*ast.Ident)
			if !ok {
				continue
			}
			for _, name := range f.Names {
				varType[name.Name] = id.Name
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	if len(varType) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != atomicName {
			return true
		}
		addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			return true
		}
		fieldSel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(fieldSel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if tn, ok := varType[base.Name]; ok {
			facts.AtomicFields[analysis.FieldKey(pkgPath, tn, fieldSel.Sel.Name)] = true
		}
		return true
	})
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
