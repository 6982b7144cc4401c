package compilerfacts

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// FuncSpan is one //repro:hotpath function's source extent.
type FuncSpan struct {
	// Key is the module-wide function key (analysis.FuncKey).
	Key string
	// File is the module-relative source path, matching the compiler's
	// diagnostic spelling when the build runs at the module root.
	File string
	// Start and End are the declaration's line range, inclusive.
	Start, End int
	// Shifts are the body's shifts whose count is not a constant
	// expression, each at the operator's line and column — the position
	// the compiler reports a proven-bounded shift at.
	Shifts []LineCol
}

// LineCol is a source position within FuncSpan.File.
type LineCol struct{ Line, Col int }

// waiver is one //repro:allow-bce directive occurrence.
type waiver struct {
	// where is "file:line" of the directive itself, for reporting.
	where string
	args  string
	used  bool
}

// Inventory is the syntax-level view of the module the facts gate needs:
// hotpath function spans with their variable-count shift sites, and
// allow-bce waivers keyed by file and line.
type Inventory struct {
	Funcs []FuncSpan
	// waivers maps module-relative file → line → directive. A directive
	// registers on its own line and on the line below its comment block,
	// mirroring the analysis.Directives placement rules.
	waivers map[string]map[int]*waiver
}

// listEntry is the subset of `go list -json` the inventory needs.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
		Dir  string
	}
}

// CollectInventory parses the module packages matching patterns (syntax
// only) and records every //repro:hotpath function span with its
// variable-count shifts, and every //repro:allow-bce waiver. dir is the
// module root the build runs from.
func CollectInventory(dir string, patterns []string) (*Inventory, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	inv := &Inventory{waivers: make(map[string]map[int]*waiver)}
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listEntry
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Module == nil || !p.Module.Main {
			continue
		}
		// The whole package is parsed before any file is inventoried:
		// telling a constant shift count from a variable one needs the
		// package's constant names.
		files := make([]*ast.File, len(p.GoFiles))
		rels := make([]string, len(p.GoFiles))
		consts := make(map[string]bool)
		for i, name := range p.GoFiles {
			abs := filepath.Join(p.Dir, name)
			rel, err := filepath.Rel(dir, abs)
			if err != nil {
				rel = abs
			}
			rels[i] = filepath.ToSlash(rel)
			f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", rels[i], err)
			}
			files[i] = f
			addConstNames(f, consts)
		}
		for i, f := range files {
			inv.addFile(fset, p.ImportPath, rels[i], f, consts)
		}
	}
	return inv, nil
}

// addConstNames records every constant declared in f, at package level
// or inside a function.
func addConstNames(f *ast.File, consts map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.GenDecl); ok && d.Tok == token.CONST {
			for _, spec := range d.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					consts[name.Name] = true
				}
			}
		}
		return true
	})
}

// isConstExpr reports whether e is built only from literals and named
// constants. It is a syntax-only test (the inventory has no type
// information): a local variable shadowing a constant's name reads as
// constant, and a conversion of a constant reads as variable.
func isConstExpr(e ast.Expr, consts map[string]bool) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return consts[e.Name]
	case *ast.ParenExpr:
		return isConstExpr(e.X, consts)
	case *ast.UnaryExpr:
		return isConstExpr(e.X, consts)
	case *ast.BinaryExpr:
		return isConstExpr(e.X, consts) && isConstExpr(e.Y, consts)
	}
	return false
}

// variableShifts returns the position of every shift in body whose
// count is not a constant expression: the shifts that carry an
// oversized-count guard unless the compiler proves the count in range.
func variableShifts(fset *token.FileSet, body *ast.BlockStmt, consts map[string]bool) []LineCol {
	var out []LineCol
	add := func(pos token.Pos) {
		p := fset.Position(pos)
		out = append(out, LineCol{p.Line, p.Column})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.SHL || n.Op == token.SHR) && !isConstExpr(n.Y, consts) {
				add(n.OpPos)
			}
		case *ast.AssignStmt:
			if (n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN) && !isConstExpr(n.Rhs[0], consts) {
				add(n.TokPos)
			}
		}
		return true
	})
	return out
}

func (inv *Inventory) addFile(fset *token.FileSet, pkgPath, rel string, f *ast.File, consts map[string]bool) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if _, ok := analysis.FuncDirective(fn, "hotpath"); !ok {
			continue
		}
		inv.Funcs = append(inv.Funcs, FuncSpan{
			Key:    analysis.DeclFuncKey(pkgPath, fn),
			File:   rel,
			Start:  fset.Position(fn.Pos()).Line,
			End:    fset.Position(fn.End()).Line,
			Shifts: variableShifts(fset, fn.Body, consts),
		})
	}
	for _, group := range f.Comments {
		last := fset.Position(group.End()).Line
		for _, c := range group.List {
			dir, ok := analysis.ParseDirective(c.Text)
			if !ok || dir.Name != "allow-bce" {
				continue
			}
			pos := fset.Position(c.Pos())
			w := &waiver{where: fmt.Sprintf("%s:%d", rel, pos.Line), args: dir.Args}
			m := inv.waivers[rel]
			if m == nil {
				m = make(map[int]*waiver)
				inv.waivers[rel] = m
			}
			m[pos.Line] = w
			if last+1 != pos.Line {
				if _, taken := m[last+1]; !taken {
					m[last+1] = w
				}
			}
		}
	}
}

// spanOf returns the hotpath function containing file:line, if any.
func (inv *Inventory) spanOf(file string, line int) (FuncSpan, bool) {
	for _, fs := range inv.Funcs {
		if fs.File == file && line >= fs.Start && line <= fs.End {
			return fs, true
		}
	}
	return FuncSpan{}, false
}

// waiverAt returns the allow-bce waiver applying to file:line, marking
// it used.
func (inv *Inventory) waiverAt(file string, line int) (*waiver, bool) {
	w, ok := inv.waivers[file][line]
	if ok {
		w.used = true
	}
	return w, ok
}

// staleWaivers returns every allow-bce directive that waived nothing,
// and every one lacking the mandatory justification, as report strings.
func (inv *Inventory) staleWaivers() (stale, unjustified []string) {
	seen := make(map[*waiver]bool)
	for _, lines := range inv.waivers {
		for _, w := range lines {
			if seen[w] {
				continue
			}
			seen[w] = true
			if !w.used {
				stale = append(stale, w.where)
			} else if strings.TrimSpace(w.args) == "" {
				unjustified = append(unjustified, w.where)
			}
		}
	}
	return stale, unjustified
}
