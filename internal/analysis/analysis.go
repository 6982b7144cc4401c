// Package analysis is the repository's static-analysis framework: a
// stdlib-only analogue of golang.org/x/tools/go/analysis sized to this
// module's needs. Its two analyzers guard what no test observes
// reliably: lock discipline on //repro:guardedby fields, plus a ban on
// the package-level sync/atomic functions so every shared value is a
// typed atomic (lockcheck), and transitive purity of
// //repro:deterministic functions (determinism). Copies of typed
// atomics and mutexes are go vet's copylocks check. Allocation-freedom
// of the hot paths is checked by the compiler itself (compilerfacts,
// tagevet -facts) and the runtime alloc pins; snapshot completeness and wire-frame dispatch by
// the snapshot-byte pins, the snapshot/restore bit-identity tests and
// the serve end-to-end tests. PERF.md ("Static invariants") records the
// mutation audit that assigns each invariant to its guard.
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics. Analyzers communicate with the code under analysis via
// //repro: directive comments (see Directives); the conventions are
// documented in PERF.md ("Static invariants") and on each analyzer.
//
// Driver: cmd/tagevet runs the whole suite over package patterns
// (go run ./cmd/tagevet ./...).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name, a doc string, and a Run function
// applied to each package under analysis.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package and reports findings via pass.Report. A
	// non-nil error aborts the whole analysis run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo has Types, Defs, Uses and Selections filled in.
	TypesInfo *types.Info
	// Dirs indexes every //repro: directive in Files.
	Dirs *Directives
	// Facts carries module-wide directive knowledge (deterministic
	// functions across packages). May be empty, never nil in driver
	// runs.
	Facts *ModuleFacts
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// ModuleFacts is directive knowledge spanning the whole module, built by
// the driver from syntax alone (no type checking) so analyzers can
// reason about calls into sibling packages.
type ModuleFacts struct {
	// ModulePath is the module under analysis ("repro"); packages whose
	// import path is outside it are treated as stdlib/external.
	ModulePath string
	// Deterministic holds the keys (FuncKey) of every function in the
	// module annotated //repro:deterministic.
	Deterministic map[string]bool
}

// NewModuleFacts returns empty facts.
func NewModuleFacts() *ModuleFacts {
	return &ModuleFacts{Deterministic: make(map[string]bool)}
}

// FuncKey names a function or method uniquely across the module:
// "pkgpath.Func" for package functions, "pkgpath.Type.Method" for
// methods (pointer receivers are not distinguished from value
// receivers).
func FuncKey(pkgPath, recv, name string) string {
	if recv == "" {
		return pkgPath + "." + name
	}
	return pkgPath + "." + recv + "." + name
}

// TypeFuncKey is FuncKey for a resolved *types.Func.
func TypeFuncKey(f *types.Func) string {
	pkg := f.Pkg()
	if pkg == nil {
		return f.Name()
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	return FuncKey(pkg.Path(), recv, f.Name())
}

// recvTypeName returns the base named-type name of a receiver type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
}

// DeclFuncKey is FuncKey for a function declaration in the given
// package, derived from syntax alone.
func DeclFuncKey(pkgPath string, fn *ast.FuncDecl) string {
	return FuncKey(pkgPath, RecvBaseName(fn), fn.Name.Name)
}

// RecvBaseName returns the receiver's base type name ("" for package
// functions), derived from syntax alone.
func RecvBaseName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver [T]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
