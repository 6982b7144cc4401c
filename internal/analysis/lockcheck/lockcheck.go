// Package lockcheck implements the lockcheck analyzer: struct fields
// annotated //repro:guardedby <mutexField> may only be touched with the
// lock demonstrably held.
//
// The serve layer's exactly-once guarantees (tallies fold once across
// close/evict/checkpoint races, snapshot cuts land on batch boundaries)
// all reduce to "these fields are only touched under this mutex". The
// annotation makes that machine-checked: an access to a guarded field
// is legal when
//
//   - the same function acquires the guarding lock on the same receiver
//     before the access (s.mu.Lock() or s.mu.RLock() textually precedes
//     s.field), or
//   - the function is an audited lock-held accessor: its name ends in
//     "Locked", or it carries //repro:locked <why the caller holds it>.
//
// The check is per-function and flow-insensitive by design — it cannot
// prove you didn't unlock first, but it catches the real drift: a new
// code path reading tallies or backend state without entering the
// session lock at all. Func literals are checked as part of their
// enclosing function.
//
// Shared state that is not behind a mutex is a typed atomic
// (atomic.Int64, atomic.Uint64, atomic.Bool, ...): every access then
// goes through a method, so it is atomic by construction, and go vet's
// copylocks check reports copies of it. lockcheck reports every use of
// a package-level sync/atomic function (atomic.AddInt64(&s.n, 1) and
// friends), the idiom that lets one site update a plain field
// atomically while another reads it plainly.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "//repro:guardedby fields are only accessed with their mutex held; shared values are typed atomics, not sync/atomic function calls",
	Run:  run,
}

// guard describes one annotated field.
type guard struct {
	lockName string // sibling mutex field name
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	for _, file := range pass.Files {
		checkAtomicFuncs(pass, file)
		if len(guards) == 0 {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, guards, fn)
		}
	}
	return nil
}

// checkAtomicFuncs reports every use of a package-level sync/atomic
// function in file, called or taken as a value.
func checkAtomicFuncs(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
			pass.Reportf(id.Pos(), "sync/atomic.%s: keep shared values in typed atomics (atomic.Int64, atomic.Uint64, ...) so every access is atomic", fn.Name())
		}
		return true
	})
}

// collectGuards finds //repro:guardedby annotations and validates them.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				dir, ok := analysis.FieldDirective(f, "guardedby")
				if !ok {
					continue
				}
				if dir.Args == "" {
					pass.Reportf(dir.Pos, "//repro:guardedby needs the guarding mutex field name")
					continue
				}
				lockName := dir.Args
				if !lockFieldExists(pass, st, lockName) {
					pass.Reportf(dir.Pos, "//repro:guardedby %s: no sync.Mutex/sync.RWMutex field %q in this struct", lockName, lockName)
					continue
				}
				if len(f.Names) == 0 {
					pass.Reportf(dir.Pos, "//repro:guardedby on an embedded field is not supported; name the field")
					continue
				}
				for _, name := range f.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = guard{lockName: lockName}
					}
				}
			}
			return true
		})
	}
	return guards
}

// lockFieldExists reports whether the struct syntactically declares a
// mutex-typed field with the given name.
func lockFieldExists(pass *analysis.Pass, st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name != name {
				continue
			}
			v, ok := pass.TypesInfo.Defs[n].(*types.Var)
			if !ok {
				return false
			}
			return isMutex(v.Type())
		}
	}
	return false
}

func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// acquisition is one x.mu.Lock()/RLock() call site.
type acquisition struct {
	// root is the object the lock hangs off (x in x.mu.Lock()).
	root types.Object
	// lockName is the mutex field's name.
	lockName string
	// pos is the acquisition's position, for textual ordering.
	pos token.Pos
}

// isExempt reports whether fn opted out of per-function lock checking as
// an audited lock-held accessor: a ...Locked name suffix or a
// //repro:locked caller-contract annotation.
func isExempt(fn *ast.FuncDecl) bool {
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		return true
	}
	_, ok := analysis.FuncDirective(fn, "locked")
	return ok
}

// lockAcquisitions collects every mutex acquisition in fn's body.
func lockAcquisitions(pass *analysis.Pass, fn *ast.FuncDecl) []acquisition {
	var acquired []acquisition
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		lockExpr, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		root := rootObject(pass, lockExpr.X)
		if root == nil {
			return true
		}
		acquired = append(acquired, acquisition{
			root:     root,
			lockName: lockExpr.Sel.Name,
			pos:      call.Pos(),
		})
		return true
	})
	return acquired
}

// held reports whether some acquisition of lockName on root textually
// precedes pos.
func held(acquired []acquisition, lockName string, root types.Object, pos token.Pos) bool {
	if root == nil {
		return false
	}
	for _, a := range acquired {
		if a.lockName == lockName && a.root == root && a.pos < pos {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, guards map[*types.Var]guard, fn *ast.FuncDecl) {
	if isExempt(fn) {
		return
	}

	// Pass 1: collect lock acquisitions.
	acquired := lockAcquisitions(pass, fn)

	// Pass 2: check guarded-field accesses.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, guarded := guards[field]
		if !guarded {
			return true
		}
		root := rootObject(pass, sel.X)
		if !held(acquired, g.lockName, root, sel.Pos()) {
			pass.Reportf(sel.Sel.Pos(), "field %s (guarded by %s) accessed without %s held: lock it in this function, or audit the caller contract with //repro:locked / a ...Locked name", field.Name(), g.lockName, g.lockName)
		}
		return true
	})
}

// rootObject resolves the innermost identifier of a selector/index
// chain to its object (s in s.res.Class[i], sh in sh.m).
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := pass.TypesInfo.Uses[x]; o != nil {
				return o
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			return nil // lock state of a call result is unknowable here
		default:
			return nil
		}
	}
}
