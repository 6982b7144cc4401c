// Package determinism implements the determinism analyzer: functions
// annotated //repro:deterministic must produce output that depends only
// on their inputs.
//
// The repo's standing promise is bit-identical reproduction of the
// paper's tables at any worker count; every rendered number flows
// through a handful of merge/render functions, and a single unordered
// map iteration or wall-clock read there breaks the promise silently —
// the output is still plausible, just different across runs. Inside a
// //repro:deterministic function the analyzer reports
//
//   - range over a map, unless the loop body only aggregates
//     order-insensitively (commutative op-assignments, counters, map
//     stores, deletes) or collects into slices that a post-dominating
//     sort./slices.Sort* call orders before use — the repo's
//     sorted-keys idiom;
//   - time.Now, time.Since, time.Until (wall-clock reads are
//     result-affecting until proven otherwise);
//   - randomness outside internal/xrand (math/rand, math/rand/v2,
//     crypto/rand) — xrand is the repo's seeded, reproducible source;
//   - select over multiple channels (scheduler-ordered choice);
//   - calls to module-local functions that are not themselves
//     //repro:deterministic — the obligation is transitive. Interface
//     and func-value calls are the dynamic boundary and are accepted.
//
// A finding is suppressed by //repro:order-insensitive <why> on the
// offending line (or the block above): the justification — why this
// nondeterminism cannot affect the result — is mandatory, and an
// annotation that suppresses nothing is itself reported.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "//repro:deterministic functions depend only on their inputs: no unordered map iteration, wall-clock reads, non-xrand randomness, or multi-channel selects",
	Run:  run,
}

// XrandPath is the module's deterministic randomness package; calls
// into it are exempt from the randomness rule by construction.
const XrandPath = "repro/internal/xrand"

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, justified: make(map[token.Pos]bool)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, "deterministic"); !ok {
				continue
			}
			c.checkFunc(fn)
		}
	}
	for _, dir := range pass.Dirs.Unused("order-insensitive") {
		pass.Reportf(dir.Pos, "unused //repro:order-insensitive (no determinism finding on this line; remove the stale escape)")
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// body is the function body under analysis, for post-dominating-sort
	// scans.
	body *ast.BlockStmt
	// justified dedupes missing-justification reports per directive.
	justified map[token.Pos]bool
}

// report emits a finding unless the line carries a justified
// //repro:order-insensitive escape.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if dir, ok := c.pass.Dirs.Get(pos, "order-insensitive"); ok {
		if dir.Args == "" && !c.justified[dir.Pos] {
			c.justified[dir.Pos] = true
			c.pass.Reportf(dir.Pos, "//repro:order-insensitive requires a justification (why can this nondeterminism not affect the result?)")
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	c.body = fn.Body
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := c.pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					c.checkMapRange(n)
				}
			}
		case *ast.SelectStmt:
			comms := 0
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms > 1 {
				c.report(n.Pos(), "select over multiple channels: the scheduler picks the ready case, so completion order leaks into the result")
			}
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkCall vets one call inside a deterministic function.
func (c *checker) checkCall(call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	f, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return // builtins, conversions, func-valued variables
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return // dynamic dispatch: the boundary runtime differential tests cover
	}
	pkg := f.Pkg()
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "time":
		switch f.Name() {
		case "Now", "Since", "Until":
			c.report(call.Pos(), "time.%s in deterministic function: wall-clock reads are result-affecting (take the timestamp as input, or justify with //repro:order-insensitive)", f.Name())
		}
		return
	case "math/rand", "math/rand/v2", "crypto/rand":
		c.report(call.Pos(), "%s.%s in deterministic function: use the seeded internal/xrand source", pkg.Name(), f.Name())
		return
	}
	if c.pass.Facts != nil && c.moduleLocal(pkg.Path()) && pkg.Path() != XrandPath {
		if !c.pass.Facts.Deterministic[analysis.TypeFuncKey(f)] {
			c.report(call.Pos(), "call to %s.%s: callee is not //repro:deterministic (the obligation is transitive; annotate it or justify with //repro:order-insensitive)", pkg.Name(), calleeName(f))
		}
	}
}

// moduleLocal reports whether path belongs to the module under analysis.
func (c *checker) moduleLocal(path string) bool {
	mod := c.pass.Facts.ModulePath
	if mod == "" {
		return path == c.pass.Pkg.Path()
	}
	return path == mod || strings.HasPrefix(path, mod+"/")
}

func calleeName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

// checkMapRange decides whether one map-range loop is order-safe.
func (c *checker) checkMapRange(rng *ast.RangeStmt) {
	// collected gathers the slice vars the body appends into; they must
	// all be sorted after the loop.
	var collected []*types.Var
	insensitive := true
	for _, stmt := range rng.Body.List {
		targets, ok := c.orderInsensitiveStmt(stmt)
		if !ok {
			insensitive = false
			break
		}
		collected = append(collected, targets...)
	}
	if insensitive {
		unsorted := ""
		for _, v := range collected {
			if !c.sortedAfter(v, rng.End()) {
				unsorted = v.Name()
				break
			}
		}
		if unsorted == "" {
			return
		}
		c.report(rng.Pos(), "map iteration collects into %s but no sort.*/slices.Sort* call follows the loop: iteration order leaks into the result", unsorted)
		return
	}
	c.report(rng.Pos(), "unordered map iteration in deterministic function: sort the keys first, aggregate order-insensitively, or justify with //repro:order-insensitive")
}

// orderInsensitiveStmt classifies one loop-body statement. It returns
// the slice variables the statement appends into (which then require a
// post-dominating sort), and whether the statement is order-insensitive
// at all.
func (c *checker) orderInsensitiveStmt(stmt ast.Stmt) ([]*types.Var, bool) {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return nil, true // counters commute
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			return nil, true // commutative fold
		case token.ASSIGN, token.DEFINE:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return nil, false
			}
			// Map store: m2[k] = v — insertion order is unobservable.
			if ix, ok := ast.Unparen(s.Lhs[0]).(*ast.IndexExpr); ok {
				if tv, ok := c.pass.TypesInfo.Types[ix.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return nil, true
					}
				}
			}
			// Collect: x = append(x, ...) — fine if x is sorted later.
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
					if lv := c.rootVar(s.Lhs[0]); lv != nil && len(call.Args) > 0 && c.rootVar(call.Args[0]) == lv {
						return []*types.Var{lv}, true
					}
				}
			}
			return nil, false
		}
		return nil, false
	case *ast.ExprStmt:
		// delete(m, k) commutes.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "delete" {
				if _, isBuiltin := c.pass.TypesInfo.Uses[fid].(*types.Builtin); isBuiltin {
					return nil, true
				}
			}
		}
		return nil, false
	}
	return nil, false
}

// rootVar resolves an expression to the variable it names, or nil.
func (c *checker) rootVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// sortedAfter reports whether a sort.*/slices.Sort* call on v appears
// after pos in the function body — the post-dominating sort idiom. The
// check is positional, not control-flow-aware: a sort in a sibling
// branch after the loop counts, which is exactly how the repo writes
// the collect-then-sort pattern.
func (c *checker) sortedAfter(v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(c.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if !strings.Contains(f.Name(), "Sort") && !isSortShorthand(f.Pkg().Path(), f.Name()) {
			return true
		}
		if c.rootVar(call.Args[0]) == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSortShorthand matches sort's typed shorthands (sort.Strings,
// sort.Ints, sort.Float64s) that don't carry "Sort" in the name.
func isSortShorthand(pkgPath, name string) bool {
	if pkgPath != "sort" {
		return false
	}
	switch name {
	case "Strings", "Ints", "Float64s", "Stable", "Slice", "SliceStable":
		return true
	}
	return false
}
