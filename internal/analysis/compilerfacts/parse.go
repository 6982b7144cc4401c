package compilerfacts

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"io"
	"strconv"
	"strings"
)

// DiagKind classifies one compiler diagnostic the gate consumes.
type DiagKind int

const (
	// BoundsCheck is a check_bce "Found IsInBounds" site.
	BoundsCheck DiagKind = iota
	// SliceBoundsCheck is a check_bce "Found IsSliceInBounds" site.
	SliceBoundsCheck
	// CanInline is an escape-analysis "can inline F" fact; Name holds the
	// compiler's spelling of the function ("packEntry",
	// "(*Folded).Value", "Kind.String").
	CanInline
	// MovedToHeap is a "moved to heap: x" escape; Name holds the variable.
	MovedToHeap
	// EscapesToHeap is an "x escapes to heap" escape: a make, new, &T{},
	// boxing conversion, closure or string build the compiler allocates
	// on the heap. Name holds the expression as the compiler printed it.
	EscapesToHeap
	// ShiftBounded is an ssa/prove "Proved Lsh32x64 bounded" fact: the
	// compiler proved the shift count below the operand width and emits
	// the shift without its oversized-count guard. Name holds the op.
	ShiftBounded
)

func (k DiagKind) String() string {
	switch k {
	case BoundsCheck:
		return "IsInBounds"
	case SliceBoundsCheck:
		return "IsSliceInBounds"
	case CanInline:
		return "can-inline"
	case MovedToHeap:
		return "moved-to-heap"
	case EscapesToHeap:
		return "escapes-to-heap"
	case ShiftBounded:
		return "shift-bounded"
	}
	return "unknown"
}

// Diag is one parsed compiler diagnostic.
type Diag struct {
	// Pkg is the import path from the preceding "# pkg" header line.
	Pkg string
	// File is the source path as the compiler printed it (module-relative
	// when the build ran at the module root).
	File string
	Line int
	Col  int
	Kind DiagKind
	// Name is the function (CanInline), variable (MovedToHeap),
	// expression (EscapesToHeap) or SSA shift op (ShiftBounded) name.
	Name string
}

// ParseDiagnostics reads `go build -gcflags='-m=1
// -d=ssa/check_bce/debug=1,ssa/prove/debug=1'` output and extracts the
// diagnostics the facts gate consumes: bounds-check sites, inlinability
// facts, moved-to-heap and escapes-to-heap allocations, and
// proven-bounded shifts. Unrecognized diagnostic lines are skipped
// (escape analysis and the prove pass emit many shapes the gate does
// not use), but lines that are not "# pkg" headers and do not carry a
// file:line:col prefix are counted as noise —
// a build error or a wholesale format change in a future Go release
// surfaces as an error from the caller's zero-diagnostics check, not as
// a silently-empty report.
func ParseDiagnostics(r io.Reader) ([]Diag, error) {
	var diags []Diag
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			// "# pkg [pkg.test]" variants collapse to the plain path.
			if i := strings.Index(rest, " ["); i >= 0 {
				rest = rest[:i]
			}
			pkg = rest
			continue
		}
		file, ln, col, msg, ok := splitPosLine(line)
		if !ok {
			continue
		}
		d := Diag{Pkg: pkg, File: file, Line: ln, Col: col}
		switch {
		case msg == "Found IsInBounds":
			d.Kind = BoundsCheck
		case msg == "Found IsSliceInBounds":
			d.Kind = SliceBoundsCheck
		case strings.HasPrefix(msg, "can inline "):
			d.Kind = CanInline
			d.Name = normalizeFuncName(strings.TrimPrefix(msg, "can inline "))
		case strings.HasPrefix(msg, "moved to heap: "):
			d.Kind = MovedToHeap
			d.Name = strings.TrimPrefix(msg, "moved to heap: ")
		case strings.HasSuffix(msg, " escapes to heap"):
			d.Kind = EscapesToHeap
			d.Name = strings.TrimSuffix(msg, " escapes to heap")
			if isBasicLit(d.Name) {
				// A constant boxed into an interface (panic("...")) points
				// at static data: nothing is allocated.
				continue
			}
		case isBoundedShift(msg):
			d.Kind = ShiftBounded
			d.Name = strings.Fields(msg)[1]
		default:
			continue
		}
		diags = append(diags, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading compiler output: %v", err)
	}
	return diags, nil
}

// splitPosLine splits "file.go:12:34: message".
func splitPosLine(line string) (file string, ln, col int, msg string, ok bool) {
	// The message follows the third colon; Windows-style drive letters do
	// not occur (the build runs at the module root with relative paths).
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return parts[0], ln, col, strings.TrimSpace(parts[3]), true
}

// isBasicLit reports whether expr is a single literal ("msg", 65536).
func isBasicLit(expr string) bool {
	e, err := parser.ParseExpr(expr)
	if err != nil {
		return false
	}
	_, ok := e.(*ast.BasicLit)
	return ok
}

// isBoundedShift matches "Proved Rsh32Ux64 bounded" and its siblings.
func isBoundedShift(msg string) bool {
	f := strings.Fields(msg)
	return len(f) == 3 && f[0] == "Proved" && f[2] == "bounded" &&
		(strings.HasPrefix(f[1], "Lsh") || strings.HasPrefix(f[1], "Rsh"))
}

// normalizeFuncName strips the "with cost N as: ..." tail -m=1 appends
// under some debug settings, keeping just the function spelling.
func normalizeFuncName(s string) string {
	if i := strings.Index(s, " with cost "); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}
