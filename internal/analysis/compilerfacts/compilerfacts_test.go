package compilerfacts

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestParseSample pins the parser against a checked-in excerpt of real
// `go build -gcflags='-m=1 -d=ssa/check_bce/debug=1,ssa/prove/debug=1'`
// output. If a
// future Go release changes the diagnostic spelling, this test fails
// loudly instead of the facts gate going silently empty.
func TestParseSample(t *testing.T) {
	f, err := os.Open("testdata/sample_diag.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	diags, err := ParseDiagnostics(f)
	if err != nil {
		t.Fatal(err)
	}

	counts := make(map[DiagKind]int)
	for _, d := range diags {
		counts[d.Kind]++
	}
	if got, want := counts[BoundsCheck], 5; got != want {
		t.Errorf("IsInBounds: got %d, want %d", got, want)
	}
	if got, want := counts[SliceBoundsCheck], 1; got != want {
		t.Errorf("IsSliceInBounds: got %d, want %d", got, want)
	}
	if got, want := counts[CanInline], 6; got != want {
		t.Errorf("can-inline: got %d, want %d", got, want)
	}
	if got, want := counts[MovedToHeap], 2; got != want {
		t.Errorf("moved-to-heap: got %d, want %d", got, want)
	}
	// Only "Proved <shift op> bounded" is a shift fact: the other prove
	// lines (Mod64 fix-ups, IsInBounds, induction variables, shifts to
	// zero) must not parse as one.
	if got, want := counts[ShiftBounded], 2; got != want {
		t.Errorf("shift-bounded: got %d, want %d", got, want)
	}
	var shiftAt []string
	for _, d := range diags {
		if d.Kind == ShiftBounded {
			shiftAt = append(shiftAt, fmt.Sprintf("%s@%d:%d", d.Name, d.Line, d.Col))
		}
	}
	if got, want := strings.Join(shiftAt, ","), "Lsh32x64@127:28,Rsh32Ux64@128:19"; got != want {
		t.Errorf("shift-bounded sites: got %s, want %s", got, want)
	}

	// Package attribution from "# pkg" headers, with test-variant
	// suffixes collapsed.
	var sawUpdateBits, sawTestVariant bool
	for _, d := range diags {
		if d.Kind == CanInline && d.Name == "(*Folded).UpdateBits" {
			sawUpdateBits = true
			if d.Pkg != "repro/internal/history" {
				t.Errorf("UpdateBits attributed to %q", d.Pkg)
			}
		}
		if d.File == "internal/tage/tage_test.go" {
			sawTestVariant = true
			if d.Pkg != "repro/internal/tage" {
				t.Errorf("test-variant diag attributed to %q, want plain package path", d.Pkg)
			}
		}
	}
	if !sawUpdateBits {
		t.Error("no can-inline fact for (*Folded).UpdateBits parsed")
	}
	if !sawTestVariant {
		t.Error("test-variant package header not exercised")
	}

	// Positions survive parsing.
	first := diags[0]
	if first.File != "internal/history/history.go" || first.Line != 28 || first.Col != 6 {
		t.Errorf("first diag position: %+v", first)
	}

	// moved-to-heap names.
	var heapNames []string
	for _, d := range diags {
		if d.Kind == MovedToHeap {
			heapNames = append(heapNames, d.Name)
		}
	}
	if strings.Join(heapNames, ",") != "f,cfg" {
		t.Errorf("heap names: %v", heapNames)
	}

	// escapes-to-heap expressions; the boxed string constant is skipped.
	var escapes []string
	for _, d := range diags {
		if d.Kind == EscapesToHeap {
			escapes = append(escapes, d.Name)
		}
	}
	if got, want := strings.Join(escapes, ","), "&Predictor{...},pc"; got != want {
		t.Errorf("escapes: got %s, want %s", got, want)
	}
}

// TestEscapeViolation: an "escapes to heap" site inside a must-be-zero
// function fails the gate whatever the golden says, and a site outside
// every hotpath span is ignored.
func TestEscapeViolation(t *testing.T) {
	inv := &Inventory{waivers: make(map[string]map[int]*waiver)}
	for _, k := range mustBeZero {
		span := FuncSpan{Key: k, File: k, Start: 1, End: 1}
		if k == "repro/internal/sim.Result.Step" {
			span = FuncSpan{Key: k, File: "internal/sim/sim.go", Start: 120, End: 131}
		}
		inv.Funcs = append(inv.Funcs, span)
	}
	const out = `# repro/internal/sim
internal/sim/sim.go:127:10: make([]byte, int(br.PC & uint64(7)) + 1) escapes to heap
internal/sim/sim.go:127:10: make([]byte, int(br.PC & uint64(7)) + 1) escapes to heap
internal/sim/sim.go:140:9: &Result{...} escapes to heap
`
	diags, err := ParseDiagnostics(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := inv.report("go1.24.0", diags)
	for i := range r.InlineOK {
		r.InlineOK[i] = true
	}
	v := r.Violations()
	if len(v) != 1 || !strings.HasPrefix(v[0], "repro/internal/sim.Result.Step: 1 heap escape(s): make([]byte") {
		t.Errorf("violations: got %q, want one heap escape in sim.Result.Step", v)
	}
	if !strings.Contains(r.Render(), "escape repro/internal/sim.Result.Step 1\n") {
		t.Errorf("golden rendering lacks the escape count:\n%s", r.Render())
	}
}

// TestParseEmpty: no recognizable diagnostics parse to an empty slice —
// the Collect caller turns that into a loud format-drift error.
func TestParseEmpty(t *testing.T) {
	diags, err := ParseDiagnostics(strings.NewReader("gibberish\nnot a diagnostic\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("parsed %d diags from garbage", len(diags))
	}
}

// TestDiff pins the golden-diff rendering.
func TestDiff(t *testing.T) {
	golden := "# comment\ngo go1.24.0\nbce a.B 0\nbce a.C 2\ninline a.f yes\n"
	got := "go go1.24.0\nbce a.B 1\nbce a.C 2\ninline a.f yes\n"
	d := Diff(golden, got)
	want := []string{"- bce a.B 0", "+ bce a.B 1"}
	if len(d) != len(want) {
		t.Fatalf("diff: got %v, want %v", d, want)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("diff[%d]: got %q, want %q", i, d[i], want[i])
		}
	}
	if GoldenVersion(golden) != "go1.24.0" {
		t.Errorf("GoldenVersion: %q", GoldenVersion(golden))
	}
}

// TestVariableShifts pins which shifts the inventory hands to the
// bounded-shift match: every shift whose count is not a constant
// expression, at its operator position, and no constant-count shift.
func TestVariableShifts(t *testing.T) {
	const src = `package p

const width = 8

func f(x uint32, n uint) uint32 {
	const local = 3
	x = x<<1 | x>>width          // constant counts: not listed
	x ^= x << (width - local)    // constant expression: not listed
	x ^= x << n                  // variable: listed
	x ^= x >> (n & 31)           // variable, masked: listed (the compiler proves it)
	x <<= n                      // variable shift-assign: listed
	return x
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	consts := make(map[string]bool)
	addConstNames(f, consts)
	body := f.Decls[1].(*ast.FuncDecl).Body
	got := variableShifts(fset, body, consts)
	want := []LineCol{{9, 9}, {10, 9}, {11, 4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("variable shifts: got %v, want %v", got, want)
	}
}
