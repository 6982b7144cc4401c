package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text       string
		ok         bool
		name, args string
	}{
		{"// repro:hotpath", false, "", ""}, // space after slashes: ordinary comment
		{"//repro:hotpath", true, "hotpath", ""},
		{"//repro:locked caller holds mu", true, "locked", "caller holds mu"},
		{"//repro:guardedby mu", true, "guardedby", "mu"},
		{"//repro:order-insensitive why not // want \"x\"", true, "order-insensitive", "why not"},
		{"//repro:order-insensitive // want \"y\"", true, "order-insensitive", ""},
		{"//not-a-directive", false, "", ""},
	}
	for _, c := range cases {
		dir, ok := ParseDirective(c.text)
		if ok != c.ok {
			t.Errorf("ParseDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if dir.Name != c.name || dir.Args != c.args {
			t.Errorf("ParseDirective(%q) = (%q, %q), want (%q, %q)", c.text, dir.Name, dir.Args, c.name, c.args)
		}
	}
}

const directivesSrc = `package p

//repro:hotpath
func hot() {
	x := 1 //repro:order-insensitive trailing escape
	_ = x
}
`

func TestDirectivesLineApplication(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectives(fset, []*ast.File{f})

	// Line 4 is the func declaration: the leading block on line 3 applies.
	fn := f.Decls[0].(*ast.FuncDecl)
	if _, ok := d.Get(fn.Pos(), "hotpath"); !ok {
		t.Errorf("hotpath directive does not apply to the declaration below it")
	}

	// The trailing escape applies to its own line and is consumed by Get.
	body := fn.Body.List[0].(*ast.AssignStmt)
	dir, ok := d.Get(body.Pos(), "order-insensitive")
	if !ok {
		t.Fatalf("trailing order-insensitive does not apply to its own line")
	}
	if dir.Args != "trailing escape" {
		t.Errorf("order-insensitive args = %q, want %q", dir.Args, "trailing escape")
	}
	if unused := d.Unused("order-insensitive"); len(unused) != 0 {
		t.Errorf("consumed directive still reported unused: %v", unused)
	}
	if unused := d.Unused("hotpath"); len(unused) != 0 {
		t.Errorf("Get did not mark the hotpath directive used: %v", unused)
	}
}
