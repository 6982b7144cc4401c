package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix is the comment prefix every analyzer directive shares.
// Directives are machine-readable comments in the Go toolchain style
// (//go:noinline): no space after the slashes, a namespace, a colon, a
// verb and optional arguments:
//
//	//repro:hotpath
//	//repro:allow-bce class < NumClasses by construction
//	//repro:deterministic
//	//repro:order-insensitive gauge only, never in a reproduced table
//	//repro:guardedby mu
//	//repro:locked caller holds s.mu (see Serve)
//
// A directive applies to the source line it trails, or — when it stands
// in a comment block of its own — to the declaration or statement
// immediately below the block.
const DirectivePrefix = "//repro:"

// Directive is one parsed //repro: comment.
type Directive struct {
	// Name is the verb after the colon ("hotpath", "guardedby", ...).
	Name string
	// Args is the remainder of the line, space-trimmed.
	Args string
	// Pos is the position of the comment.
	Pos token.Pos
}

// lineDirective is a directive plus the lines it applies to.
type lineDirective struct {
	d Directive
	// ownLine is the line the comment sits on (trailing-comment match).
	ownLine int
	// belowLine is the line a leading comment block annotates: the line
	// after the block's last line. 0 when the directive's group does not
	// immediately precede code (tracked conservatively: it is simply
	// lastGroupLine+1).
	belowLine int
}

// Directives indexes every //repro: directive of a set of files by
// position, so analyzers can ask "is this node annotated?" in O(1).
type Directives struct {
	fset *token.FileSet
	// byFileLine maps filename → line → directives applying to that line.
	byFileLine map[string]map[int][]*lineDirective
	// used records directives consumed by some analyzer decision, letting
	// analyzers flag stale escapes (//repro:order-insensitive).
	used map[*lineDirective]bool
}

// NewDirectives indexes the //repro: directives of files.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fset:       fset,
		byFileLine: make(map[string]map[int][]*lineDirective),
		used:       make(map[*lineDirective]bool),
	}
	for _, f := range files {
		for _, group := range f.Comments {
			last := fset.Position(group.End()).Line
			for _, c := range group.List {
				dir, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				dir.Pos = c.Pos()
				pos := fset.Position(c.Pos())
				ld := &lineDirective{d: dir, ownLine: pos.Line, belowLine: last + 1}
				m := d.byFileLine[pos.Filename]
				if m == nil {
					m = make(map[int][]*lineDirective)
					d.byFileLine[pos.Filename] = m
				}
				m[ld.ownLine] = append(m[ld.ownLine], ld)
				if ld.belowLine != ld.ownLine {
					m[ld.belowLine] = append(m[ld.belowLine], ld)
				}
			}
		}
	}
	return d
}

// ParseDirective parses one comment text, reporting whether it is a
// //repro: directive.
func ParseDirective(text string) (Directive, bool) {
	rest, ok := strings.CutPrefix(text, DirectivePrefix)
	if !ok {
		return Directive{}, false
	}
	// An embedded "//" ends the directive, so an ordinary comment can
	// follow on the same line (analysistest fixtures put their // want
	// expectations there).
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	name, args, _ := strings.Cut(rest, " ")
	return Directive{Name: name, Args: strings.TrimSpace(args)}, true
}

// at returns the directives applying to pos's line.
func (d *Directives) at(pos token.Pos) []*lineDirective {
	p := d.fset.Position(pos)
	return d.byFileLine[p.Filename][p.Line]
}

// Get returns the directive named name applying to pos's line (either
// trailing on the same line, or in the comment block immediately above)
// and marks it used.
func (d *Directives) Get(pos token.Pos, name string) (Directive, bool) {
	for _, ld := range d.at(pos) {
		if ld.d.Name == name {
			d.used[ld] = true
			return ld.d, true
		}
	}
	return Directive{}, false
}

// FuncDirective scans a function declaration's doc comment for a
// directive (doc blocks can be long, so the line-adjacency rule of Get
// is not enough).
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	return commentGroupDirective(fn.Doc, name)
}

// FieldDirective scans a struct field's doc and trailing comments.
func FieldDirective(field *ast.Field, name string) (Directive, bool) {
	if dir, ok := commentGroupDirective(field.Doc, name); ok {
		return dir, true
	}
	return commentGroupDirective(field.Comment, name)
}

func commentGroupDirective(g *ast.CommentGroup, name string) (Directive, bool) {
	if g == nil {
		return Directive{}, false
	}
	for _, c := range g.List {
		if dir, ok := ParseDirective(c.Text); ok && dir.Name == name {
			dir.Pos = c.Pos()
			return dir, true
		}
	}
	return Directive{}, false
}

// Unused returns every indexed directive with the given name that no
// analyzer consumed via Get, in file order. The determinism analyzer
// uses it to reject stale escapes.
func (d *Directives) Unused(name string) []Directive {
	seen := make(map[*lineDirective]bool)
	var out []Directive
	for _, lines := range d.byFileLine {
		for _, lds := range lines {
			for _, ld := range lds {
				if ld.d.Name == name && !d.used[ld] && !seen[ld] {
					seen[ld] = true
					out = append(out, ld.d)
				}
			}
		}
	}
	sortDirectives(out, d.fset)
	return out
}

func sortDirectives(ds []Directive, fset *token.FileSet) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0; j-- {
			a, b := fset.Position(ds[j-1].Pos), fset.Position(ds[j].Pos)
			if a.Filename < b.Filename || (a.Filename == b.Filename && a.Offset <= b.Offset) {
				break
			}
			ds[j-1], ds[j] = ds[j], ds[j-1]
		}
	}
}
