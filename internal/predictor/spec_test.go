package predictor

import (
	"strings"
	"testing"
)

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
	}{
		{"tage", "tage"},
		{"tage-64K", "tage-64K"},
		{"tage-64K?mode=adaptive", "tage-64K?mode=adaptive"},
		{"tage-16K?mode=adaptive&mkp=4", "tage-16K?mkp=4&mode=adaptive"},
		{"tage-64K?window=-1", "tage-64K?window=-1"},
		{"bimodal-64K", "bimodal-64K"},
		{"bimodal-64K?log=15", "bimodal-64K?log=15"},
		{"perceptron?log=10&hist=31", "perceptron?hist=31&log=10"},
		{"ogehl", "ogehl"},
		{"jrs-16K?enhanced=true", "jrs-16K?enhanced=true"},
		{"tage-custom?hist=3,8,21,80&name=probe", "tage-custom?hist=3,8,21,80&name=probe"},
		{"x9-v1.2_a?k=v", "x9-v1.2_a?k=v"},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := sp.String(); got != c.canonical {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.canonical)
		}
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", sp.String(), err)
		}
		if again != sp {
			t.Errorf("parse -> canonical -> parse not identity for %q: %+v vs %+v", c.in, again, sp)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"-64K",
		"Tage",
		"9tage",
		"tage_",
		"tage-",
		"tage-64K?",
		"tage?",
		"tage?mode",
		"tage?=adaptive",
		"tage?mode=",
		"tage?mode=adaptive&mode=standard",
		"tage?mode=adaptive&&mkp=4",
		"tage?mode=adaptive&",
		"tage?MODE=adaptive",
		"tage?mode=ad aptive",
		"tage?mode=a=b",
		"tage?mode=%zz",
		"tage?mode=%2",
		strings.Repeat("a", MaxSpecLen+1),
	}
	for _, in := range bad {
		if sp, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted as %+v, want error", in, sp)
		}
	}
}

func TestSpecParamAccessors(t *testing.T) {
	sp := MustParse("tage-64K?mode=adaptive&mkp=4")
	if v, ok := sp.Param("mode"); !ok || v != "adaptive" {
		t.Fatalf("Param(mode) = %q, %v", v, ok)
	}
	if _, ok := sp.Param("window"); ok {
		t.Fatal("Param(window) should be unset")
	}
}

func TestSpecValueEscaping(t *testing.T) {
	// Arbitrary values — structural grammar characters, spaces, control
	// and non-ASCII bytes — must all round-trip through String/Parse:
	// the canonical invariant holds for every Spec MakeSpec can produce,
	// not just well-behaved values.
	for _, value := range []string{
		"a&b=c?d%e",
		"a b",
		"tab\there",
		"ctl\x01\x7f",
		"utf8-\xc3\xa9",
		"%zz-literal",
	} {
		sp, err := MakeSpec("tage", "custom", []Param{{Key: "name", Value: value}})
		if err != nil {
			t.Fatalf("MakeSpec(%q): %v", value, err)
		}
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("reparse %q (value %q): %v", sp.String(), value, err)
		}
		if again != sp {
			t.Fatalf("escaped roundtrip: %q vs %q", again.String(), sp.String())
		}
		if v, _ := again.Param("name"); v != value {
			t.Fatalf("unescaped value = %q, want %q", v, value)
		}
	}
}

func TestMakeSpecValidation(t *testing.T) {
	if _, err := MakeSpec("", "", nil); err == nil {
		t.Error("empty family accepted")
	}
	if _, err := MakeSpec("tage", "6 4K", nil); err == nil {
		t.Error("bad variant accepted")
	}
	if _, err := MakeSpec("tage", "", []Param{{Key: "k", Value: ""}}); err == nil {
		t.Error("empty value accepted")
	}
	if _, err := MakeSpec("tage", "", []Param{{Key: "k", Value: "1"}, {Key: "k", Value: "2"}}); err == nil {
		t.Error("duplicate key accepted")
	}
}
