package predictor

import "testing"

// FuzzParseSpec mirrors the wire-protocol FuzzFrame for the spec
// grammar: arbitrary strings through Parse must either error or produce
// a canonical Spec whose string form reparses to the identical value —
// never panic, never drift. Malformed parameter segments, huge numbers
// (the builders reject them later with errors, not panics), empty
// segments and embedded escapes are all covered by the seeds.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"tage",
		"tage-64K",
		"tage-64K?mode=adaptive&mkp=4",
		"tage-16K?mkp=10.125&mode=adaptive&awindow=16384",
		"tage-custom?hist=3,8,21,80&name=probe&seed=0xDEAD",
		"bimodal-64K?log=13",
		"perceptron?log=10&hist=31",
		"ogehl?tables=8",
		"jrs-16K?enhanced=true&threshold=15",
		"ltage-64K?llog=6",
		"tage?mode=",
		"tage?=x",
		"tage-64K?",
		"tage?a=1&a=2",
		"tage?a=1&&b=2",
		"tage?seed=99999999999999999999999999999",
		"tage?name=%26%3D%3F%25",
		"tage?name=%zz",
		"-64K",
		"?a=b",
		"a-b-c?d=e-f",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := Parse(in)
		if err != nil {
			return
		}
		canon := sp.String()
		if len(canon) > 2*MaxSpecLen {
			t.Fatalf("canonical form of %q blew up to %d bytes", in, len(canon))
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not reparse: %v", canon, in, err)
		}
		if again != sp {
			t.Fatalf("parse -> canonical -> parse not identity: %q -> %+v vs %+v", in, again, sp)
		}
		// Params must decode without panicking and re-encode canonically.
		if rebuilt, err := MakeSpec(sp.Family, sp.Variant, sp.Params()); err == nil && rebuilt != sp {
			t.Fatalf("params decode/re-encode drifted: %q vs %q", rebuilt.String(), canon)
		}
	})
}
