package history

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBufferNewestBit(t *testing.T) {
	b := NewBuffer(16)
	b.Push(true)
	if b.Bit(0) != 1 {
		t.Fatal("Bit(0) should be the just-pushed bit")
	}
	b.Push(false)
	if b.Bit(0) != 0 || b.Bit(1) != 1 {
		t.Fatalf("got Bit(0)=%d Bit(1)=%d, want 0,1", b.Bit(0), b.Bit(1))
	}
}

func TestBufferOrdering(t *testing.T) {
	b := NewBuffer(64)
	seq := []bool{true, true, false, true, false, false, true}
	for _, v := range seq {
		b.Push(v)
	}
	for i := range seq {
		want := uint8(0)
		if seq[len(seq)-1-i] {
			want = 1
		}
		if got := b.Bit(i); got != want {
			t.Errorf("Bit(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestBufferWrapAround(t *testing.T) {
	b := NewBuffer(8)
	// Push far more bits than capacity; the most recent ones must be intact.
	r := xrand.New(11)
	var recent []uint8
	for i := 0; i < 1000; i++ {
		v := r.Bool()
		b.Push(v)
		bit := uint8(0)
		if v {
			bit = 1
		}
		recent = append([]uint8{bit}, recent...)
		if len(recent) > 8 {
			recent = recent[:8]
		}
	}
	for i := 0; i < 8; i++ {
		if b.Bit(i) != recent[i] {
			t.Fatalf("after wrap, Bit(%d) = %d, want %d", i, b.Bit(i), recent[i])
		}
	}
}

func TestBufferCapacityRounding(t *testing.T) {
	b := NewBuffer(300)
	if b.Len() < 302 {
		t.Fatalf("buffer too small for requested capacity: %d", b.Len())
	}
	if b.Len()&(b.Len()-1) != 0 {
		t.Fatalf("buffer size %d is not a power of two", b.Len())
	}
}

func TestFoldedMatchesRecompute(t *testing.T) {
	// The incremental CSR automaton must equal the direct chunked-XOR
	// definition at every step, for a spread of window/compression shapes
	// including compLen > origLen and exact multiples, and for every
	// legal width at the window lengths around one and two folds.
	shapes := []struct{ orig, comp int }{
		{3, 2}, {5, 5}, {9, 4}, {27, 10}, {80, 9}, {130, 11},
		{300, 10}, {300, 9}, {7, 9}, {16, 8}, {17, 8},
	}
	for c := 1; c <= 31; c++ {
		for _, orig := range []int{0, 1, c - 1, c, 2*c + 1, 300} {
			shapes = append(shapes, struct{ orig, comp int }{orig, c})
		}
	}
	for _, s := range shapes {
		buf := NewBuffer(s.orig + 2)
		f := NewFolded(s.orig, s.comp)
		r := xrand.New(uint64(s.orig*1000 + s.comp))
		for step := 0; step < 2000; step++ {
			buf.Push(r.Bool())
			f.Update(buf)
			if got, want := f.Value(), f.Recompute(buf); got != want {
				t.Fatalf("shape %+v step %d: incremental %x != direct %x", s, step, got, want)
			}
		}
	}
}

func TestFoldedAllZeros(t *testing.T) {
	buf := NewBuffer(40)
	f := NewFolded(30, 7)
	for i := 0; i < 100; i++ {
		buf.Push(false)
		f.Update(buf)
		if f.Value() != 0 {
			t.Fatalf("all-zero history must fold to 0, got %x", f.Value())
		}
	}
}

func TestFoldedAllOnesPeriodicity(t *testing.T) {
	// With all-taken history, the folded value must become stable once the
	// window is full (steady state: same bit enters and leaves).
	buf := NewBuffer(40)
	f := NewFolded(20, 5)
	var prev uint32
	for i := 0; i < 200; i++ {
		buf.Push(true)
		f.Update(buf)
		if i > 25 && f.Value() != prev {
			t.Fatalf("steady-state all-ones folded value changed at %d: %x -> %x", i, prev, f.Value())
		}
		prev = f.Value()
	}
}

func TestFoldedValueWidth(t *testing.T) {
	buf := NewBuffer(310)
	f := NewFolded(300, 9)
	r := xrand.New(3)
	for i := 0; i < 5000; i++ {
		buf.Push(r.Bool())
		f.Update(buf)
		if f.Value() >= 1<<9 {
			t.Fatalf("folded value %x exceeds 9 bits", f.Value())
		}
	}
}

func TestFoldedReset(t *testing.T) {
	buf := NewBuffer(20)
	f := NewFolded(10, 4)
	for i := 0; i < 15; i++ {
		buf.Push(true)
		f.Update(buf)
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset must clear the folded value")
	}
}

func TestFoldedAccessors(t *testing.T) {
	f := NewFolded(80, 9)
	if f.OrigLen() != 80 || f.CompLen() != 9 {
		t.Fatalf("accessors: got (%d,%d), want (80,9)", f.OrigLen(), f.CompLen())
	}
}

func TestFoldedPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct{ orig, comp int }{{10, 0}, {10, 32}, {100, 32}, {10, 33}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFolded(%d,%d) should panic", c.orig, c.comp)
				}
			}()
			NewFolded(c.orig, c.comp)
		}()
	}
}

func TestFoldedDistinguishesHistories(t *testing.T) {
	// Different history contents should usually fold differently.
	mk := func(bits []bool) uint32 {
		buf := NewBuffer(40)
		f := NewFolded(len(bits), 8)
		for _, b := range bits {
			buf.Push(b)
			f.Update(buf)
		}
		return f.Value()
	}
	a := mk([]bool{true, false, true, true, false, false, true, false, true, true})
	b := mk([]bool{false, true, true, true, false, false, true, false, true, true})
	if a == b {
		t.Fatal("two different 10-bit histories folded identically at 8 bits")
	}
}

func TestPathHistory(t *testing.T) {
	p := NewPath(4)
	pcs := []uint64{1, 0, 1, 1}
	for _, pc := range pcs {
		p.Push(pc)
	}
	if p.Value() != 0b1011 {
		t.Fatalf("path value = %04b, want 1011", p.Value())
	}
	// Width must be enforced.
	for i := 0; i < 40; i++ {
		p.Push(1)
	}
	if p.Value() != 0b1111 {
		t.Fatalf("path must stay within 4 bits, got %b", p.Value())
	}
}

func TestPathWidthClamp(t *testing.T) {
	p := NewPath(99)
	if p.Width() != 32 {
		t.Fatalf("width clamp: got %d, want 32", p.Width())
	}
}

func TestGeometricLengthsPaperConfigs(t *testing.T) {
	// The three paper configurations: endpoints must be exact, series
	// strictly increasing.
	cases := []struct {
		min, max, n int
	}{
		{3, 80, 4},
		{5, 130, 7},
		{5, 300, 8},
	}
	for _, c := range cases {
		ls := GeometricLengths(c.min, c.max, c.n)
		if len(ls) != c.n {
			t.Fatalf("GeometricLengths(%d,%d,%d): got %d lengths", c.min, c.max, c.n, len(ls))
		}
		if ls[0] != c.min || ls[len(ls)-1] != c.max {
			t.Fatalf("endpoints: got %v, want %d..%d", ls, c.min, c.max)
		}
		for i := 1; i < len(ls); i++ {
			if ls[i] <= ls[i-1] {
				t.Fatalf("not strictly increasing: %v", ls)
			}
		}
	}
}

func TestGeometricLengthsKnownSeries(t *testing.T) {
	// min 3, max 80, 4 tables: alpha = (80/3)^(1/3) ≈ 2.986 -> 3, 9, 27, 80.
	got := GeometricLengths(3, 80, 4)
	want := []int{3, 9, 27, 80}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestGeometricLengthsDegenerate(t *testing.T) {
	if got := GeometricLengths(5, 100, 1); len(got) != 1 || got[0] != 100 {
		t.Fatalf("n=1: got %v, want [100]", got)
	}
	if got := GeometricLengths(5, 100, 0); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	// min > max collapses to min with monotonic bumping.
	got := GeometricLengths(10, 4, 3)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("degenerate series not increasing: %v", got)
		}
	}
}

func TestGeometricLengthsRatioApproximatelyConstant(t *testing.T) {
	ls := GeometricLengths(5, 300, 8)
	// Ratios should be within a loose band around alpha.
	for i := 2; i < len(ls); i++ {
		r := float64(ls[i]) / float64(ls[i-1])
		if r < 1.2 || r > 2.6 {
			t.Fatalf("ratio %v out of geometric band in %v", r, ls)
		}
	}
}

func TestQuickFoldedIncrementalEqualsDirect(t *testing.T) {
	f := func(seed uint64, origRaw, compRaw uint8) bool {
		orig := int(origRaw%200) + 1
		comp := int(compRaw%16) + 1
		buf := NewBuffer(orig + 2)
		fd := NewFolded(orig, comp)
		r := xrand.New(seed)
		for i := 0; i < 300; i++ {
			buf.Push(r.Bool())
			fd.Update(buf)
			if fd.Value() != fd.Recompute(buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFoldedUpdate(b *testing.B) {
	buf := NewBuffer(310)
	f := NewFolded(300, 10)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Push(r.Bool())
		f.Update(buf)
	}
}

func BenchmarkBufferPush(b *testing.B) {
	buf := NewBuffer(310)
	for i := 0; i < b.N; i++ {
		buf.Push(i&1 == 0)
	}
}
