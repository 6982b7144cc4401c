package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestCountsMKP(t *testing.T) {
	c := Counts{Preds: 1000, Misps: 40}
	if !almost(c.MKP(), 40) {
		t.Fatalf("MKP = %v, want 40", c.MKP())
	}
	if !almost(c.Rate(), 0.04) {
		t.Fatalf("Rate = %v, want 0.04", c.Rate())
	}
	var zero Counts
	if zero.MKP() != 0 {
		t.Fatal("zero counts must have MKP 0")
	}
}

func TestCountsRecordAdd(t *testing.T) {
	var c Counts
	c.Record(true)
	c.Record(false)
	c.Record(true)
	if c.Preds != 3 || c.Misps != 2 {
		t.Fatalf("counts = %+v", c)
	}
	var d Counts
	d.Add(c)
	d.Add(c)
	if d.Preds != 6 || d.Misps != 4 {
		t.Fatalf("after Add: %+v", d)
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestMPKI(t *testing.T) {
	if !almost(MPKI(42, 10000), 4.2) {
		t.Fatalf("MPKI = %v", MPKI(42, 10000))
	}
	if MPKI(42, 0) != 0 {
		t.Fatal("zero instructions must yield 0")
	}
}

func TestCoverages(t *testing.T) {
	total := Counts{Preds: 1000, Misps: 100}
	class := Counts{Preds: 250, Misps: 80}
	if !almost(Pcov(class, total), 0.25) {
		t.Fatalf("Pcov = %v", Pcov(class, total))
	}
	if !almost(MPcov(class, total), 0.8) {
		t.Fatalf("MPcov = %v", MPcov(class, total))
	}
	if Pcov(class, Counts{}) != 0 || MPcov(class, Counts{}) != 0 {
		t.Fatal("empty totals must yield 0 coverages")
	}
}

func TestBinaryMetricsKnownValues(t *testing.T) {
	// 90 high-correct, 10 high-wrong, 30 low-correct, 70 low-wrong.
	b := Binary{HighCorrect: 90, HighWrong: 10, LowCorrect: 30, LowWrong: 70}
	if !almost(b.Sens(), 90.0/120) {
		t.Errorf("Sens = %v", b.Sens())
	}
	if !almost(b.PVP(), 0.9) {
		t.Errorf("PVP = %v", b.PVP())
	}
	if !almost(b.Spec(), 70.0/80) {
		t.Errorf("Spec = %v", b.Spec())
	}
	if !almost(b.PVN(), 0.7) {
		t.Errorf("PVN = %v", b.PVN())
	}
	if b.Total() != 200 {
		t.Errorf("Total = %d", b.Total())
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

func TestBinaryAdd(t *testing.T) {
	b := Binary{HighCorrect: 1, HighWrong: 1, LowCorrect: 1, LowWrong: 1}
	var c Binary
	c.Add(b)
	c.Add(b)
	if c != (Binary{HighCorrect: 2, HighWrong: 2, LowCorrect: 2, LowWrong: 2}) || c.Total() != 8 {
		t.Fatalf("after two Adds: %+v, Total %d", c, c.Total())
	}
}

func TestBinaryZeroSafe(t *testing.T) {
	var b Binary
	for _, v := range []float64{b.Sens(), b.PVP(), b.Spec(), b.PVN()} {
		if v != 0 {
			t.Fatal("empty confusion must yield 0 metrics")
		}
	}
}

func TestQuickMetricsInRange(t *testing.T) {
	f := func(hc, hw, lc, lw uint16) bool {
		b := Binary{uint64(hc), uint64(hw), uint64(lc), uint64(lw)}
		for _, v := range []float64{b.Sens(), b.PVP(), b.Spec(), b.PVN()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoverageIdentities(t *testing.T) {
	// Splitting totals into two classes: coverages sum to 1 when both
	// classes are non-degenerate.
	f := func(aPreds, aMisps, bPreds, bMisps uint16) bool {
		a := Counts{uint64(aPreds) + 1, uint64(aMisps % (aPreds + 1))}
		b := Counts{uint64(bPreds) + 1, uint64(bMisps % (bPreds + 1))}
		var total Counts
		total.Add(a)
		total.Add(b)
		pc := Pcov(a, total) + Pcov(b, total)
		if math.Abs(pc-1) > 1e-9 {
			return false
		}
		if total.Misps > 0 {
			mc := MPcov(a, total) + MPcov(b, total)
			if math.Abs(mc-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
