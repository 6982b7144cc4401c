package jrs

import (
	"testing"

	"repro/internal/bimodal"
	"repro/internal/workload"
)

func TestColdIsLowConfidence(t *testing.T) {
	e := NewDefault(10, 8)
	if e.HighConfidence(0x100, true) {
		t.Fatal("cold estimator must be low confidence")
	}
}

func TestThresholdReached(t *testing.T) {
	e := NewDefault(10, 0) // no history bits: single slot per pc
	pc := uint64(0x100)
	for i := 0; i < 15; i++ {
		if e.HighConfidence(pc, true) {
			t.Fatalf("high confidence after only %d correct predictions", i)
		}
		e.Update(pc, true, true)
	}
	if !e.HighConfidence(pc, true) {
		t.Fatal("15 consecutive correct predictions must reach high confidence")
	}
}

func TestResetOnMisprediction(t *testing.T) {
	e := NewDefault(10, 0)
	pc := uint64(0x100)
	for i := 0; i < 20; i++ {
		e.Update(pc, true, true)
	}
	e.Update(pc, true, false) // mispredict
	if e.HighConfidence(pc, true) {
		t.Fatal("misprediction must reset the counter to low confidence")
	}
}

func TestCounterSaturates(t *testing.T) {
	e := New(8, 4, 15, 0)
	pc := uint64(0x40)
	for i := 0; i < 100; i++ {
		e.Update(pc, true, true)
	}
	if e.table[e.index(pc, true)] != 15 {
		t.Fatalf("counter = %d, want saturated 15", e.table[e.index(pc, true)])
	}
}

func TestHistoryIndexing(t *testing.T) {
	e := NewDefault(10, 8)
	pc := uint64(0x100)
	i1 := e.index(pc, true)
	e.Update(pc, true, true) // shifts history
	i2 := e.index(pc, true)
	if i1 == i2 {
		t.Fatal("index should change with history")
	}
}

func TestEnhancedSeparatesDirections(t *testing.T) {
	e := NewDefault(10, 0).Enhanced()
	pc := uint64(0x100)
	if e.index(pc, true) == e.index(pc, false) {
		t.Fatal("enhanced estimator must index taken/not-taken separately")
	}
	// Train the taken slot only; history must stay fixed for the check, so
	// use outcomes that keep ghist irrelevant (histBits 0).
	for i := 0; i < 20; i++ {
		e.Update(pc, true, true)
	}
	if !e.HighConfidence(pc, true) {
		t.Fatal("taken slot should be high confidence")
	}
	if e.HighConfidence(pc, false) {
		t.Fatal("not-taken slot must be independent")
	}
}

func TestPlainIgnoresDirection(t *testing.T) {
	e := NewDefault(10, 0)
	pc := uint64(0x100)
	if e.index(pc, true) != e.index(pc, false) {
		t.Fatal("plain JRS must ignore the predicted direction")
	}
}

func TestStorageBits(t *testing.T) {
	if got := NewDefault(12, 10).StorageBits(); got != 4096*4 {
		t.Fatalf("storage = %d, want 16384", got)
	}
	if NewDefault(12, 10).Threshold() != 15 {
		t.Fatal("default threshold wrong")
	}
	if got := NewDefault(DefaultLogSize, 10).StorageBits(); got != DefaultStorageBits {
		t.Fatalf("default table storage = %d, DefaultStorageBits = %d", got, DefaultStorageBits)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4, 15, 0) },
		func() { New(25, 4, 15, 0) },
		func() { New(10, 0, 15, 0) },
		func() { New(10, 9, 15, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args should panic")
				}
			}()
			f()
		}()
	}
}

func TestSeparatesConfidenceOnRealWorkload(t *testing.T) {
	// Paired with a bimodal predictor on a mixed workload, JRS
	// high-confidence predictions must mispredict far less often than
	// low-confidence ones.
	prog := workload.NewBuilder("mix", 31).SetLength(80000).
		Block(4, 5, 10,
			workload.S(workload.Pattern{Bits: []bool{true, true, false, true}}),
			workload.S(workload.Const{Taken: true}),
		).
		Block(2, 3, 6,
			workload.S(workload.Biased{P: 0.6}),
		).
		MustBuild()
	p := bimodal.New(12)
	e := NewDefault(12, 10)
	var hiMiss, hiTot, loMiss, loTot int
	r := prog.Open()
	n := 0
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		pred := p.Predict(b.PC)
		hi := e.HighConfidence(b.PC, pred)
		if n > 10000 {
			if hi {
				hiTot++
				if pred != b.Taken {
					hiMiss++
				}
			} else {
				loTot++
				if pred != b.Taken {
					loMiss++
				}
			}
		}
		e.Update(b.PC, pred, b.Taken)
		p.Update(b.PC, b.Taken)
		n++
	}
	if hiTot < 1000 || loTot < 100 {
		t.Fatalf("degenerate split hi=%d lo=%d", hiTot, loTot)
	}
	hiRate := float64(hiMiss) / float64(hiTot)
	loRate := float64(loMiss) / float64(loTot)
	if loRate < 4*hiRate {
		t.Fatalf("low-confidence rate %.4f should dwarf high-confidence rate %.4f", loRate, hiRate)
	}
}

func BenchmarkUpdate(b *testing.B) {
	e := NewDefault(14, 12)
	for i := 0; i < b.N; i++ {
		pc := uint64(i*17) & 0xFFFF
		pred := e.HighConfidence(pc, true)
		e.Update(pc, pred, i&3 != 0)
	}
}
