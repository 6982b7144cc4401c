package workload

import (
	"errors"
	"io"
	"testing"

	"repro/internal/trace"
)

func tinyProgram() *Program {
	return NewBuilder("tiny", 42).
		SetLength(1000).
		Block(10, 2, 4,
			S(Loop{Trip: 3}),
			S(Const{Taken: true}),
		).
		Block(5, 1, 2,
			S(Biased{P: 0.7}),
		).
		MustBuild()
}

func TestProgramImplementsTrace(t *testing.T) {
	var _ trace.Trace = tinyProgram()
}

func TestProgramLength(t *testing.T) {
	p := tinyProgram()
	recs, err := trace.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1000 {
		t.Fatalf("got %d records, want 1000", len(recs))
	}
}

func TestProgramReplayIdentical(t *testing.T) {
	p := tinyProgram()
	a, _ := trace.Collect(p)
	b, _ := trace.Collect(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProgramSeedsDiffer(t *testing.T) {
	p1 := NewBuilder("a", 1).SetLength(500).
		Block(1, 1, 1, S(Biased{P: 0.5})).MustBuild()
	p2 := NewBuilder("a", 2).SetLength(500).
		Block(1, 1, 1, S(Biased{P: 0.5})).MustBuild()
	a, _ := trace.Collect(p1)
	b, _ := trace.Collect(p2)
	same := 0
	for i := range a {
		if a[i].Taken == b[i].Taken {
			same++
		}
	}
	if same > 450 {
		t.Fatalf("different seeds produced nearly identical outcome streams (%d/500 equal)", same)
	}
}

func TestProgramRecordFields(t *testing.T) {
	recs, _ := trace.Collect(tinyProgram())
	pcs := map[uint64]bool{}
	for i, r := range recs {
		if r.Instr < 1 {
			t.Fatalf("record %d has zero instruction count", i)
		}
		if r.PC == 0 {
			t.Fatalf("record %d has zero PC", i)
		}
		pcs[r.PC] = true
	}
	// tiny program has 3 sites.
	if len(pcs) != 3 {
		t.Fatalf("distinct PCs = %d, want 3", len(pcs))
	}
}

func TestProgramDefaultLength(t *testing.T) {
	p := NewBuilder("d", 3).
		Block(1, 1, 1, S(Const{Taken: true})).
		MustBuild()
	r := p.Open()
	n := 0
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		n++
		if n > DefaultLength {
			t.Fatal("stream exceeded DefaultLength")
		}
	}
	if n != DefaultLength {
		t.Fatalf("default length = %d, want %d", n, DefaultLength)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	valid := tinyProgram()
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"no sites", func(p *Program) { p.Sites = nil }},
		{"no blocks", func(p *Program) { p.Blocks = nil }},
		{"empty block", func(p *Program) { p.Blocks[0].Sites = nil }},
		{"bad site index", func(p *Program) { p.Blocks[0].Sites = []int{99} }},
		{"negative site index", func(p *Program) { p.Blocks[0].Sites = []int{-1} }},
		{"zero weight total", func(p *Program) {
			for i := range p.Blocks {
				p.Blocks[i].Weight = 0
			}
		}},
		{"negative weight", func(p *Program) { p.Blocks[0].Weight = -1 }},
		{"bad reps", func(p *Program) { p.Blocks[0].MinRep = 0 }},
		{"maxRep < minRep", func(p *Program) { p.Blocks[0].MaxRep = p.Blocks[0].MinRep - 1 }},
		{"nil behavior", func(p *Program) { p.Sites[0].Behavior = nil }},
	}
	for _, c := range cases {
		p := *valid
		p.Sites = append([]Site(nil), valid.Sites...)
		p.Blocks = make([]Block, len(valid.Blocks))
		for i, b := range valid.Blocks {
			p.Blocks[i] = b
			p.Blocks[i].Sites = append([]int(nil), b.Sites...)
		}
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate did not catch the error", c.name)
		}
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestOpenPanicsOnInvalid(t *testing.T) {
	p := &Program{ProgName: "broken"}
	defer func() {
		if recover() == nil {
			t.Fatal("Open on invalid program should panic")
		}
	}()
	p.Open()
}

func TestBuilderAssignsDistinctAlignedPCs(t *testing.T) {
	b := NewBuilder("pcs", 7)
	for i := 0; i < 10; i++ {
		b.Block(1, 1, 1, S(Const{Taken: true}), S(Const{Taken: false}))
	}
	p := b.MustBuild()
	seen := map[uint64]bool{}
	for _, s := range p.Sites {
		if s.PC%4 != 0 {
			t.Fatalf("PC %#x not 4-byte aligned", s.PC)
		}
		if seen[s.PC] {
			t.Fatalf("duplicate PC %#x", s.PC)
		}
		seen[s.PC] = true
	}
}

func TestBuilderGapSpreadsAddresses(t *testing.T) {
	b := NewBuilder("gap", 8)
	b.Block(1, 1, 1, S(Const{Taken: true}))
	b.Gap(1 << 20)
	b.Block(1, 1, 1, S(Const{Taken: true}))
	p := b.MustBuild()
	if p.Sites[1].PC-p.Sites[0].PC < 1<<20 {
		t.Fatalf("gap not applied: %#x .. %#x", p.Sites[0].PC, p.Sites[1].PC)
	}
}

func TestBuilderFootprint(t *testing.T) {
	b := NewBuilder("fp", 9)
	calls := 0
	b.Footprint(5, 4, 1, 1, 2, func(i int) SiteDef {
		calls++
		return S(Biased{P: 0.9})
	})
	p := b.MustBuild()
	if calls != 20 {
		t.Fatalf("generator called %d times, want 20", calls)
	}
	if len(p.Sites) != 20 || len(p.Blocks) != 5 {
		t.Fatalf("footprint shape: %d sites, %d blocks", len(p.Sites), len(p.Blocks))
	}
}

func TestBuildErrorPropagates(t *testing.T) {
	b := NewBuilder("bad", 10) // no blocks
	if _, err := b.Build(); err == nil {
		t.Fatal("Build on empty program should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on error")
		}
	}()
	NewBuilder("bad2", 11).MustBuild()
}

func TestSIHelper(t *testing.T) {
	d := SI(Const{Taken: true}, 9)
	if d.Instr != 9 {
		t.Fatalf("SI instr = %d", d.Instr)
	}
	p := NewBuilder("si", 12).SetLength(10).
		Block(1, 1, 1, SI(Const{Taken: true}, 9)).MustBuild()
	recs, _ := trace.Collect(p)
	for _, r := range recs {
		if r.Instr != 9 {
			t.Fatalf("explicit instruction gap not honored: %d", r.Instr)
		}
	}
}

func TestBlockRepetitionLocality(t *testing.T) {
	// With one high-weight block repeated 5..10 times, consecutive records
	// must come in runs from that block's sites.
	p := NewBuilder("loc", 13).SetLength(2000).
		Block(100, 5, 10, S(Const{Taken: true}), S(Const{Taken: false})).
		Block(1, 1, 1, S(Biased{P: 0.5})).
		MustBuild()
	recs, _ := trace.Collect(p)
	sitePCs := map[uint64]int{}
	for i, s := range p.Sites {
		sitePCs[s.PC] = i
	}
	// The hot block's two sites must alternate strictly within activations.
	hot := 0
	for i := 1; i < len(recs); i++ {
		a, b := sitePCs[recs[i-1].PC], sitePCs[recs[i].PC]
		if a == 0 && b == 1 {
			hot++
		}
	}
	if hot < 500 {
		t.Fatalf("expected strong block locality, saw only %d hot-pair transitions", hot)
	}
}

func TestWeightBiasesSchedule(t *testing.T) {
	p := NewBuilder("w", 14).SetLength(30000).
		Block(9, 1, 1, S(Const{Taken: true})).
		Block(1, 1, 1, S(Const{Taken: false})).
		MustBuild()
	recs, _ := trace.Collect(p)
	taken := 0
	for _, r := range recs {
		if r.Taken {
			taken++
		}
	}
	frac := float64(taken) / float64(len(recs))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("weight-9 block fraction = %v, want ~0.9", frac)
	}
}
