package workload

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestSuitesHave20TracesEach(t *testing.T) {
	if got := len(CBP1()); got != 20 {
		t.Fatalf("CBP1 has %d traces, want 20", got)
	}
	if got := len(CBP2()); got != 20 {
		t.Fatalf("CBP2 has %d traces, want 20", got)
	}
}

func TestSuiteFamilies(t *testing.T) {
	counts := map[string]int{}
	for _, tr := range CBP1() {
		fam := strings.Split(tr.Name(), "-")[0]
		counts[fam]++
	}
	for _, fam := range []string{"FP", "INT", "MM", "SERV"} {
		if counts[fam] != 5 {
			t.Errorf("family %s has %d traces, want 5", fam, counts[fam])
		}
	}
}

func TestCBP2PaperNames(t *testing.T) {
	want := []string{
		"164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
		"197.parser", "201.compress", "202.jess", "205.raytrace", "209.db",
		"213.javac", "222.mpegaudio", "227.mtrt", "228.jack", "252.eon",
		"253.perlbmk", "254.gap", "255.vortex", "256.bzip2", "300.twolf",
	}
	got := CBP2()
	for i, name := range want {
		if got[i].Name() != name {
			t.Fatalf("CBP2[%d] = %q, want %q", i, got[i].Name(), name)
		}
	}
}

func TestAllTracesValidateAndStream(t *testing.T) {
	for _, tr := range append(CBP1(), CBP2()...) {
		p, ok := tr.(*Program)
		if !ok {
			t.Fatalf("%s is not a *Program", tr.Name())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", tr.Name(), err)
		}
		recs, err := trace.Collect(trace.Limit(tr, 2000))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if len(recs) != 2000 {
			t.Fatalf("%s produced %d records", tr.Name(), len(recs))
		}
	}
}

func TestTraceStatisticalCharacter(t *testing.T) {
	// Sanity band: taken rates should be mid-range (not degenerate), and
	// server traces must have much larger static footprints than FP traces.
	measure := func(tr trace.Trace) trace.Stats {
		s, err := trace.Measure(trace.Limit(tr, 30000))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		return s
	}
	var fpPCs, servPCs int
	for _, tr := range CBP1() {
		s := measure(tr)
		if s.TakenRate() < 0.15 || s.TakenRate() > 0.9 {
			t.Errorf("%s taken rate %.2f out of sanity band", tr.Name(), s.TakenRate())
		}
		if s.InstrPerBranch() < 2 || s.InstrPerBranch() > 10 {
			t.Errorf("%s instructions/branch %.2f out of band", tr.Name(), s.InstrPerBranch())
		}
		if strings.HasPrefix(tr.Name(), "FP-") {
			fpPCs += s.UniquePCs
		}
		if strings.HasPrefix(tr.Name(), "SERV-") {
			servPCs += s.UniquePCs
		}
	}
	if servPCs < 4*fpPCs {
		t.Errorf("server static footprint (%d PCs) should dwarf FP (%d PCs)", servPCs, fpPCs)
	}
}

func TestSuiteLookup(t *testing.T) {
	for _, name := range []string{"cbp1", "CBP1", "cbp-1", "cbp2", "CBP2", "cbp-2", "all"} {
		if _, err := Suite(name); err != nil {
			t.Errorf("Suite(%q) failed: %v", name, err)
		}
	}
	if _, err := Suite("nope"); err == nil {
		t.Error("unknown suite should error")
	}
}

func TestAll(t *testing.T) {
	all := All()
	if len(all) != 40 {
		t.Fatalf("All() returned %d traces, want 40", len(all))
	}
	if all[0].Name() != "FP-1" || all[39].Name() != "300.twolf" {
		t.Fatalf("All() order wrong: first %q last %q", all[0].Name(), all[39].Name())
	}
	// All must hand out a fresh slice header over the shared instances.
	all[0] = nil
	if All()[0] == nil {
		t.Fatal("All() shares its backing array with callers")
	}
}

func TestByName(t *testing.T) {
	tr, err := ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "300.twolf" {
		t.Fatalf("got %q", tr.Name())
	}
	tr, err = ByName("SERV-3")
	if err != nil || tr.Name() != "SERV-3" {
		t.Fatalf("SERV-3 lookup: %v %v", tr, err)
	}
	if _, err := ByName("777.nothing"); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestTraceNamesSortedUnique(t *testing.T) {
	names := TraceNames()
	if len(names) != 40 {
		t.Fatalf("TraceNames has %d entries, want 40", len(names))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Fatalf("duplicate trace name %q", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] > n {
			t.Fatalf("names not sorted at %d: %q > %q", i, names[i-1], n)
		}
	}
}

func TestSuiteSeedsAreDistinct(t *testing.T) {
	seeds := map[uint64]string{}
	for _, s := range append(cbp1Specs(), cbp2Specs()...) {
		if prev, dup := seeds[s.seed]; dup {
			t.Fatalf("seed %#x shared by %s and %s", s.seed, prev, s.name)
		}
		seeds[s.seed] = s.name
	}
}

func TestSuiteTracesReplayIdentically(t *testing.T) {
	for _, tr := range []trace.Trace{CBP1()[0], CBP2()[19]} {
		a, _ := trace.Collect(trace.Limit(tr, 5000))
		b, _ := trace.Collect(trace.Limit(tr, 5000))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s replay diverged at %d", tr.Name(), i)
			}
		}
	}
}

func TestPatternBitsNotDegenerate(t *testing.T) {
	r := newEnv(123).Rand
	for period := 2; period < 64; period++ {
		bits := patternBits(r, period)
		if len(bits) != period {
			t.Fatalf("period %d: got %d bits", period, len(bits))
		}
		ones := 0
		for _, b := range bits {
			if b {
				ones++
			}
		}
		if ones == 0 || ones == period {
			t.Fatalf("period %d: degenerate constant pattern", period)
		}
	}
}

// BenchmarkGenerate measures the synthetic trace source alone: every
// trace of both suites read through its reader at the benchmark's 150k
// branches per trace, in ns per branch. The tagebench ladder's
// workload.generate rung also collects the branches into a growing
// slice (trace.Collect), so it reads higher.
func BenchmarkGenerate(b *testing.B) {
	const limit = 150_000
	var sink uint64
	n := 0
	for b.Loop() {
		for _, tr := range All() {
			r := trace.Limit(tr, limit).Open()
			for {
				br, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				sink += br.PC
				n++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/branch")
	if sink == 0 {
		b.Fatal("no branches generated")
	}
}
