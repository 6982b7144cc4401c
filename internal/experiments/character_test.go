package experiments

// character_test locks the per-trace flavor of the synthetic suites
// against regressions: the paper's qualitative remarks about individual
// traces must stay true when workload recipes are retuned.

import (
	"sort"
	"testing"

	"repro/internal/tage"
)

func cbp2Rates(t *testing.T) map[string]float64 {
	t.Helper()
	r := testRunner()
	sr, err := r.Suite(tage.Small16K(), standardOpts(), "cbp2")
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, res := range sr.PerTrace {
		rates[res.Trace] = res.Total.MKP()
	}
	return rates
}

// §6: "intrinsically unpredictable benchmark like twolf, gzip" — these
// must rank among the hardest CBP-2 traces.
func TestCharacterHardTraces(t *testing.T) {
	rates := cbp2Rates(t)
	type tr struct {
		name string
		mkp  float64
	}
	var all []tr
	for n, m := range rates {
		all = append(all, tr{n, m})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mkp > all[j].mkp })
	rank := map[string]int{}
	for i, x := range all {
		rank[x.name] = i
	}
	if rank["300.twolf"] > 4 {
		t.Errorf("twolf ranked %d hardest, want top-5 (rates %v)", rank["300.twolf"]+1, all[:6])
	}
	if rank["164.gzip"] > 6 {
		t.Errorf("gzip ranked %d hardest, want top-7", rank["164.gzip"]+1)
	}
}

// The predictable traces (eon, raytrace, mtrt, mpegaudio per the CBP-2
// folklore the recipes encode) must rank among the easiest.
func TestCharacterEasyTraces(t *testing.T) {
	rates := cbp2Rates(t)
	var sorted []float64
	for _, m := range rates {
		sorted = append(sorted, m)
	}
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	for _, n := range []string{"252.eon", "205.raytrace", "227.mtrt"} {
		if rates[n] > median {
			t.Errorf("%s at %.1f MKP should be below the suite median %.1f", n, rates[n], median)
		}
	}
}

// §4: "some benchmarks benefit a lot from the extra capacity of the large
// predictor" — the footprint-heavy traces must gain far more from 256 Kbit
// than the intrinsically unpredictable ones.
func TestCharacterCapacitySensitivity(t *testing.T) {
	r := testRunner()
	small, err := r.Suite(tage.Small16K(), standardOpts(), "cbp2")
	if err != nil {
		t.Fatal(err)
	}
	large, err := r.Suite(tage.Large256K(), standardOpts(), "cbp2")
	if err != nil {
		t.Fatal(err)
	}
	gain := func(name string) float64 {
		var s, l float64
		for _, res := range small.PerTrace {
			if res.Trace == name {
				s = res.Total.MKP()
			}
		}
		for _, res := range large.PerTrace {
			if res.Trace == name {
				l = res.Total.MKP()
			}
		}
		if s == 0 {
			t.Fatalf("trace %s missing", name)
		}
		return 1 - l/s
	}
	footprint := gain("176.gcc") // large static footprint
	noise := gain("300.twolf")   // intrinsically unpredictable
	if footprint < noise {
		t.Errorf("gcc capacity gain %.3f should exceed twolf %.3f", footprint, noise)
	}
	// Loose absolute floor: warmup at the test trace length mutes the
	// capacity effect (full-length gain is ~0.5 at DefaultLimit).
	if footprint < 0.08 {
		t.Errorf("gcc should gain substantially from 256Kbits, got %.3f", footprint)
	}
}

// The server family must show the paper's signature: high BIM coverage
// with a BIM misprediction rate comparable to the trace average on the
// small predictor (§5.1.1: "for some applications (e.g. the server
// traces) this misprediction rate is in the same range as the global
// misprediction rate").
func TestCharacterServerBimodalPressure(t *testing.T) {
	r := testRunner()
	sr, err := r.Suite(tage.Small16K(), standardOpts(), "cbp1")
	if err != nil {
		t.Fatal(err)
	}
	census, err := r.RunFamilyCensus()
	if err != nil {
		t.Fatal(err)
	}
	var serv, fp FamilyCensusRow
	for _, row := range census.Rows {
		switch row.Family {
		case "SERV":
			serv = row
		case "FP":
			fp = row
		}
	}
	if serv.BimPcov <= fp.BimPcov {
		t.Errorf("SERV BIM coverage %.3f should exceed FP %.3f", serv.BimPcov, fp.BimPcov)
	}
	if serv.MPKI <= fp.MPKI {
		t.Errorf("SERV misp/KI %.2f should exceed FP %.2f on 16Kbits", serv.MPKI, fp.MPKI)
	}
	_ = sr
}
