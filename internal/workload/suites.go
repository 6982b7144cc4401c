package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// SuiteLength is the per-trace record count used by the standard suites.
// Experiment harnesses shorten passes with trace.Limit when appropriate.
const SuiteLength = 600_000

// spec is a declarative trace recipe. buildSpec composes the archetype
// blocks it describes into a Program; the fields are knobs over the
// mechanisms that populate the paper's confidence classes (see the package
// comment).
type spec struct {
	name string
	seed uint64

	// constWeight schedules the glue block of effectively-constant branches
	// (high-conf-bim material: the bimodal component predicts them forever).
	constWeight int

	// loopTrips adds one hot block per entry with a fixed-trip loop. Long
	// trips (>80) are only fully captured by predictors with long histories.
	loopTrips []int

	// patternPeriods adds one hot block per entry with a periodic branch.
	patternPeriods []int

	// corrLags, if non-empty, adds a block whose last branch is an XOR of
	// the global outcomes at these lags (plus pattern neighbors providing
	// low-entropy history), with corrNoise intrinsic noise.
	corrLags  []int
	corrNoise float64

	// biasedPs adds one intrinsically-unpredictable block with these
	// taken-probabilities, scheduled with weight biasedWeight.
	biasedPs     []float64
	biasedWeight int

	// varLoops adds variable-trip loops (body predictable, exit not).
	varLoops [][2]int

	// footprintSites spreads this many near-constant branch sites over many
	// low-weight blocks (server-style static footprint; aliases the small
	// bimodal table). footprintBias is their taken-probability.
	footprintSites int
	footprintBias  float64

	// patternNoise is the per-execution flip probability of the pattern
	// branches (residual unpredictability of otherwise regular branches).
	// 0 selects the 0.01 default; negative disables noise entirely.
	patternNoise float64

	// phased adds behavior-switching blocks that invalidate learned state
	// periodically (warmup bursts feeding medium-conf-bim).
	phased bool

	length uint64
}

// patternBits generates a fixed pattern with a ~3:1 taken bias. Real
// regular branches are direction-dominated with sparse structured
// exceptions; the majority direction is served by densely-revisited
// short-history TAGE entries (which saturate quickly) while the exceptions
// need phase-specific long-history entries — the mix that produces the
// paper's saturated-class coverage. Unbiased random patterns would force
// every prediction through slow phase-specific entries.
func patternBits(r *xrand.Rand, period int) []bool {
	bits := make([]bool, period)
	ones := 0
	for i := range bits {
		bits[i] = r.Float64() < 0.75
		if bits[i] {
			ones++
		}
	}
	// Avoid degenerate all-same patterns, which would be Const.
	if ones == 0 {
		bits[0] = true
	}
	if ones == period {
		bits[period-1] = false
	}
	return bits
}

func buildSpec(s spec) *Program {
	if s.patternNoise == 0 {
		s.patternNoise = 0.001
	} else if s.patternNoise < 0 {
		s.patternNoise = 0
	}
	b := NewBuilder(s.name, s.seed)
	r := xrand.New(xrand.Mix64(s.seed ^ 0x5EED))
	length := s.length
	if length == 0 {
		length = SuiteLength
	}
	b.SetLength(length)

	if s.constWeight > 0 {
		b.Block(s.constWeight, 3, 8,
			S(Const{Taken: true}),
			S(Const{Taken: false}),
			S(Biased{P: 0.995}),
			S(Const{Taken: true}),
			S(Biased{P: 0.005}),
		)
	}
	// Loop and pattern blocks stay active long enough for several full
	// trips/periods per activation: a predictor can only capture a
	// structure whose history window fits inside one activation, so the
	// repetition count scales with the structure size (and the schedule
	// weight scales inversely, keeping each block's dynamic mass roughly
	// constant).
	for _, t := range s.loopTrips {
		w := 120 / t
		if w < 1 {
			w = 1
		}
		b.Block(w, 8*t, 16*t,
			S(Loop{Trip: t}),
			S(Const{Taken: true}),
			S(Biased{P: 0.998}),
		)
	}
	for _, p := range s.patternPeriods {
		w := 80 / p
		if w < 1 {
			w = 1
		}
		b.Block(w, 10*p, 20*p,
			S(Pattern{Bits: patternBits(r, p), Noise: s.patternNoise}),
			S(Const{Taken: false}),
		)
	}
	// Tight kernels: small-trip loops and short patterns whose few history
	// contexts are revisited densely. Their tagged entries accumulate
	// visits quickly, so they reach the saturated state even under the
	// modified automaton's 1/128 throttle — the fast-saturating stable mass
	// behind the paper's large high-confidence Stag coverage.
	b.Block(14, 20, 60,
		S(Const{Taken: true}),
		S(Pattern{Bits: []bool{true, false}, Noise: s.patternNoise}),
		S(Const{Taken: false}),
		S(Pattern{Bits: []bool{false, true, true, true}, Noise: s.patternNoise}),
	)
	if len(s.patternPeriods) > 0 {
		// A contained block of moderately-noisy learnable branches: the
		// residually-unpredictable mass (~10% misprediction after learning)
		// that populates the paper's nearly-saturated tagged class. Kept in
		// its own block so its noise does not pollute the clean patterns'
		// history contexts.
		b.Block(9, 30, 80,
			S(Pattern{Bits: patternBits(r, 7), Noise: 0.065}),
			S(Const{Taken: true}),
			S(Pattern{Bits: patternBits(r, 12), Noise: 0.065}),
		)
	}
	if len(s.corrLags) > 0 {
		// The correlated site sits at position 3 of a 4-branch block body,
		// so a lag ≡ 0 (mod 4) would reference the site's own past outcomes
		// and turn the branch into an unlearnable LFSR-style recurrence,
		// and a lag ≡ 1 (mod 4) would reference the constant-direction
		// loop-glue bit. Remap every lag to hit the pattern neighbors
		// (positions 0 and 1), keeping the branch a pure — and therefore
		// learnable — function of bounded-entropy history.
		lags := make([]int, len(s.corrLags))
		for i, l := range s.corrLags {
			switch l % 4 {
			case 0:
				l += 2
			case 1:
				l++
			}
			lags[i] = l
		}
		maxLag := lags[len(lags)-1]
		w := 400 / maxLag
		if w < 1 {
			w = 1
		}
		rep := maxLag / 2
		if rep < 8 {
			rep = 8
		}
		b.Block(w, rep, 2*rep,
			S(Pattern{Bits: patternBits(r, 6), Noise: s.patternNoise / 2}),
			S(Pattern{Bits: patternBits(r, 10), Noise: s.patternNoise / 2}),
			S(Loop{Trip: 5}),
			S(Correlated{Lags: lags, Noise: s.corrNoise}),
		)
	}
	if len(s.biasedPs) > 0 {
		defs := make([]SiteDef, len(s.biasedPs))
		for i, p := range s.biasedPs {
			defs[i] = S(Biased{P: p})
		}
		w := s.biasedWeight
		if w <= 0 {
			w = 5
		}
		// Comparable activation mass to the structured blocks, so
		// biasedWeight meaningfully scales the trace's irreducible noise.
		b.Block(w, 20, 50, defs...)
	}
	for _, vl := range s.varLoops {
		b.Block(6, 3, 8,
			S(VarLoop{Min: vl[0], Max: vl[1]}),
			S(Const{Taken: true}),
		)
	}
	if s.phased {
		b.Block(6, 2, 6,
			S(Phased{
				Phases: []Behavior{Biased{P: 0.95}, Biased{P: 0.05}},
				Period: 9_000,
			}),
			S(Phased{
				Phases: []Behavior{Pattern{Bits: patternBits(r, 9)}, Biased{P: 0.72}},
				Period: 14_000,
			}),
			S(Const{Taken: true}),
		)
	}
	if s.footprintSites > 0 {
		// Server-style footprint: many static sites, hot/cold weight skew
		// (real instruction working sets are heavily skewed), direction skew
		// ~72% taken (conflicting aliases often still agree), and block
		// repetition so short-history tagged tables can patch bimodal
		// conflicts — mirroring how TAGE recovers server-trace accuracy once
		// capacity suffices.
		perBlock := 8
		nBlocks := (s.footprintSites + perBlock - 1) / perBlock
		bias := s.footprintBias
		if bias == 0 {
			bias = 0.97
		}
		gen := func(i int) SiteDef {
			switch {
			case i%29 == 7:
				return S(Biased{P: 0.84 + float64(i%4)*0.03})
			case i%7 == 2:
				return S(Biased{P: bias})
			case i%5 == 1:
				return S(Biased{P: 0.985})
			case i%23 == 11:
				return S(Biased{P: 1 - bias})
			default:
				// Constant direction with ~78% taken skew.
				return S(Const{Taken: i%27 < 21})
			}
		}
		b.Gap(4096)
		hot := nBlocks / 8
		if hot < 1 {
			hot = 1
		}
		warm := nBlocks / 3
		b.Footprint(hot, perBlock, 6, 2, 4, gen)
		b.Footprint(warm, perBlock, 2, 2, 4, func(i int) SiteDef { return gen(i + hot*perBlock) })
		rest := nBlocks - hot - warm
		if rest > 0 {
			b.Footprint(rest, perBlock, 1, 1, 3, func(i int) SiteDef { return gen(i + (hot+warm)*perBlock) })
		}
	}
	return b.MustBuild()
}

// cbp1Specs defines the 20 CBP-1-style traces: 5 floating-point, 5 integer,
// 5 multimedia, 5 server. Family characters follow the paper's Figures 2/5:
// FP is loop/pattern-dominated and highly predictable; INT mixes correlated
// and unpredictable work; MM is bursty and partly intrinsically
// unpredictable; SERV has a huge static footprint that thrashes the small
// predictor's bimodal table.
func cbp1Specs() []spec {
	var specs []spec
	for i := 1; i <= 5; i++ {
		specs = append(specs, spec{
			name:           fmt.Sprintf("FP-%d", i),
			seed:           0xF9_0000 + uint64(i),
			constWeight:    34,
			loopTrips:      []int{6 + 2*i, 21 + 5*i, 70 + 28*i},
			patternPeriods: []int{6 + i, 14 + 2*i, 30 + 4*i},
			biasedPs:       []float64{0.90, 0.78},
			biasedWeight:   2,
			patternNoise:   0.0005,
			varLoops:       [][2]int{{3, 6 + i}},
		})
	}
	for i := 1; i <= 5; i++ {
		fi := float64(i)
		sp := spec{
			name:           fmt.Sprintf("INT-%d", i),
			seed:           0x177_0000 + uint64(i),
			constWeight:    22 - 4*i, // INT-5 has the smallest BIM coverage in the paper
			loopTrips:      []int{4 + i, 12 + 3*i},
			patternPeriods: []int{5 + 2*i, 18 + 6*i},
			corrLags:       []int{3 + i, 11 + 4*i, 23 + 9*i},
			corrNoise:      0.008 * fi,
			biasedPs:       []float64{0.58 + 0.03*fi, 0.75, 0.88},
			biasedWeight:   3,
			patternNoise:   0.002,
			varLoops:       [][2]int{{2, 5 + i}},
			footprintSites: 220 * i,
			footprintBias:  0.975,
		}
		if sp.constWeight < 1 {
			sp.constWeight = 1
		}
		specs = append(specs, sp)
	}
	for i := 1; i <= 5; i++ {
		fi := float64(i)
		specs = append(specs, spec{
			name:           fmt.Sprintf("MM-%d", i),
			seed:           0x3333_0000 + uint64(i),
			constWeight:    20,
			loopTrips:      []int{8, 16 + 8*i},
			patternPeriods: []int{12 + 4*i, 40 + 10*i},
			biasedPs:       []float64{0.55 + 0.02*fi, 0.63, 0.7},
			biasedWeight:   1 + i, // MM-5 in the paper is largely unpredictable
			patternNoise:   0.003,
			phased:         true,
			varLoops:       [][2]int{{4, 10 + 2*i}},
		})
	}
	for i := 1; i <= 5; i++ {
		specs = append(specs, spec{
			name:           fmt.Sprintf("SERV-%d", i),
			seed:           0x5E4_0000 + uint64(i),
			constWeight:    10,
			loopTrips:      []int{5, 11},
			patternPeriods: []int{8},
			biasedPs:       []float64{0.68, 0.8},
			biasedWeight:   2,
			patternNoise:   0.0015,
			footprintSites: 1500 + 500*i,
			footprintBias:  0.98,
			phased:         i >= 4,
		})
	}
	return specs
}

// cbp2Specs defines the 20 CBP-2-style traces with the SPEC/JVM98 names the
// paper reports. Per-trace flavors follow the paper's remarks: twolf, gzip
// and vpr are largely intrinsically unpredictable; eon, vortex, raytrace,
// mpegaudio are highly predictable; mcf rewards very long histories; gcc,
// javac, perlbmk have large static footprints.
func cbp2Specs() []spec {
	return []spec{
		{
			name: "164.gzip", seed: 0xC2_0001,
			constWeight: 14, loopTrips: []int{7, 30},
			patternPeriods: []int{9},
			biasedPs:       []float64{0.56, 0.6, 0.65}, biasedWeight: 16,
			varLoops: [][2]int{{2, 9}},
		},
		{
			name: "175.vpr", seed: 0xC2_0002,
			constWeight: 12, loopTrips: []int{5, 18},
			patternPeriods: []int{11, 26},
			biasedPs:       []float64{0.56, 0.64, 0.6}, biasedWeight: 12,
			corrLags: []int{4, 13}, corrNoise: 0.06,
		},
		{
			name: "176.gcc", seed: 0xC2_0003,
			constWeight: 15, loopTrips: []int{4, 9, 22},
			patternPeriods: []int{7, 15},
			biasedPs:       []float64{0.78, 0.88}, biasedWeight: 3,
			footprintSites: 2600, footprintBias: 0.965,
			phased: true,
		},
		{
			name: "181.mcf", seed: 0xC2_0004,
			constWeight: 16, loopTrips: []int{35, 110, 230},
			patternPeriods: []int{21, 55},
			corrLags:       []int{17, 61, 140}, corrNoise: 0.03,
			biasedPs: []float64{0.6, 0.72}, biasedWeight: 14,
		},
		{
			name: "186.crafty", seed: 0xC2_0005,
			constWeight: 15, loopTrips: []int{6, 14},
			patternPeriods: []int{10, 34},
			corrLags:       []int{5, 19, 44}, corrNoise: 0.04,
			biasedPs: []float64{0.64, 0.78, 0.88}, biasedWeight: 7,
			footprintSites: 700, footprintBias: 0.96,
		},
		{
			name: "197.parser", seed: 0xC2_0006,
			constWeight: 14, loopTrips: []int{5, 12, 28},
			patternPeriods: []int{8, 19},
			corrLags:       []int{6, 23}, corrNoise: 0.05,
			biasedPs: []float64{0.63, 0.74}, biasedWeight: 7,
			footprintSites: 900, footprintBias: 0.965,
		},
		{
			name: "201.compress", seed: 0xC2_0007,
			constWeight: 20, loopTrips: []int{9, 40},
			patternPeriods: []int{6},
			biasedPs:       []float64{0.6, 0.68}, biasedWeight: 8,
			varLoops: [][2]int{{3, 12}},
		},
		{
			name: "202.jess", seed: 0xC2_0008,
			constWeight: 26, loopTrips: []int{5, 16},
			patternPeriods: []int{9, 13},
			biasedPs:       []float64{0.82, 0.9}, biasedWeight: 3,
			footprintSites: 500, footprintBias: 0.975,
		},
		{
			name: "205.raytrace", seed: 0xC2_0009,
			constWeight: 28, loopTrips: []int{8, 24, 64},
			patternPeriods: []int{7, 17},
			biasedPs:       []float64{0.9, 0.95}, biasedWeight: 2,
			varLoops: [][2]int{{4, 9}},
		},
		{
			name: "209.db", seed: 0xC2_000A,
			constWeight: 14, loopTrips: []int{6, 20},
			patternPeriods: []int{12},
			biasedPs:       []float64{0.66, 0.78}, biasedWeight: 4,
			footprintSites: 1400, footprintBias: 0.965,
		},
		{
			name: "213.javac", seed: 0xC2_000B,
			constWeight: 16, loopTrips: []int{5, 13},
			patternPeriods: []int{9, 22},
			biasedPs:       []float64{0.72, 0.84}, biasedWeight: 4,
			footprintSites: 1700, footprintBias: 0.965,
			phased: true,
		},
		{
			name: "222.mpegaudio", seed: 0xC2_000C,
			constWeight: 24, loopTrips: []int{12, 32, 96},
			patternPeriods: []int{8, 16, 36},
			biasedPs:       []float64{0.9}, biasedWeight: 2,
		},
		{
			name: "227.mtrt", seed: 0xC2_000D,
			constWeight: 25, loopTrips: []int{8, 26, 70},
			patternPeriods: []int{7, 18},
			biasedPs:       []float64{0.88, 0.94}, biasedWeight: 3,
			varLoops: [][2]int{{3, 8}},
		},
		{
			name: "228.jack", seed: 0xC2_000E,
			constWeight: 18, loopTrips: []int{6, 15},
			patternPeriods: []int{11, 25},
			biasedPs:       []float64{0.72, 0.82}, biasedWeight: 5,
			footprintSites: 800, footprintBias: 0.97,
		},
		{
			name: "252.eon", seed: 0xC2_000F,
			constWeight: 32, loopTrips: []int{6, 18, 48},
			patternPeriods: []int{5, 12},
			biasedPs:       []float64{0.97}, biasedWeight: 1,
		},
		{
			name: "253.perlbmk", seed: 0xC2_0010,
			constWeight: 15, loopTrips: []int{5, 11, 27},
			patternPeriods: []int{9, 20},
			biasedPs:       []float64{0.78, 0.88}, biasedWeight: 2,
			footprintSites: 1900, footprintBias: 0.965,
		},
		{
			name: "254.gap", seed: 0xC2_0011,
			constWeight: 18, loopTrips: []int{7, 21, 55},
			patternPeriods: []int{10},
			corrLags:       []int{8, 31}, corrNoise: 0.04,
			biasedPs: []float64{0.7, 0.8}, biasedWeight: 5,
		},
		{
			name: "255.vortex", seed: 0xC2_0012,
			constWeight: 30, loopTrips: []int{5, 14, 38},
			patternPeriods: []int{6, 13},
			biasedPs:       []float64{0.95}, biasedWeight: 1,
			footprintSites: 1100, footprintBias: 0.98,
		},
		{
			name: "256.bzip2", seed: 0xC2_0013,
			constWeight: 17, loopTrips: []int{10, 44},
			patternPeriods: []int{8},
			biasedPs:       []float64{0.58, 0.64, 0.7}, biasedWeight: 10,
			varLoops: [][2]int{{2, 10}},
		},
		{
			name: "300.twolf", seed: 0xC2_0014,
			constWeight: 10, loopTrips: []int{5, 15},
			patternPeriods: []int{13, 29},
			biasedPs:       []float64{0.54, 0.59, 0.64, 0.68}, biasedWeight: 20,
			corrLags: []int{6, 17}, corrNoise: 0.08,
		},
	}
}

func buildSuite(specs []spec) []trace.Trace {
	out := make([]trace.Trace, len(specs))
	for i, s := range specs {
		out[i] = buildSpec(s)
	}
	return out
}

// The standard suites are built once and shared: Programs are immutable
// after construction (every Open derives a fresh deterministic stream), so
// one set of instances serves every caller, and no Runner.Suite call
// rebuilds the 20 Programs of a suite.
var (
	suiteOnce [2]sync.Once
	suiteMem  [2][]trace.Trace
)

func cachedSuite(i int, specs func() []spec) []trace.Trace {
	suiteOnce[i].Do(func() { suiteMem[i] = buildSuite(specs()) })
	// Callers get a fresh slice header so appends/sorts cannot corrupt the
	// shared suite; the Trace instances themselves are shared.
	out := make([]trace.Trace, len(suiteMem[i]))
	copy(out, suiteMem[i])
	return out
}

// CBP1 returns the 20-trace synthetic stand-in for the first Championship
// Branch Prediction trace set.
func CBP1() []trace.Trace { return cachedSuite(0, cbp1Specs) }

// CBP2 returns the 20-trace synthetic stand-in for the second Championship
// Branch Prediction trace set.
func CBP2() []trace.Trace { return cachedSuite(1, cbp2Specs) }

// All returns every trace of both suites (CBP-1 then CBP-2), the
// whole-corpus axis load generators and census-style experiments replay.
func All() []trace.Trace { return append(CBP1(), CBP2()...) }

// SuiteNames lists the standard suite identifiers (the experiment grids
// iterate these; Suite additionally accepts "all", their union).
func SuiteNames() []string { return []string{"cbp1", "cbp2"} }

// Suite returns a suite by name ("cbp1", "cbp2" or "all").
func Suite(name string) ([]trace.Trace, error) {
	switch name {
	case "cbp1", "CBP1", "cbp-1":
		return CBP1(), nil
	case "cbp2", "CBP2", "cbp-2":
		return CBP2(), nil
	case "all", "ALL":
		return All(), nil
	default:
		return nil, fmt.Errorf("workload: unknown suite %q (valid suites: %s)",
			name, strings.Join(append(SuiteNames(), "all"), ", "))
	}
}

// ByName returns the named trace from either suite. Unknown names error
// with the full list of valid trace names.
func ByName(name string) (trace.Trace, error) {
	for _, t := range CBP1() {
		if t.Name() == name {
			return t, nil
		}
	}
	for _, t := range CBP2() {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown trace %q (valid traces: %s)",
		name, strings.Join(TraceNames(), ", "))
}

// TraceNames returns the sorted names of all 40 traces.
func TraceNames() []string {
	var names []string
	for _, t := range CBP1() {
		names = append(names, t.Name())
	}
	for _, t := range CBP2() {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}
