package experiments

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// TestRunnerKeyCoversAllResultAffectingFields is the regression test for
// the cache-collision bug: the old memoization key omitted
// Options.AdaptiveWindow entirely and truncated TargetMKP to one decimal,
// so option sets differing only in those fields silently shared one
// cached SuiteResult. Every pair below used to collide; each must now
// simulate independently (two cache misses, not one).
func TestRunnerKeyCoversAllResultAffectingFields(t *testing.T) {
	base := adaptiveOpts()
	cases := []struct {
		name string
		a, b core.Options
	}{
		{
			name: "AdaptiveWindow",
			a:    func() core.Options { o := base; o.AdaptiveWindow = 4096; return o }(),
			b:    func() core.Options { o := base; o.AdaptiveWindow = 16384; return o }(),
		},
		{
			name: "TargetMKP full precision",
			a:    func() core.Options { o := base; o.TargetMKP = 10.12; return o }(),
			b:    func() core.Options { o := base; o.TargetMKP = 10.14; return o }(),
		},
	}
	// Simulations now counts trace-level misses: one cbp1 suite run is 20
	// distinct (config, options, trace) simulations.
	const suiteTraces = 20
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewWorkers(2000, 1)
			if _, err := r.Suite(tage.Small16K(), c.a, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Suite(tage.Small16K(), c.b, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if got := r.Simulations(); got != 2*suiteTraces {
				t.Fatalf("distinct option sets ran %d simulations, want %d (cache collision)", got, 2*suiteTraces)
			}
			// And the genuinely identical request must still hit the cache.
			if _, err := r.Suite(tage.Small16K(), c.a, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if got := r.Simulations(); got != 2*suiteTraces {
				t.Fatalf("repeat request re-simulated: %d simulations, want %d", got, 2*suiteTraces)
			}
			if got := r.TraceHits(); got != suiteTraces {
				t.Fatalf("repeat request recorded %d trace hits, want %d", got, suiteTraces)
			}
		})
	}

	// Config-side coverage: ablations vary structural fields under (mostly)
	// unchanged names — every mutation below must occupy its own cache slot.
	r := NewWorkers(2000, 1)
	variants := []tage.Config{
		tage.Small16K(),
		func() tage.Config { c := tage.Small16K(); c.CtrBits = 4; return c }(),
		func() tage.Config { c := tage.Small16K(); c.DisableUseAltOnNA = true; return c }(),
		func() tage.Config { c := tage.Small16K(); c.UBits = 3; return c }(),
		func() tage.Config { c := tage.Small16K(); c.Seed = 0xDEAD; return c }(),
	}
	for _, cfg := range variants {
		if _, err := r.Suite(cfg, standardOpts(), "cbp1"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Simulations(), uint64(len(variants)*suiteTraces); got != want {
		t.Fatalf("%d config variants ran %d simulations, want %d", len(variants), got, want)
	}
}

// TestRunnerTraceGranularSharing pins the tentpole property of the
// per-trace memo: a Traces request overlapping an already simulated
// suite (or vice versa) is served entirely from cache, across different
// suite/subset shapes, with bit-identical results.
func TestRunnerTraceGranularSharing(t *testing.T) {
	r := NewWorkers(2000, 2)
	sub := []string{"164.gzip", "176.gcc", "181.mcf"}

	// Subset first: 3 simulations.
	first, err := r.Traces(tage.Medium64K(), standardOpts(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 3 {
		t.Fatalf("3-trace subset ran %d simulations, want 3", got)
	}

	// The full suite then only simulates the 17 traces not yet seen.
	sr, err := r.Suite(tage.Medium64K(), standardOpts(), "cbp2")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 20 {
		t.Fatalf("suite after subset ran %d total simulations, want 20", got)
	}
	if got := r.TraceHits(); got != 3 {
		t.Fatalf("suite after subset recorded %d trace hits, want 3", got)
	}

	// And the shared entries are the same results, bit for bit.
	byName := make(map[string]int)
	for i, res := range sr.PerTrace {
		byName[res.Trace] = i
	}
	for i, name := range sub {
		j, ok := byName[name]
		if !ok {
			t.Fatalf("suite result missing trace %s", name)
		}
		if first[i] != sr.PerTrace[j] {
			t.Fatalf("trace %s: subset and suite results differ", name)
		}
	}

	// A repeated subset request under the same key is all hits.
	if _, err := r.Traces(tage.Medium64K(), standardOpts(), sub); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 20 {
		t.Fatalf("repeat subset re-simulated: %d simulations, want 20", got)
	}
	if got := r.TraceHits(); got != 6 {
		t.Fatalf("repeat subset recorded %d trace hits, want 6", got)
	}
}

// TestRunnerSingleflightSimulatesOnce drives many goroutines at one
// (config, options, suite) request concurrently: each of the suite's 20
// (config, options, trace) triples must simulate exactly once, every
// caller must observe the identical result, and (with -race) the memo
// must be data-race free.
func TestRunnerSingleflightSimulatesOnce(t *testing.T) {
	r := NewWorkers(2000, 2)
	const callers = 8
	results := make([]float64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			sr, err := r.Suite(tage.Small16K(), modifiedOpts(), "cbp1")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = sr.Aggregate.MPKI()
		}(i)
	}
	wg.Wait()
	if got := r.Simulations(); got != 20 {
		t.Fatalf("%d concurrent callers ran %d trace simulations, want exactly 20 (one per suite trace)", callers, got)
	}
	if got := r.TraceHits(); got != uint64(callers-1)*20 {
		t.Fatalf("%d concurrent callers recorded %d trace hits, want %d", callers, got, (callers-1)*20)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw MPKI %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
}

// TestSharedPredictorLanes: entries that differ only in the classifier
// share one predictor (one lane) on each trace, and every entry still
// equals its own sim.RunConfig. The window group of the ablation (-1, 4, 8, 16, 32),
// the default window and the explicit default denominator share one
// key; the adaptive, denomlog, ctr and noalt variants each keep their
// own predictor, and merging any of them changes a result.
func TestSharedPredictorLanes(t *testing.T) {
	const limit = 20000
	cfg := tage.Small16K()
	modified := func(f func(*core.Options)) core.Options { o := modifiedOpts(); f(&o); return o }
	adaptive := func(win int) core.Options {
		return core.Options{Mode: core.ModeAdaptive, AdaptiveWindow: 512, BimWindow: win}
	}
	ctr4, noalt := cfg, cfg
	ctr4.CtrBits = 4
	noalt.DisableUseAltOnNA = true

	type variant struct {
		name string
		cfg  tage.Config
		opts core.Options
	}
	group := []variant{{"default", cfg, modifiedOpts()}}
	for _, win := range bimWindows {
		group = append(group, variant{fmt.Sprintf("window=%d", win), cfg, modified(func(o *core.Options) { o.BimWindow = win })})
	}
	group = append(group, variant{"denomlog=7", cfg, modified(func(o *core.Options) { o.DenomLog = 7 })})
	apart := []variant{
		{"denomlog=6", cfg, modified(func(o *core.Options) { o.DenomLog = 6 })},
		{"adaptive", cfg, adaptive(0)},
		{"adaptive&window=4", cfg, adaptive(4)},
		{"ctr=4", ctr4, modifiedOpts()},
		{"noalt", noalt, modifiedOpts()},
		{"standard", cfg, standardOpts()},
	}
	want := predictorKey(cfg, modifiedOpts())
	for _, v := range group {
		if got := predictorKey(v.cfg, v.opts); got != want {
			t.Errorf("%s: key %q, want the group's %q", v.name, got, want)
		}
	}
	keys := map[string]string{want: "default"}
	for _, v := range apart {
		k := predictorKey(v.cfg, v.opts)
		if v.opts.Mode == core.ModeAdaptive {
			if k != "" {
				t.Errorf("%s: adaptive key %q, want none", v.name, k)
			}
			continue
		}
		if other, ok := keys[k]; ok {
			t.Errorf("%s shares key %q with %s", v.name, k, other)
		}
		keys[k] = v.name
	}

	// One trace's claims of every variant: the group is one lane, every
	// other variant a lane of its own.
	traces := workload.CBP1()[:3]
	all := append(group, apart...)
	var claims []claim
	for _, v := range all {
		claims = append(claims, claim{entry: &traceEntry{}, cfg: v.cfg, opts: v.opts, trace: traces[0]})
	}
	lanes, _ := lanesFor(claims)
	if len(lanes) != 1+len(apart) || len(lanes[0].Shadows) != len(group)-1 {
		t.Errorf("%d lanes, the first with %d shadows; want %d lanes, the first with %d shadows",
			len(lanes), len(lanes[0].Shadows), 1+len(apart), len(group)-1)
	}

	// One execution over every variant: each entry equals its own run.
	var reqs []request
	for _, v := range all {
		reqs = append(reqs, request{cfg: v.cfg, opts: v.opts, traces: traces})
	}
	r := NewWorkers(limit, 2)
	res, err := collect(reqs, r.execute(reqs))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		for j, tr := range traces {
			alone, err := sim.RunConfig(v.cfg, v.opts, tr, limit)
			if err != nil {
				t.Fatal(err)
			}
			if got := res[i].PerTrace[j]; got != alone {
				t.Errorf("%s on %s differs from its own RunConfig:\n got %+v\nwant %+v", v.name, tr.Name(), got, alone)
			}
		}
	}
}
