package experiments

import (
	"math"
	"strings"
	"testing"
)

// testLimit keeps the experiment tests fast while leaving enough branches
// for the class statistics to stabilize.
const testLimit = 60_000

// sharedRunner is reused across the package's tests so each
// (configuration, suite, options) simulation runs exactly once per `go
// test` invocation. Runs are deterministic, so sharing cannot couple test
// outcomes.
var sharedRunner = New(testLimit)

func testRunner() *Runner { return sharedRunner }

func TestTable1ShapeMatchesPaper(t *testing.T) {
	r := testRunner()
	tab, err := r.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Structural fields must match the paper exactly.
	wantTables := []int{4, 7, 8}
	wantBits := []int{16384, 65536, 262144}
	for i, row := range tab.Rows {
		if row.NumTables != wantTables[i] || row.TotalBits != wantBits[i] {
			t.Errorf("row %d structure: %+v", i, row)
		}
	}
	// Shape: misp/KI decreases with size on both suites, and the large
	// predictor's gain from 16K is substantial.
	for i := 1; i < 3; i++ {
		if tab.Rows[i].CBP1MPKI >= tab.Rows[i-1].CBP1MPKI {
			t.Errorf("CBP-1 misp/KI not decreasing: %+v", tab.Rows)
		}
		if tab.Rows[i].CBP2MPKI >= tab.Rows[i-1].CBP2MPKI*1.02 {
			t.Errorf("CBP-2 misp/KI should not grow with size: %+v", tab.Rows)
		}
	}
	// At the shortened test trace length warmup mispredictions compress the
	// size gap; the full-length gap (`reprotables -experiment table1`) is
	// much larger.
	if tab.Rows[2].CBP1MPKI > tab.Rows[0].CBP1MPKI*0.92 {
		t.Errorf("CBP-1 256K should clearly beat 16K: %+v", tab.Rows)
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "Table 1") || !strings.Contains(sb.String(), "paper CBP-1") {
		t.Fatal("render incomplete")
	}
}

func TestFigure2Shape(t *testing.T) {
	r := testRunner()
	fig, err := r.RunFigure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 3 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Traces) != 20 {
			t.Fatalf("panel %s has %d traces", p.Config, len(p.Traces))
		}
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 2", "16Kbits", "256Kbits", "SERV-5", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure3UsesCBP2(t *testing.T) {
	r := testRunner()
	fig, err := r.RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fig.Render(&sb)
	if !strings.Contains(sb.String(), "300.twolf") {
		t.Fatal("figure 3 should render CBP-2 traces")
	}
}

func TestFigure4RatesOrdering(t *testing.T) {
	r := testRunner()
	fig, err := r.RunFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Traces) != len(Figure4Traces) {
		t.Fatalf("traces = %d", len(fig.Traces))
	}
	// On every shown trace, the weak tagged class must be far above the
	// average and the high-conf-bim class far below (the paper's central
	// observation).
	for _, tr := range fig.Traces {
		avg := tr.Total.MKP()
		if w := tr.MPrate(3); w < avg { // class Wtag has index 3
			t.Errorf("%s: Wtag %.0f MKP below average %.0f", tr.Trace, w, avg)
		}
	}
	var sb strings.Builder
	fig.Render(&sb)
	if !strings.Contains(sb.String(), "164.gzip") || !strings.Contains(sb.String(), "Average") {
		t.Fatal("render incomplete")
	}
}

func TestFigure5ModifiedAutomatonPanels(t *testing.T) {
	r := testRunner()
	fig, err := r.RunFigure5()
	if err != nil {
		t.Fatal(err)
	}
	// Paper panels: 16K CBP1, 64K CBP2, 256K CBP1.
	if fig.Panels[0].Config != "16Kbits" || fig.Panels[0].Suite != "cbp1" {
		t.Fatalf("panel 0 = %+v", fig.Panels[0])
	}
	if fig.Panels[1].Config != "64Kbits" || fig.Panels[1].Suite != "cbp2" {
		t.Fatalf("panel 1 = %+v", fig.Panels[1])
	}
	if fig.Panels[2].Config != "256Kbits" || fig.Panels[2].Suite != "cbp1" {
		t.Fatalf("panel 2 = %+v", fig.Panels[2])
	}
}

func TestFigure6StagClean(t *testing.T) {
	r := testRunner()
	fig, err := r.RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	// With the modified automaton, Stag (class 6) must be far cleaner than
	// NStag (class 5) on every shown trace.
	for _, tr := range fig.Traces {
		stag, nstag := tr.MPrate(6), tr.MPrate(5)
		if stag > nstag {
			t.Errorf("%s: Stag %.0f MKP should be below NStag %.0f", tr.Trace, stag, nstag)
		}
	}
}

func TestTable2ThreeClassProperties(t *testing.T) {
	r := testRunner()
	tab, err := r.RunThreeClass(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Coverage partitions.
		if s := row.High.Pcov + row.Medium.Pcov + row.Low.Pcov; math.Abs(s-1) > 1e-6 {
			t.Errorf("%s %s: Pcov sums to %v", row.Config, row.Suite, s)
		}
		// The paper's headline: rates separated by roughly an order of
		// magnitude between adjacent levels.
		if !(row.Low.MPrate > row.Medium.MPrate && row.Medium.MPrate > row.High.MPrate) {
			t.Errorf("%s %s: rates not ordered (%v / %v / %v)",
				row.Config, row.Suite, row.Low.MPrate, row.Medium.MPrate, row.High.MPrate)
		}
		if row.High.Pcov < 0.5 {
			t.Errorf("%s %s: high coverage %.3f too small", row.Config, row.Suite, row.High.Pcov)
		}
		if row.High.MPrate > 15 {
			t.Errorf("%s %s: high MPrate %.1f too dirty", row.Config, row.Suite, row.High.MPrate)
		}
		if row.Low.MPrate < 150 {
			t.Errorf("%s %s: low MPrate %.1f suspiciously clean", row.Config, row.Suite, row.Low.MPrate)
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Fatal("render incomplete")
	}
}

func TestTable3AdaptiveHoldsTarget(t *testing.T) {
	r := testRunner()
	tab, err := r.RunThreeClass(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		// The controller's promise: high-confidence MPrate below ~the
		// 10 MKP target (allow slack for windowing noise at test sizes).
		if row.High.MPrate > 14 {
			t.Errorf("%s %s: adaptive high MPrate %.1f exceeds target region",
				row.Config, row.Suite, row.High.MPrate)
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "Table 3") {
		t.Fatal("render incomplete")
	}
}

func TestAdaptiveGrowsCoverageOverFixed(t *testing.T) {
	// Table 3 vs Table 2 in the paper: adaptation buys high-confidence
	// coverage. Compare aggregate high coverage.
	r := testRunner()
	fixed, err := r.RunThreeClass(false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := r.RunThreeClass(true)
	if err != nil {
		t.Fatal(err)
	}
	var covF, covA float64
	for i := range fixed.Rows {
		covF += fixed.Rows[i].High.Pcov
		covA += adaptive.Rows[i].High.Pcov
	}
	if covA <= covF {
		t.Errorf("adaptive high coverage %.3f should exceed fixed %.3f", covA/6, covF/6)
	}
}

func TestSweepMonotonicity(t *testing.T) {
	r := testRunner()
	s, err := r.RunSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(SweepDenomLogs) {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// Lower probability (higher DenomLog) must shrink high coverage and
	// clean its rate — §6.2's trade-off (allow small non-monotonic noise).
	first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
	if !(last.High.Pcov < first.High.Pcov) {
		t.Errorf("high coverage should shrink: %v -> %v", first.High.Pcov, last.High.Pcov)
	}
	if !(last.High.MPrate < first.High.MPrate) {
		t.Errorf("high MPrate should clean: %v -> %v", first.High.MPrate, last.High.MPrate)
	}
	// The accuracy cost of the automaton must stay small across the sweep
	// (§6: < 0.02 misp/KI in the paper; allow slack at test trace lengths).
	var minM, maxM = math.Inf(1), math.Inf(-1)
	for _, row := range s.Rows {
		minM = math.Min(minM, row.MPKI)
		maxM = math.Max(maxM, row.MPKI)
	}
	if maxM-minM > 0.25 {
		t.Errorf("sweep accuracy spread %.3f misp/KI too large", maxM-minM)
	}
	var sb strings.Builder
	s.Render(&sb)
	if !strings.Contains(sb.String(), "1/128") {
		t.Fatal("render incomplete")
	}
}

func TestBimWindowAblation(t *testing.T) {
	r := testRunner()
	a, err := r.RunBimWindowAblation()
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Window != 0 || a.Rows[0].MediumBim.Pcov != 0 {
		t.Errorf("window 0 should disable the class: %+v", a.Rows[0])
	}
	// Larger windows cover more predictions.
	for i := 2; i < len(a.Rows); i++ {
		if a.Rows[i].MediumBim.Pcov < a.Rows[i-1].MediumBim.Pcov {
			t.Errorf("medium-conf-bim coverage should grow with window: %+v", a.Rows)
		}
	}
	var sb strings.Builder
	a.Render(&sb)
	if !strings.Contains(sb.String(), "window") {
		t.Fatal("render incomplete")
	}
}

func TestUseAltAblation(t *testing.T) {
	r := testRunner()
	a, err := r.RunUseAltAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// The heuristic must not hurt accuracy meaningfully (paper: slight
	// improvement).
	for _, row := range a.Rows {
		if row.WithMPKI > row.WithoutMPKI*1.05 {
			t.Errorf("%s: USE_ALT_ON_NA hurts accuracy: %.3f vs %.3f",
				row.Config, row.WithMPKI, row.WithoutMPKI)
		}
	}
	var sb strings.Builder
	a.Render(&sb)
	if !strings.Contains(sb.String(), "USE_ALT_ON_NA") {
		t.Fatal("render incomplete")
	}
}

func TestCtrWidthAblation(t *testing.T) {
	r := testRunner()
	a, err := r.RunCtrWidthAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// §6 remark: 4-bit counters do not dramatically clean Stag.
	for i := 0; i < len(a.Rows); i += 2 {
		threeBit, fourBit := a.Rows[i], a.Rows[i+1]
		if fourBit.StagMPrate < threeBit.StagMPrate/3 {
			t.Errorf("%s: widening cleaned Stag too much (%.1f -> %.1f), unlike the paper's finding",
				threeBit.Config, threeBit.StagMPrate, fourBit.StagMPrate)
		}
	}
	var sb strings.Builder
	a.Render(&sb)
	if !strings.Contains(sb.String(), "ctr bits") {
		t.Fatal("render incomplete")
	}
}

func TestEstimatorComparison(t *testing.T) {
	r := testRunner()
	c, err := r.RunEstimatorComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 3 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	free := c.Rows[0]
	if free.StorageBits != 0 {
		t.Errorf("storage-free estimator reports %d bits", free.StorageBits)
	}
	if free.Confusion.PVP() < 0.97 {
		t.Errorf("storage-free PVP %.3f (paper: high class < 1%% misprediction)", free.Confusion.PVP())
	}
	for _, row := range c.Rows[1:] {
		if row.StorageBits == 0 {
			t.Errorf("%s should cost storage", row.Name)
		}
	}
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "JRS") {
		t.Fatal("render incomplete")
	}
}

func TestRegistryRunsAllNames(t *testing.T) {
	r := testRunner()
	for _, name := range Names() {
		if name == "all" {
			continue
		}
		out, err := r.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) != 1 {
			t.Fatalf("%s returned %d renderers", name, len(out))
		}
		var sb strings.Builder
		out[0].Render(&sb)
		if sb.Len() == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := testRunner().Run("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := testRunner()
	if _, err := r.RunTable1(); err != nil {
		t.Fatal(err)
	}
	n := len(r.cache)
	if n == 0 {
		t.Fatal("cache empty after Table 1")
	}
	// Figure 2 uses the same standard CBP-1 runs: only CBP-2 keys missing.
	if _, err := r.RunFigure2(); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != n {
		t.Fatalf("figure 2 should be fully cached after table 1: %d -> %d", n, len(r.cache))
	}
}
