package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Table1 reproduces the paper's Table 1: the three simulated
// configurations and their suite misp/KI under the standard automaton.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one configuration column of the paper's table.
type Table1Row struct {
	Config    tage.Config
	CBP1MPKI  float64
	CBP2MPKI  float64
	TotalBits int
	NumTables int
	MinHist   int
	MaxHist   int
}

// PaperTable1 holds the paper's reported misp/KI for comparison
// (CBP-1, CBP-2 order).
var PaperTable1 = map[string][2]float64{
	"16Kbits":  {4.21, 4.61},
	"64Kbits":  {2.54, 3.87},
	"256Kbits": {2.18, 3.47},
}

// RunTable1 simulates both suites under the three standard configurations.
func (r *Runner) RunTable1() (Table1, error) { return runAs[Table1](r, "table1") }

// planTable1 requests the (config × suite) grid, config-major.
func planTable1(p *plan) {
	for _, cfg := range tage.StandardConfigs() {
		for _, suite := range workload.SuiteNames() {
			p.suite(cfg, standardOpts(), suite)
		}
	}
}

func reduceTable1(res []sim.SuiteResult) (Table1, error) {
	var t Table1
	ns := len(workload.SuiteNames())
	for ci, cfg := range tage.StandardConfigs() {
		t.Rows = append(t.Rows, Table1Row{
			Config:    cfg,
			TotalBits: cfg.StorageBits(),
			NumTables: cfg.NumTables(),
			MinHist:   cfg.HistLengths[0],
			MaxHist:   cfg.HistLengths[len(cfg.HistLengths)-1],
			CBP1MPKI:  res[ci*ns].Aggregate.MPKI(),
			CBP2MPKI:  res[ci*ns+1].Aggregate.MPKI(),
		})
	}
	return t, nil
}

// Render writes the table in the paper's layout, with the paper's numbers
// alongside for comparison.
//
//repro:deterministic
func (t Table1) Render(w io.Writer) {
	header := []string{"", "Small", "Medium", "Large"}
	rows := [][]string{
		{"Storage budget"}, {"Number of tables"}, {"Min Hist length"},
		{"Max Hist Length"}, {"CBP-1 misp/KI"}, {"CBP-2 misp/KI"},
		{"paper CBP-1"}, {"paper CBP-2"},
	}
	for _, row := range t.Rows {
		paper := PaperTable1[row.Config.Name]
		rows[0] = append(rows[0], fmt.Sprintf("%dKbits", row.TotalBits/1024))
		rows[1] = append(rows[1], fmt.Sprintf("1 + %d", row.NumTables))
		rows[2] = append(rows[2], fmt.Sprintf("%d", row.MinHist))
		rows[3] = append(rows[3], fmt.Sprintf("%d", row.MaxHist))
		rows[4] = append(rows[4], fmt.Sprintf("%.2f", row.CBP1MPKI))
		rows[5] = append(rows[5], fmt.Sprintf("%.2f", row.CBP2MPKI))
		rows[6] = append(rows[6], fmt.Sprintf("%.2f", paper[0]))
		rows[7] = append(rows[7], fmt.Sprintf("%.2f", paper[1]))
	}
	textplot.Table(w, "Table 1: Simulated configurations", header, rows)
}

// LevelCell is one (Pcov, MPcov, MPrate) triple of Tables 2 and 3.
type LevelCell struct {
	Pcov   float64
	MPcov  float64
	MPrate float64
}

//repro:deterministic
func (c LevelCell) String() string {
	return fmt.Sprintf("%.3f-%.3f (%.0f)", c.Pcov, c.MPcov, c.MPrate)
}

// ThreeClassRow is one (size, suite) row of Tables 2/3.
type ThreeClassRow struct {
	Config string
	Suite  string
	High   LevelCell
	Medium LevelCell
	Low    LevelCell
	// FinalProbability is the saturation probability at the end of the
	// last trace (1/128 fixed for Table 2; adapted for Table 3).
	FinalProbability float64
}

// ThreeClassTable reproduces Table 2 (fixed 1/128 probability) or Table 3
// (adaptive probability), per the Adaptive flag.
type ThreeClassTable struct {
	Adaptive bool
	Rows     []ThreeClassRow
}

// PaperTable2 and PaperTable3 carry the paper's values
// {high, medium, low} × {Pcov, MPcov, MPrate} keyed by "size suite".
var PaperTable2 = map[string][3]LevelCell{
	"16Kbits cbp1":  {{0.690, 0.128, 7}, {0.254, 0.455, 72}, {0.056, 0.416, 306}},
	"16Kbits cbp2":  {{0.790, 0.078, 3}, {0.163, 0.478, 98}, {0.046, 0.443, 328}},
	"64Kbits cbp1":  {{0.781, 0.096, 3}, {0.180, 0.434, 59}, {0.038, 0.470, 304}},
	"64Kbits cbp2":  {{0.818, 0.056, 2}, {0.095, 0.466, 82}, {0.042, 0.478, 328}},
	"256Kbits cbp1": {{0.802, 0.060, 2}, {0.162, 0.442, 57}, {0.034, 0.498, 302}},
	"256Kbits cbp2": {{0.826, 0.040, 1}, {0.135, 0.469, 88}, {0.038, 0.491, 325}},
}

// PaperTable3 is the paper's Table 3 (adaptive probability, target
// < 10 MKP on the high-confidence class).
var PaperTable3 = map[string][3]LevelCell{
	"16Kbits cbp1":  {{0.758, 0.167, 8}, {0.187, 0.423, 92}, {0.053, 0.409, 311}},
	"16Kbits cbp2":  {{0.816, 0.112, 5}, {0.139, 0.452, 109}, {0.044, 0.436, 332}},
	"64Kbits cbp1":  {{0.855, 0.156, 5}, {0.109, 0.387, 88}, {0.036, 0.456, 309}},
	"64Kbits cbp2":  {{0.848, 0.100, 3}, {0.112, 0.432, 110}, {0.040, 0.468, 331}},
	"256Kbits cbp1": {{0.882, 0.140, 3}, {0.085, 0.381, 93}, {0.033, 0.479, 306}},
	"256Kbits cbp2": {{0.870, 0.105, 3}, {0.092, 0.419, 115}, {0.037, 0.476, 331}},
}

// RunThreeClass produces Table 2 (adaptive=false) or Table 3
// (adaptive=true).
func (r *Runner) RunThreeClass(adaptive bool) (ThreeClassTable, error) {
	if adaptive {
		return runAs[ThreeClassTable](r, "table3")
	}
	return runAs[ThreeClassTable](r, "table2")
}

// threeClass is the plan and reduction of Table 2 or Table 3: the
// (config × suite) grid, config-major, under one estimator.
type threeClass struct {
	adaptive bool
	opts     core.Options
}

var (
	table2 = threeClass{false, modifiedOpts()}
	table3 = threeClass{true, adaptiveOpts()}
)

func (tc threeClass) plan(p *plan) {
	for _, cfg := range tage.StandardConfigs() {
		for _, suite := range workload.SuiteNames() {
			p.suite(cfg, tc.opts, suite)
		}
	}
}

func (tc threeClass) reduce(res []sim.SuiteResult) (ThreeClassTable, error) {
	t := ThreeClassTable{Adaptive: tc.adaptive}
	suites := workload.SuiteNames()
	for i, sr := range res {
		row := ThreeClassRow{
			Config:           sr.Aggregate.Config,
			Suite:            suites[i%len(suites)],
			FinalProbability: sr.Aggregate.FinalProbability,
		}
		row.High, row.Medium, row.Low = levelCells(sr.Aggregate)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// levelCells returns the high, medium and low level cells of a result.
//
//repro:deterministic
func levelCells(agg sim.Result) (high, medium, low LevelCell) {
	cell := func(l core.Level) LevelCell {
		lc := agg.Level(l)
		return LevelCell{Pcov: metrics.Pcov(lc, agg.Total), MPcov: metrics.MPcov(lc, agg.Total), MPrate: lc.MKP()}
	}
	return cell(core.High), cell(core.Medium), cell(core.Low)
}

// Render writes the table in the paper's layout with the paper's values.
//
//repro:deterministic
func (t ThreeClassTable) Render(w io.Writer) {
	title := "Table 2: high/medium/low confidence coverage (Pcov-MPcov (MPrate MKP)), probability 1/128"
	paper := PaperTable2
	if t.Adaptive {
		title = "Table 3: high/medium/low confidence coverage, adaptive probability (target < 10 MKP)"
		paper = PaperTable3
	}
	header := []string{"config", "high conf", "medium conf", "low conf", "paper high", "paper medium", "paper low"}
	var rows [][]string
	for _, row := range t.Rows {
		key := row.Config + " " + row.Suite
		p := paper[key]
		label := fmt.Sprintf("%s %s", shortSize(row.Config), row.Suite)
		rows = append(rows, []string{
			label,
			row.High.String(), row.Medium.String(), row.Low.String(),
			p[0].String(), p[1].String(), p[2].String(),
		})
	}
	textplot.Table(w, title, header, rows)
}

//repro:deterministic
func shortSize(config string) string {
	switch config {
	case "16Kbits":
		return "16K"
	case "64Kbits":
		return "64K"
	case "256Kbits":
		return "256K"
	default:
		return config
	}
}
