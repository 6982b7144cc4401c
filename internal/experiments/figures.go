package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
)

// classSegments lists the seven classes in the paper figures' legend order.
var classSegments = []core.Class{
	core.HighConfBim, core.LowConfBim, core.MediumConfBim,
	core.Stag, core.NStag, core.NWtag, core.Wtag,
}

//repro:deterministic
func classSegmentNames() []string {
	names := make([]string, len(classSegments))
	for i, c := range classSegments {
		names[i] = c.String()
	}
	return names
}

// DistPanel is one predictor-size panel of Figures 2, 3 and 5: the
// per-trace class distribution of predictions (left of the paper's
// figures) and of mispredictions as misp/KI (right).
type DistPanel struct {
	Config string
	Suite  string
	Traces []sim.Result
}

// DistributionFigure reproduces Figure 2 (CBP-1), Figure 3 (CBP-2) or
// Figure 5 (modified automaton panels).
type DistributionFigure struct {
	Title  string
	Panels []DistPanel
}

// RunFigure2 builds the CBP-1 distribution figure (standard automaton,
// three sizes).
func (r *Runner) RunFigure2() (DistributionFigure, error) {
	return runAs[DistributionFigure](r, "fig2")
}

// RunFigure3 builds the CBP-2 distribution figure (standard automaton,
// three sizes).
func (r *Runner) RunFigure3() (DistributionFigure, error) {
	return runAs[DistributionFigure](r, "fig3")
}

// RunFigure5 builds the modified-automaton distribution figure with the
// paper's three panels (16K CBP-1, 64K CBP-2, 256K CBP-1).
func (r *Runner) RunFigure5() (DistributionFigure, error) {
	return runAs[DistributionFigure](r, "fig5")
}

// distribution is the plan and reduction of a distribution figure: one
// panel per (config, suite) under one estimator.
type distribution struct {
	title  string
	opts   core.Options
	panels []panelSpec
}

type panelSpec struct {
	cfg   tage.Config
	suite string
}

var (
	figure2 = distribution{"Figure 2: class distributions, CBP-1 traces", standardOpts(), []panelSpec{
		{tage.Small16K(), "cbp1"},
		{tage.Medium64K(), "cbp1"},
		{tage.Large256K(), "cbp1"},
	}}
	figure3 = distribution{"Figure 3: class distributions, CBP-2 traces", standardOpts(), []panelSpec{
		{tage.Small16K(), "cbp2"},
		{tage.Medium64K(), "cbp2"},
		{tage.Large256K(), "cbp2"},
	}}
	figure5 = distribution{"Figure 5: class distributions, modified 3-bit counter automaton", modifiedOpts(), []panelSpec{
		{tage.Small16K(), "cbp1"},
		{tage.Medium64K(), "cbp2"},
		{tage.Large256K(), "cbp1"},
	}}
)

func (d distribution) plan(p *plan) {
	for _, s := range d.panels {
		p.suite(s.cfg, d.opts, s.suite)
	}
}

func (d distribution) reduce(res []sim.SuiteResult) (DistributionFigure, error) {
	f := DistributionFigure{Title: d.title}
	for i, s := range d.panels {
		f.Panels = append(f.Panels, DistPanel{Config: s.cfg.Name, Suite: s.suite, Traces: res[i].PerTrace})
	}
	return f, nil
}

// Render draws each panel as a pair of stacked-bar charts mirroring the
// paper's left (prediction coverage) and right (misp/KI contribution)
// columns.
//
//repro:deterministic
func (f DistributionFigure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n\n", f.Title)
	segNames := classSegmentNames()
	for _, p := range f.Panels {
		var cov, mpki []textplot.StackRow
		for _, tr := range p.Traces {
			covParts := make([]float64, len(classSegments))
			mpkiParts := make([]float64, len(classSegments))
			for i, c := range classSegments {
				covParts[i] = tr.Pcov(c)
				mpkiParts[i] = tr.ClassMPKI(c)
			}
			cov = append(cov, textplot.StackRow{Label: tr.Trace, Parts: covParts})
			mpki = append(mpki, textplot.StackRow{Label: tr.Trace, Parts: mpkiParts})
		}
		textplot.StackedBars(w, fmt.Sprintf("%s predictor, %s: distribution of predictions", p.Config, p.Suite),
			segNames, cov, 60, true)
		fmt.Fprintln(w)
		textplot.StackedBars(w, fmt.Sprintf("%s predictor, %s: mispredictions (misp/KI)", p.Config, p.Suite),
			segNames, mpki, 60, false)
		fmt.Fprintln(w)
	}
}

// Figure4Traces are the CBP-2 traces shown in Figures 4 and 6.
var Figure4Traces = []string{
	"164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty", "197.parser",
}

// RatesFigure reproduces Figure 4 (standard automaton) or Figure 6
// (modified automaton): per-class misprediction rates in MKP on selected
// CBP-2 traces under the 64 Kbit predictor, plus the per-trace average.
type RatesFigure struct {
	Title    string
	Modified bool
	Traces   []sim.Result
}

// RunFigure4 computes the standard-automaton rates figure.
func (r *Runner) RunFigure4() (RatesFigure, error) { return runAs[RatesFigure](r, "fig4") }

// RunFigure6 computes the modified-automaton rates figure.
func (r *Runner) RunFigure6() (RatesFigure, error) { return runAs[RatesFigure](r, "fig6") }

// rates is the plan and reduction of a rates figure: the 64 Kbit
// predictor over Figure4Traces under one estimator.
type rates struct {
	title    string
	modified bool
	opts     core.Options
}

var (
	figure4 = rates{"Figure 4: misprediction rates per prediction class (MKP), 64Kbits, CBP-2 traces", false, standardOpts()}
	figure6 = rates{"Figure 6: misprediction rates per prediction class (MKP), 64Kbits, modified automaton", true, modifiedOpts()}
)

func (f rates) plan(p *plan) { p.traces(tage.Medium64K(), f.opts, Figure4Traces) }

func (f rates) reduce(res []sim.SuiteResult) (RatesFigure, error) {
	return RatesFigure{Title: f.title, Modified: f.modified, Traces: res[0].PerTrace}, nil
}

// Render draws one group of class-rate bars per trace.
//
//repro:deterministic
func (f RatesFigure) Render(w io.Writer) {
	var groups []textplot.Group
	for _, tr := range f.Traces {
		g := textplot.Group{Label: tr.Trace}
		for _, c := range classSegments {
			g.Bars = append(g.Bars, textplot.Bar{Label: c.String(), Value: tr.MPrate(c)})
		}
		g.Bars = append(g.Bars, textplot.Bar{Label: "Average", Value: tr.Total.MKP()})
		groups = append(groups, g)
	}
	textplot.GroupedBars(w, f.Title, groups, 50)
}
