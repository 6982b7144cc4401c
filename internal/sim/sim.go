// Package sim provides the trace-driven simulation drivers that produce
// every number in the paper: per-class statistics for a TAGE predictor
// with the storage-free confidence estimator (Result.Step is the one
// per-branch step), whole-suite aggregation, and the binary confusion
// derived from the class tally.
//
// Simulation is functional (no timing): the predictor sees each branch's
// address, predicts, and is updated with the resolved direction, exactly
// like the championship evaluation framework the paper uses.
package sim

import (
	"errors"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Result holds the measurements of one trace run.
type Result struct {
	// Trace is the trace name.
	Trace string
	// Config is the predictor configuration name.
	Config string
	// Mode is the automaton mode.
	Mode core.AutomatonMode

	// Branches is the number of simulated branch records.
	Branches uint64
	// Instructions is the number of dynamic instructions represented.
	Instructions uint64
	// Total tallies all predictions.
	Total metrics.Counts
	// Class tallies per prediction class.
	Class [core.NumClasses]metrics.Counts

	// FinalProbability is the saturation probability at end of run
	// (interesting in adaptive mode).
	FinalProbability float64
}

// MPKI returns the run's mispredictions per kilo-instruction.
//
//repro:deterministic
func (r Result) MPKI() float64 { return metrics.MPKI(r.Total.Misps, r.Instructions) }

// Level aggregates the class counts into the three confidence levels.
//
//repro:deterministic
func (r Result) Level(l core.Level) metrics.Counts {
	var c metrics.Counts
	for _, cl := range core.Classes() {
		if cl.Level() == l {
			c.Add(r.Class[cl])
		}
	}
	return c
}

// Pcov returns the prediction coverage of a class.
//
//repro:deterministic
func (r Result) Pcov(c core.Class) float64 { return metrics.Pcov(r.Class[c], r.Total) }

// MPcov returns the misprediction coverage of a class.
//
//repro:deterministic
func (r Result) MPcov(c core.Class) float64 { return metrics.MPcov(r.Class[c], r.Total) }

// MPrate returns the misprediction rate of a class in MKP.
//
//repro:deterministic
func (r Result) MPrate(c core.Class) float64 { return r.Class[c].MKP() }

// ClassMPKI returns the class's contribution to whole-trace misp/KI (the
// right-hand panels of Figures 2, 3 and 5).
//
//repro:deterministic
func (r Result) ClassMPKI(c core.Class) float64 {
	return metrics.MPKI(r.Class[c].Misps, r.Instructions)
}

// Add merges another result into r (suite aggregation). Trace/Config/Mode
// are kept from r unless empty.
//
//repro:deterministic
func (r *Result) Add(other Result) {
	if r.Trace == "" {
		r.Trace = other.Trace
	}
	if r.Config == "" {
		r.Config = other.Config
	}
	r.Branches += other.Branches
	r.Instructions += other.Instructions
	r.Total.Add(other.Total)
	for i := range r.Class {
		r.Class[i].Add(other.Class[i])
	}
	r.FinalProbability = other.FinalProbability
}

// Binary returns the run's Grunwald-style binary confusion: the High
// level is high confidence, Medium and Low are not. It is exact because
// every backend grades with class.Level() == level (the predictor.Backend
// contract), so the seven-class tally determines the binary split.
//
//repro:deterministic
func (r Result) Binary() metrics.Binary {
	hi := r.Level(core.High)
	return metrics.Binary{
		HighCorrect: hi.Preds - hi.Misps,
		HighWrong:   hi.Misps,
		LowCorrect:  (r.Total.Preds - hi.Preds) - (r.Total.Misps - hi.Misps),
		LowWrong:    r.Total.Misps - hi.Misps,
	}
}

// Step runs one branch through a backend: predict, tally into r, then
// train with the resolved direction. It is the single definition of the
// per-branch sequence: Run loops over it offline and the serve session
// calls it per served branch, so online tallies equal offline ones by
// construction.
//
//repro:hotpath
func (r *Result) Step(b predictor.Backend, br trace.Branch) (pred bool, class core.Class, level core.Level) {
	pred, class, level = b.Predict(br.PC)
	miss := pred != br.Taken
	r.Total.Record(miss)
	r.Class[class].Record(miss) //repro:allow-bce class comes from the backend's classifier, always < NumClasses; clamping would silently misattribute tallies
	r.Branches++
	r.Instructions += uint64(br.Instr)
	b.Update(br.PC, br.Taken)
	return pred, class, level
}

// batchSize is how many branches a run reads from the trace before it
// steps them, the batch the serve client sends: decoding a batch and then
// stepping it keeps the trace generator's and the predictor's working
// sets apart instead of interleaving them per branch.
const batchSize = 1024

// Run drives a backend over one trace (optionally truncated to limit
// records; 0 = full trace) and collects per-class statistics. When the
// reader fails, the branches read before the failure are stepped and the
// error is returned with their tallies.
func Run(b predictor.Backend, tr trace.Trace, limit uint64) (Result, error) {
	res, err := RunLanes([]Lane{{Backend: b}}, tr, limit)
	return res[0], err
}

// Lane is one predictor of a RunLanes pass: a backend, plus the
// classifiers that grade that backend's own TAGE predictions a second
// way. The storage-free estimator never feeds back into the predictor
// outside the adaptive mode, so estimators that differ only in their
// classifier run one identical predictor; a shadow classifier stands for
// such an estimator without simulating the predictor again.
//
// A backend that exposes its TAGE predictor (core.Estimator's
// Predictor) may share its history front-end with the pass's other
// lanes of the same geometry (tage.Front); each lane's backend is then
// its own, and must not appear in another lane.
type Lane struct {
	Backend predictor.Backend
	// Shadows grade each prediction from the Observation the Backend's
	// step left valid and resolve it with the outcome. Shadow k's Result
	// is the Backend's with Class tallied by Shadows[k]. Non-empty only
	// for a backend with a TAGE Observation (core.Estimator).
	Shadows []*core.Classifier
}

// RunLanes drives every lane over one pass of tr: it opens the trace once
// and steps each lane's backend over every batch in turn. The results
// come in lane order, each backend's followed by its shadows'. Every
// backend's Result, and the error, equal Run(backend, tr, limit) alone,
// and so does the state each backend ends the pass in.
//
// TAGE history depends only on the trace, so lanes whose TAGE predictors
// have one geometry and the same history share one tage.Front: it
// advances once per branch for all of them, and each lane steps the
// batch through Result.Step as usual, predicting from the rows the
// front recorded (adaptive lanes too: their controller never touches
// the history). At the end of the pass each of them takes the front's
// history, the one its own front-end would have reached.
func RunLanes(lanes []Lane, tr trace.Trace, limit uint64) ([]Result, error) {
	var out []Result
	for _, l := range lanes {
		res := Result{Trace: tr.Name(), Config: l.Backend.Label(), Mode: predictor.ModeOf(l.Backend)}
		for range len(l.Shadows) + 1 {
			out = append(out, res)
		}
	}
	fronts, follows := shareFronts(lanes)
	r := trace.Limit(tr, limit).Open()
	var batch [batchSize]trace.Branch
	var err error
	for err == nil {
		n := 0
		for n < len(batch) {
			if batch[n], err = r.Next(); err != nil {
				break
			}
			n++
		}
		for _, f := range fronts {
			f.Reset()
			for _, br := range batch[:n] {
				f.Push(br.PC, br.Taken)
			}
		}
		i := 0
		for k, l := range lanes {
			if fl := follows[k]; fl.front != nil {
				fl.pred.Follow(fl.front)
			}
			l.step(out[i:i+1+len(l.Shadows)], batch[:n])
			i += 1 + len(l.Shadows)
		}
	}
	i := 0
	for k, l := range lanes {
		if fl := follows[k]; fl.front != nil {
			fl.pred.Unfollow(fl.front)
		}
		if errors.Is(err, io.EOF) {
			out[i].FinalProbability = predictor.SaturationProbabilityOf(l.Backend)
		}
		for k := range l.Shadows {
			class := out[i+1+k].Class
			out[i+1+k] = out[i]
			out[i+1+k].Class = class
		}
		i += 1 + len(l.Shadows)
	}
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return out, err
}

// follow is a lane's TAGE predictor, nil for other backends, and the
// front it follows, nil for a lane that advances its own history.
type follow struct {
	pred  *tage.Predictor
	front *tage.Front
}

// shareFronts groups the lanes whose backends expose a TAGE predictor
// by history (tage.Predictor.SameHistory) and gives each group of two or
// more one front, started from its first member's history. It returns
// the fronts and each lane's follow.
func shareFronts(lanes []Lane) ([]*tage.Front, []follow) {
	follows := make([]follow, len(lanes))
	var fronts []*tage.Front
	var leads []int // each group's first lane
	for k, l := range lanes {
		b, ok := l.Backend.(interface{ Predictor() *tage.Predictor })
		if !ok {
			continue
		}
		p := b.Predictor()
		follows[k].pred = p
		g := slices.IndexFunc(leads, func(j int) bool { return follows[j].pred.SameHistory(p) })
		if g < 0 {
			leads = append(leads, k)
			fronts = append(fronts, nil)
			continue
		}
		if fronts[g] == nil {
			fronts[g] = tage.NewFront(p, batchSize)
			follows[leads[g]].front = fronts[g]
		}
		follows[k].front = fronts[g]
	}
	return slices.DeleteFunc(fronts, func(f *tage.Front) bool { return f == nil }), follows
}

// step runs one batch through the lane: res[0] is the backend's Result,
// res[1+k] collects shadow k's class tally.
func (l Lane) step(res []Result, batch []trace.Branch) {
	own := &res[0]
	if len(l.Shadows) == 0 {
		for _, br := range batch {
			own.Step(l.Backend, br)
		}
		return
	}
	obs := l.Backend.(interface{ Observation() *tage.Observation })
	for _, br := range batch {
		own.Step(l.Backend, br)
		o := obs.Observation()
		miss := o.Pred != br.Taken
		for k, c := range l.Shadows {
			res[1+k].Class[c.Classify(o)].Record(miss)
			c.Resolve(o, br.Taken)
		}
	}
}

// RunConfig builds a fresh estimator for (cfg, opts) and runs it over tr.
func RunConfig(cfg tage.Config, opts core.Options, tr trace.Trace, limit uint64) (Result, error) {
	return Run(core.NewEstimator(cfg, opts), tr, limit)
}

// RunSpec builds a fresh backend from the spec and runs it over tr. For
// TAGE specs this is bit-identical to RunConfig over the (Config,
// Options) pair the spec encodes (predictor.TAGESpec).
func RunSpec(sp predictor.Spec, tr trace.Trace, limit uint64) (Result, error) {
	b, err := predictor.Build(sp)
	if err != nil {
		return Result{}, err
	}
	return Run(b, tr, limit)
}

// SuiteResult bundles per-trace results with their aggregate. The
// aggregate accumulates raw counts over all traces (the paper's suite
// "averages" for Tables 1-3).
type SuiteResult struct {
	PerTrace  []Result
	Aggregate Result
}

// AssembleSuite builds a SuiteResult from per-trace results, accumulating
// the aggregate in slice order — the single definition of suite
// aggregation shared by the serial path, the worker pool, and callers
// that assemble suites from individually cached trace results. The
// assembly is deterministic, so a suite built from memoized per-trace
// results is bit-identical to a freshly simulated one.
//
//repro:deterministic
func AssembleSuite(configName string, mode core.AutomatonMode, per []Result) SuiteResult {
	var out SuiteResult
	out.PerTrace = per
	out.Aggregate.Config = configName
	for _, res := range per {
		out.Aggregate.Add(res)
	}
	out.Aggregate.Trace = "aggregate"
	out.Aggregate.Mode = mode
	return out
}
