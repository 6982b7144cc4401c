// Package fetchgate models confidence-driven pipeline gating (Manne,
// Klauser & Grunwald, PACT 1999; Aragón et al., HPCA 2003), the
// energy-saving application that motivates the paper's confidence
// estimator (§2.1).
//
// A simple front-end fetches instructions at a fixed width; conditional
// branches resolve a fixed number of cycles after fetch. When a
// mispredicted branch is in flight, everything fetched behind it is
// wrong-path work that will be squashed — wasted fetch energy. The gating
// policy assigns each in-flight branch a "boost" weight by confidence
// level (low-confidence branches are likely mispredictions) and stalls
// fetch while the total boost meets a threshold.
//
// A good confidence estimator lets the gate kill wrong-path fetch with
// little slowdown; the paper's three-level estimator supplies exactly the
// graded weights this policy needs.
package fetchgate

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Config parameterizes the front-end model and the gating policy.
type Config struct {
	// FetchWidth is the number of instructions fetched per unstalled cycle.
	FetchWidth int
	// ResolveDelay is the number of cycles between fetching a branch and
	// resolving it (pipeline depth from fetch to execute).
	ResolveDelay int
	// LowBoost, MediumBoost and HighBoost weigh one in-flight branch of
	// each confidence level.
	LowBoost, MediumBoost, HighBoost int
	// GateThreshold stalls fetch while the summed boost of in-flight
	// branches is at or above it. A non-positive threshold disables gating
	// (the baseline front end).
	GateThreshold int
	// ThrottleWidth, when positive, turns the gate into a throttle
	// (Aragón et al., HPCA 2003): instead of stalling completely, fetch
	// continues at this reduced width while the boost is at or above the
	// threshold. Fetch-rate reduction wastes less performance than a full
	// stall when the confidence estimate is wrong.
	ThrottleWidth int
}

// DefaultConfig is a representative deep front end with a balanced gating
// point: two in-flight low-confidence branches gate, as do one low plus
// two mediums. Lower thresholds trade slowdown for larger wrong-path
// savings (see AggressiveConfig); the confidence classes are what make the
// whole trade-off curve accessible.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		ResolveDelay:  12,
		LowBoost:      2,
		MediumBoost:   1,
		HighBoost:     0,
		GateThreshold: 4,
	}
}

// AggressiveConfig gates on any single in-flight low-confidence branch:
// the maximum-savings end of the gating trade-off (roughly half the
// wrong-path fetch eliminated at a ~25% fetch slowdown on hard traces).
func AggressiveConfig() Config {
	return Config{
		FetchWidth:    4,
		ResolveDelay:  12,
		LowBoost:      1,
		MediumBoost:   0,
		HighBoost:     0,
		GateThreshold: 1,
	}
}

// Ungated returns cfg with gating disabled (the baseline).
func (c Config) Ungated() Config {
	c.GateThreshold = 0
	return c
}

func (c Config) validate() error {
	if c.FetchWidth < 1 {
		return errors.New("fetchgate: FetchWidth must be >= 1")
	}
	if c.ResolveDelay < 1 {
		return errors.New("fetchgate: ResolveDelay must be >= 1")
	}
	if c.LowBoost < 0 || c.MediumBoost < 0 || c.HighBoost < 0 {
		return errors.New("fetchgate: negative boost")
	}
	if c.ThrottleWidth < 0 || c.ThrottleWidth >= c.FetchWidth {
		if c.ThrottleWidth != 0 {
			return errors.New("fetchgate: ThrottleWidth must be in (0, FetchWidth)")
		}
	}
	return nil
}

// Stats reports one front-end run.
type Stats struct {
	// Cycles is the total cycle count to consume the trace.
	Cycles uint64
	// UsefulFetched counts correct-path instructions fetched.
	UsefulFetched uint64
	// WrongPathFetched counts wrong-path instructions fetched (squashed
	// work; the energy-waste proxy).
	WrongPathFetched uint64
	// GatedCycles counts cycles fetch was stalled by the gate.
	GatedCycles uint64
	// Branches and Mispredictions count resolved conditional branches.
	Branches       uint64
	Mispredictions uint64
}

// WrongPathFraction is the fraction of all fetched instructions that were
// wrong-path.
func (s Stats) WrongPathFraction() float64 {
	total := s.UsefulFetched + s.WrongPathFetched
	if total == 0 {
		return 0
	}
	return float64(s.WrongPathFetched) / float64(total)
}

// IPC is useful instructions per cycle (the performance proxy).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.UsefulFetched) / float64(s.Cycles)
}

func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d useful=%d wrongPath=%d (%.1f%%) gated=%d IPC=%.2f",
		s.Cycles, s.UsefulFetched, s.WrongPathFetched, 100*s.WrongPathFraction(),
		s.GatedCycles, s.IPC())
}

type inflight struct {
	resolveAt    uint64
	level        core.Level
	mispredicted bool
}

// Run drives the front-end model over a trace using the given estimator
// for prediction and confidence. A fresh estimator should be used per run.
func Run(est *core.Estimator, tr trace.Trace, cfg Config, limit uint64) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	var st Stats
	r := trace.Limit(tr, limit).Open()

	var pending []inflight // FIFO of in-flight branches
	wrongPath := false     // a mispredicted branch is in flight
	recordLeft := 0        // instructions left in the current record
	var cur trace.Branch
	haveRecord := false
	done := false

	for !done || len(pending) > 0 {
		st.Cycles++
		cycle := st.Cycles

		// Resolve branches due this cycle.
		for len(pending) > 0 && pending[0].resolveAt <= cycle {
			b := pending[0]
			pending = pending[1:]
			st.Branches++
			if b.mispredicted {
				st.Mispredictions++
				// The squash redirects fetch to the correct path.
				wrongPath = false
			}
		}

		// Gating/throttling decision on the in-flight confidence boost.
		width := cfg.FetchWidth
		if cfg.GateThreshold > 0 {
			boost := 0
			for _, b := range pending {
				switch b.level {
				case core.Low:
					boost += cfg.LowBoost
				case core.Medium:
					boost += cfg.MediumBoost
				default:
					boost += cfg.HighBoost
				}
			}
			if boost >= cfg.GateThreshold {
				st.GatedCycles++
				if cfg.ThrottleWidth <= 0 {
					continue
				}
				width = cfg.ThrottleWidth
			}
		}

		// Fetch up to width instructions.
		budget := width
		for budget > 0 {
			if wrongPath {
				// Fetching down the wrong path: squashed work.
				st.WrongPathFetched += uint64(budget)
				break
			}
			if !haveRecord {
				if done {
					break
				}
				b, err := r.Next()
				if errors.Is(err, io.EOF) {
					done = true
					break
				}
				if err != nil {
					return st, err
				}
				cur = b
				recordLeft = int(b.Instr)
				haveRecord = true
			}
			n := recordLeft
			if n > budget {
				n = budget
			}
			st.UsefulFetched += uint64(n)
			recordLeft -= n
			budget -= n
			if recordLeft == 0 {
				// The record's branch is fetched: predict it.
				haveRecord = false
				pred, _, level := est.Predict(cur.PC)
				miss := pred != cur.Taken
				est.Update(cur.PC, cur.Taken)
				pending = append(pending, inflight{
					resolveAt:    cycle + uint64(cfg.ResolveDelay),
					level:        level,
					mispredicted: miss,
				})
				if miss {
					wrongPath = true
					// Redirect-limited front ends stop the cycle's fetch at
					// a (mis)predicted-taken redirect; keep the model simple
					// and end the cycle at every branch record boundary
					// when entering the wrong path.
					break
				}
			}
		}
	}
	return st, nil
}

// Compare runs the gated and ungated front ends with fresh estimators and
// returns both. It is the harness behind the fetch-gating example and the
// application bench.
func Compare(cfg tage.Config, opts core.Options, gate Config, tr trace.Trace, limit uint64) (gated, baseline Stats, err error) {
	gated, err = Run(core.NewEstimator(cfg, opts), tr, gate, limit)
	if err != nil {
		return
	}
	baseline, err = Run(core.NewEstimator(cfg, opts), tr, gate.Ungated(), limit)
	return
}

// Savings summarizes a gated-vs-baseline pair: the wrong-path fetch
// reduction and the slowdown paid for it.
type Savings struct {
	WrongPathReduction float64 // 1 - gated/baseline wrong-path instructions
	Slowdown           float64 // gated cycles / baseline cycles - 1
}

// Evaluate computes Savings from a Compare result pair.
func Evaluate(gated, baseline Stats) Savings {
	var s Savings
	if baseline.WrongPathFetched > 0 {
		s.WrongPathReduction = 1 - float64(gated.WrongPathFetched)/float64(baseline.WrongPathFetched)
	}
	if baseline.Cycles > 0 {
		s.Slowdown = float64(gated.Cycles)/float64(baseline.Cycles) - 1
	}
	return s
}
