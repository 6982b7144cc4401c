// Package workload synthesizes deterministic branch traces that stand in
// for the CBP-1 and CBP-2 championship trace sets used by the paper (the
// originals are not redistributable; `tagesim -list` names every trace).
//
// A workload is a Program: a set of static branch Sites, each with a
// Behavior (loop, biased-random, periodic pattern, history-correlated,
// phased, ...), scheduled through weighted blocks with loop-style
// repetition so the emitted stream has the temporal locality of real code.
// Programs implement trace.Trace and replay identically on every pass.
//
// The behavior archetypes are chosen to exercise exactly the mechanisms
// that produce the paper's confidence classes: stable loops and patterns
// populate the saturated tagged class (Stag) and the high-confidence
// bimodal class; biased-random branches populate the weak/nearly-weak
// tagged classes; long-lag correlated branches separate the 16/64/256 Kbit
// configurations by history reach and capacity; and large static footprints
// plus phase changes create the bimodal-provider misprediction bursts
// behind the medium-conf-bim class.
package workload

import (
	"repro/internal/history"
	"repro/internal/xrand"
)

// Env is the execution environment a behavior instance sees: its private
// random stream and the global outcome history of the whole program (for
// correlated branches).
type Env struct {
	// Rand is the site's private deterministic stream.
	Rand *xrand.Rand
	hist *history.Buffer
}

// HistBit returns the outcome of the branch executed i+1 branches before
// the current one (i = 0 is the immediately preceding branch).
func (e *Env) HistBit(i int) bool { return e.hist.Bit(i) != 0 }

// A Behavior describes the outcome law of one static branch. New returns a
// fresh stateful Instance for one trace pass; instances from separate
// passes never share state, which keeps traces replayable.
type Behavior interface {
	New(r *xrand.Rand) Instance
}

// An Instance produces the successive outcomes of one static branch within
// one trace pass.
type Instance interface {
	Next(env *Env) bool
}

// Resettable is an optional Instance extension: Reset(r) must leave the
// instance in exactly the state Behavior.New(r) would have produced, given
// an identically-seeded r. Pooled trace readers use it to replay a trace
// without reallocating per-site state; instances that do not implement it
// are rebuilt through Behavior.New on every pass.
type Resettable interface {
	Reset(r *xrand.Rand)
}

// Const is a branch that always resolves in the same direction
// (loop-closing unconditional-like branches, guards that never fire).
type Const struct{ Taken bool }

// New implements Behavior.
func (c Const) New(*xrand.Rand) Instance { return constInst{c.Taken} }

type constInst struct{ taken bool }

func (c constInst) Next(*Env) bool { return c.taken }

func (c constInst) Reset(*xrand.Rand) {}

// Loop models a loop back-edge with a fixed trip count: taken Trip-1 times,
// then not-taken once, repeatedly. Trip must be at least 1; Trip == 1 is a
// never-taken branch.
type Loop struct{ Trip int }

// New implements Behavior.
func (l Loop) New(*xrand.Rand) Instance {
	trip := l.Trip
	if trip < 1 {
		trip = 1
	}
	return &loopInst{trip: trip}
}

type loopInst struct {
	trip  int
	count int
}

func (l *loopInst) Next(*Env) bool {
	l.count++
	if l.count >= l.trip {
		l.count = 0
		return false
	}
	return true
}

func (l *loopInst) Reset(*xrand.Rand) { l.count = 0 }

// VarLoop is a loop whose trip count is redrawn uniformly in [Min, Max] for
// each loop instance — predictable within an instance, unpredictable at the
// exit unless the predictor can see the iteration count in the history.
type VarLoop struct{ Min, Max int }

// New implements Behavior.
func (v VarLoop) New(r *xrand.Rand) Instance {
	lo, hi := v.Min, v.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	inst := &varLoopInst{min: lo, max: hi, r: r}
	inst.redraw()
	return inst
}

type varLoopInst struct {
	min, max int
	trip     int
	count    int
	r        *xrand.Rand
}

func (v *varLoopInst) redraw() {
	v.trip = v.min + v.r.Intn(v.max-v.min+1)
}

func (v *varLoopInst) Next(*Env) bool {
	v.count++
	if v.count >= v.trip {
		v.count = 0
		v.redraw()
		return false
	}
	return true
}

func (v *varLoopInst) Reset(r *xrand.Rand) {
	v.r = r
	v.count = 0
	v.redraw()
}

// Biased is a branch taken with independent probability P per execution —
// the intrinsically unpredictable archetype. P near 0 or 1 gives an easy
// branch; P near 0.5 gives a ~50% misprediction floor for any predictor.
type Biased struct{ P float64 }

// New implements Behavior.
func (b Biased) New(*xrand.Rand) Instance { return biasedInst{p: b.P} }

type biasedInst struct{ p float64 }

func (b biasedInst) Next(env *Env) bool { return env.Rand.WithProbability(b.p) }

func (b biasedInst) Reset(*xrand.Rand) {}

// Pattern replays a fixed periodic outcome sequence, optionally flipping
// each outcome with independent probability Noise. A predictor whose
// history window covers one period learns the noise-free pattern
// perfectly; the bimodal base table alone cannot (unless the pattern is
// constant). Noise models the residual unpredictability real "regular"
// branches exhibit — it is what keeps well-learned branches from being
// perfectly clean in the saturated-counter class.
type Pattern struct {
	Bits  []bool
	Noise float64
}

// New implements Behavior.
func (p Pattern) New(*xrand.Rand) Instance {
	bits := p.Bits
	if len(bits) == 0 {
		bits = []bool{true}
	}
	return &patternInst{bits: bits, noise: p.Noise}
}

type patternInst struct {
	bits  []bool
	pos   int
	noise float64
}

func (p *patternInst) Next(env *Env) bool {
	v := p.bits[p.pos]
	p.pos++
	if p.pos == len(p.bits) {
		p.pos = 0
	}
	if p.noise > 0 && env.Rand.WithProbability(p.noise) {
		v = !v
	}
	return v
}

func (p *patternInst) Reset(*xrand.Rand) { p.pos = 0 }

// Correlated resolves as the XOR of earlier global branch outcomes at the
// given lags (in branches), optionally inverted, with independent noise
// flips at probability Noise. With Noise == 0 the branch is a deterministic
// function of the last max(Lags)+1 history bits: a predictor whose history
// length and table capacity reach that far can learn it, which is what
// separates the small, medium and large TAGE configurations.
type Correlated struct {
	Lags   []int
	Invert bool
	Noise  float64
}

// New implements Behavior.
func (c Correlated) New(*xrand.Rand) Instance {
	lags := c.Lags
	if len(lags) == 0 {
		lags = []int{1}
	}
	return &correlatedInst{lags: lags, invert: c.Invert, noise: c.Noise}
}

type correlatedInst struct {
	lags   []int
	invert bool
	noise  float64
}

func (c *correlatedInst) Next(env *Env) bool {
	v := c.invert
	for _, lag := range c.lags {
		if env.HistBit(lag - 1) {
			v = !v
		}
	}
	if c.noise > 0 && env.Rand.WithProbability(c.noise) {
		v = !v
	}
	return v
}

func (c *correlatedInst) Reset(*xrand.Rand) {}

// Phased cycles through sub-behaviors, switching every Period executions.
// It models program phases: each switch invalidates what the predictor
// learned, producing the warmup / burst mispredictions behind the paper's
// medium-conf-bim class.
type Phased struct {
	Phases []Behavior
	Period int
}

// New implements Behavior.
func (p Phased) New(r *xrand.Rand) Instance {
	period := p.Period
	if period < 1 {
		period = 1
	}
	if len(p.Phases) == 0 {
		return constInst{true}
	}
	inst := &phasedInst{
		specs:  p.Phases,
		phases: make([]Instance, len(p.Phases)),
		rands:  make([]xrand.Rand, len(p.Phases)),
		period: period,
	}
	for i, b := range p.Phases {
		r.DeriveInto(uint64(i), &inst.rands[i])
		inst.phases[i] = b.New(&inst.rands[i])
	}
	return inst
}

type phasedInst struct {
	specs  []Behavior
	phases []Instance
	rands  []xrand.Rand // per-phase derived streams, recycled by Reset
	period int
	count  int
	cur    int
}

func (p *phasedInst) Next(env *Env) bool {
	v := p.phases[p.cur].Next(env)
	p.count++
	if p.count >= p.period {
		p.count = 0
		p.cur++
		if p.cur == len(p.phases) {
			p.cur = 0
		}
	}
	return v
}

func (p *phasedInst) Reset(r *xrand.Rand) {
	p.count, p.cur = 0, 0
	for i, b := range p.specs {
		r.DeriveInto(uint64(i), &p.rands[i])
		if res, ok := p.phases[i].(Resettable); ok {
			res.Reset(&p.rands[i])
		} else {
			p.phases[i] = b.New(&p.rands[i])
		}
	}
}

// Markov is a two-state burst process: the branch alternates between a
// "hot" regime (taken with probability PHot) and a "cold" regime (taken
// with probability PCold), switching regime with probability Switch per
// execution. It models bursty data-dependent branches whose bias drifts
// over time — a milder, continuous version of Phased, useful for
// populating the medium-confidence classes with realistic burst
// mispredictions.
type Markov struct {
	PHot, PCold float64
	// Switch is the per-execution regime-flip probability (clamped to
	// (0, 1]; 0 selects 1/1000).
	Switch float64
}

// New implements Behavior.
func (m Markov) New(*xrand.Rand) Instance {
	sw := m.Switch
	if sw <= 0 {
		sw = 0.001
	}
	if sw > 1 {
		sw = 1
	}
	return &markovInst{pHot: m.PHot, pCold: m.PCold, sw: sw, hot: true}
}

type markovInst struct {
	pHot, pCold float64
	sw          float64
	hot         bool
}

func (m *markovInst) Next(env *Env) bool {
	if env.Rand.WithProbability(m.sw) {
		m.hot = !m.hot
	}
	p := m.pCold
	if m.hot {
		p = m.pHot
	}
	return env.Rand.WithProbability(p)
}

func (m *markovInst) Reset(*xrand.Rand) { m.hot = true }

// LocalPattern is a branch whose outcome depends on its own last k
// outcomes through a fixed boolean rule (an LFSR-style recurrence),
// yielding long pseudo-periodic local patterns that global-history
// predictors capture only with sufficient history and capacity.
type LocalPattern struct {
	// Taps are offsets (in this branch's own executions) XORed together to
	// form the next outcome. Offset 1 is the previous execution.
	Taps []int
	// SeedBits initializes the local history (defaults to a fixed pattern).
	SeedBits []bool
}

// New implements Behavior.
func (l LocalPattern) New(*xrand.Rand) Instance {
	taps := l.Taps
	if len(taps) == 0 {
		taps = []int{1, 2}
	}
	max := 0
	for _, t := range taps {
		if t > max {
			max = t
		}
	}
	inst := &localPatternInst{taps: taps, hist: make([]bool, max), init: make([]bool, max)}
	for i := range inst.init {
		if i < len(l.SeedBits) {
			inst.init[i] = l.SeedBits[i]
		} else {
			inst.init[i] = i%3 == 0
		}
	}
	copy(inst.hist, inst.init)
	return inst
}

type localPatternInst struct {
	taps []int
	hist []bool // hist[0] = most recent own outcome
	init []bool // seed state restored by Reset
}

func (l *localPatternInst) Next(*Env) bool {
	v := false
	for _, t := range l.taps {
		if l.hist[t-1] {
			v = !v
		}
	}
	copy(l.hist[1:], l.hist)
	l.hist[0] = v
	return v
}

func (l *localPatternInst) Reset(*xrand.Rand) { copy(l.hist, l.init) }
