// Package looppred implements the loop predictor of the L-TAGE predictor
// (Seznec, "The L-TAGE branch predictor", JILP 2007) — the component that
// won CBP-2 on top of TAGE, which the paper cites as the state of the art.
//
// The loop predictor captures branches that behave as loops with a
// constant trip count: after observing the same iteration count a few
// consecutive times, it predicts the body direction for trip-1 executions
// and the exit direction on the trip-th, with essentially perfect accuracy
// on regular loops regardless of how long the trip is (where TAGE needs a
// history window covering the whole loop body).
//
// LTAGE combines a TAGE predictor with the loop predictor under the
// original's WITHLOOP confidence counter: the loop prediction is used only
// while it has proven itself.
package looppred

import (
	"fmt"

	"repro/internal/tage"
)

// Config parameterizes the loop predictor table.
type Config struct {
	// LogSize is log2 of the number of entries.
	LogSize uint
	// TagBits is the partial tag width.
	TagBits uint
	// MaxTrip bounds the learnable trip count (iteration counters
	// saturate there).
	MaxTrip uint16
	// ConfMax is the confidence saturation (number of identical trips
	// before the entry predicts).
	ConfMax uint8
}

// DefaultConfig mirrors the L-TAGE dimensioning: 64 entries, 14-bit tags,
// trips up to 16K, confidence 3.
func DefaultConfig() Config {
	return Config{LogSize: 6, TagBits: 14, MaxTrip: 16383, ConfMax: 3}
}

func (c Config) validate() error {
	if c.LogSize == 0 || c.LogSize > 16 {
		return fmt.Errorf("looppred: bad LogSize %d", c.LogSize)
	}
	if c.TagBits == 0 || c.TagBits > 16 {
		return fmt.Errorf("looppred: bad TagBits %d", c.TagBits)
	}
	if c.MaxTrip < 3 {
		return fmt.Errorf("looppred: bad MaxTrip %d", c.MaxTrip)
	}
	if c.ConfMax == 0 || c.ConfMax > 7 {
		return fmt.Errorf("looppred: bad ConfMax %d", c.ConfMax)
	}
	return nil
}

// StorageBits returns the table cost in bits per the L-TAGE accounting:
// tag + two iteration counters (14 bits each at the default MaxTrip) +
// confidence (2) + age (8) + direction (1).
func (c Config) StorageBits() int {
	iterBits := 0
	for v := c.MaxTrip; v > 0; v >>= 1 {
		iterBits++
	}
	perEntry := int(c.TagBits) + 2*iterBits + 2 + 8 + 1
	return (1 << c.LogSize) * perEntry
}

type entry struct {
	tag         uint16
	currentIter uint16
	trip        uint16 // learned trip count (0 = not yet learned)
	conf        uint8
	age         uint8
	dir         bool // loop body direction
	valid       bool
}

// Predictor is the standalone loop predictor. Drive it with Predict/Update
// per branch (Update must follow Predict for the same pc).
type Predictor struct {
	cfg     Config
	entries []entry
	mask    uint64 // from cfg.LogSize at construction
}

// New builds a loop predictor.
func New(cfg Config) *Predictor {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Predictor{
		cfg:     cfg,
		entries: make([]entry, 1<<cfg.LogSize),
		mask:    uint64(1<<cfg.LogSize) - 1,
	}
}

//repro:hotpath
func (p *Predictor) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

//repro:hotpath
func (p *Predictor) tag(pc uint64) uint16 {
	return uint16((pc >> (2 + p.cfg.LogSize)) & ((1 << p.cfg.TagBits) - 1))
}

// Prediction is the loop predictor's output for one branch.
type Prediction struct {
	// Pred is the predicted direction (meaningful only when Valid).
	Pred bool
	// Valid reports a confident hit: the entry's trip count has been
	// confirmed ConfMax times.
	Valid bool
}

// Predict looks up pc.
//
//repro:hotpath
func (p *Predictor) Predict(pc uint64) Prediction {
	e := &p.entries[p.index(pc)]
	if !e.valid || e.tag != p.tag(pc) || e.conf < p.cfg.ConfMax || e.trip == 0 {
		return Prediction{}
	}
	if e.currentIter+1 >= e.trip {
		return Prediction{Pred: !e.dir, Valid: true}
	}
	return Prediction{Pred: e.dir, Valid: true}
}

// Update trains the entry for pc with the resolved direction;
// tageMispredicted gates allocation (entries are allocated only when the
// main predictor failed, as in L-TAGE).
//
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool, tageMispredicted bool) {
	e := &p.entries[p.index(pc)]
	tg := p.tag(pc)
	if e.valid && e.tag == tg {
		p.train(e, pc, taken)
		return
	}
	if !tageMispredicted {
		return
	}
	// Allocation with anti-thrash aging. The mispredicted outcome is
	// typically the loop exit, so the body direction is its opposite.
	if e.valid && e.age > 0 {
		e.age--
		return
	}
	*e = entry{
		tag:   tg,
		dir:   !taken,
		age:   255,
		valid: true,
	}
}

//repro:hotpath
func (p *Predictor) train(e *entry, pc uint64, taken bool) {
	if taken == e.dir {
		// Another body iteration.
		if e.currentIter < p.cfg.MaxTrip {
			e.currentIter++
		} else {
			// Trip beyond the counter range: the entry cannot represent
			// this loop.
			*e = entry{}
			return
		}
		if e.trip > 0 && e.currentIter >= e.trip {
			if e.trip == 1 {
				// A "trip-1 loop" means every outcome opposed dir — the
				// allocation guessed the body direction wrong (it fired on
				// a body misprediction rather than an exit). Flip and
				// relearn.
				*e = entry{tag: e.tag, dir: !e.dir, age: e.age, valid: true, currentIter: 1}
				return
			}
			// The loop ran past its learned trip: wrong shape, relearn.
			e.trip = 0
			e.conf = 0
		}
		return
	}
	// Exit observed.
	iter := e.currentIter + 1 // iterations including the exit
	e.currentIter = 0
	switch {
	case e.trip == 0:
		e.trip = iter
		e.conf = 1
	case e.trip == iter:
		if e.conf < p.cfg.ConfMax {
			e.conf++
		}
		if e.age < 255 {
			e.age++
		}
	default:
		// Different trip: relearn from this observation.
		e.trip = iter
		e.conf = 1
		if e.age > 0 {
			e.age--
		}
	}
}

// StorageBits returns the table cost in bits.
func (p *Predictor) StorageBits() int { return p.cfg.StorageBits() }

// Invalidate frees the entry for pc (used by the combiner when a
// confident loop prediction turns out wrong, as in the original L-TAGE).
//
//repro:hotpath
func (p *Predictor) Invalidate(pc uint64) {
	e := &p.entries[p.index(pc)]
	if e.valid && e.tag == p.tag(pc) {
		*e = entry{}
	}
}

// LTAGE combines a TAGE predictor with the loop predictor under a
// WITHLOOP usefulness counter, as in the original L-TAGE.
type LTAGE struct {
	tage *tage.Predictor
	loop *Predictor

	// withLoop is the 7-bit signed WITHLOOP counter: non-negative means
	// the loop prediction is trusted when valid.
	withLoop int8

	lastLoop  Prediction // per-prediction scratch; havePred is cleared on restore
	lastPred  bool       // per-prediction scratch; havePred is cleared on restore
	usedLoop  bool       // per-prediction scratch; havePred is cleared on restore
	havePred  bool
	predictPC uint64 // per-prediction scratch; havePred is cleared on restore
}

// NewLTAGE builds the combined predictor.
func NewLTAGE(tageCfg tage.Config, loopCfg Config) *LTAGE {
	return &LTAGE{
		tage: tage.New(tageCfg),
		loop: New(loopCfg),
	}
}

// Predict returns the combined prediction. The underlying TAGE observation
// remains available through Observation.
//
//repro:hotpath
func (l *LTAGE) Predict(pc uint64) bool {
	tagePred := l.tage.Predict(pc).Pred
	l.lastLoop = l.loop.Predict(pc)
	l.usedLoop = l.lastLoop.Valid && l.withLoop >= 0
	if l.usedLoop {
		l.lastPred = l.lastLoop.Pred
	} else {
		l.lastPred = tagePred
	}
	l.havePred = true
	l.predictPC = pc
	return l.lastPred
}

// Observation returns the TAGE component observation of the last
// Predict, the TAGE predictor's own (see tage.Predictor.Predict for its
// lifetime).
//
//repro:hotpath
func (l *LTAGE) Observation() *tage.Observation { return l.tage.Observation() }

// UsedLoop reports whether the last prediction came from the loop
// predictor.
//
//repro:hotpath
func (l *LTAGE) UsedLoop() bool { return l.usedLoop }

// Update resolves the branch and trains both components.
//
//repro:hotpath
func (l *LTAGE) Update(pc uint64, taken bool) {
	if !l.havePred || l.predictPC != pc {
		panic(fmt.Sprintf("looppred: Update(%#x) without matching Predict", pc))
	}
	l.havePred = false
	tagePred := l.tage.Observation().Pred
	// WITHLOOP monitors the loop predictor only when it disagrees with
	// TAGE (the cases where trusting it changes the outcome).
	if l.lastLoop.Valid && l.lastLoop.Pred != tagePred {
		if l.lastLoop.Pred == taken {
			if l.withLoop < 63 {
				l.withLoop++
			}
		} else if l.withLoop > -64 {
			l.withLoop--
		}
	}
	if l.lastLoop.Valid && l.lastLoop.Pred != taken {
		// A confident loop prediction that mispredicts frees its entry
		// (the original L-TAGE rule): the branch is not the regular loop
		// the entry believed it to be.
		l.loop.Invalidate(pc)
	} else {
		l.loop.Update(pc, taken, tagePred != taken)
	}
	l.tage.Update(pc, taken)
}

// StorageBits returns the combined storage cost.
func (l *LTAGE) StorageBits() int {
	return l.tage.Config().StorageBits() + l.loop.StorageBits() + 7
}
