package core

import (
	"repro/internal/counter"
	"repro/internal/tage"
)

// DefaultBimWindow is the length, in bimodal-provided predictions, of the
// medium-conf-bim window after a bimodal-provided misprediction ("up to 8
// branches in the illustrated experiments", §5.1.2).
const DefaultBimWindow = 8

// Classifier grades TAGE predictions into the seven classes of §5 by pure
// observation of the predictor outputs. Its only state is the
// medium-conf-bim window counter — storage-free in the paper's sense (no
// tables, a handful of bits).
//
// Protocol per branch: call Classify with the Observation returned by the
// predictor's Predict, then call Resolve with the same observation and the
// branch outcome (before predicting the next branch). Both read the
// observation in place through the pointer Predict returned.
type Classifier struct {
	// tagged maps a tagged provider's counter, as a byte, to its class
	// (taggedClass for the predictor's counter width): fixed at
	// construction.
	tagged    [256]Class
	window    int
	remaining int
}

// NewClassifier returns a classifier for predictors with cfg's counter
// width, using the default medium-conf-bim window.
func NewClassifier(cfg tage.Config) *Classifier {
	return NewClassifierWindow(cfg, DefaultBimWindow)
}

// NewClassifierWindow returns a classifier with an explicit
// medium-conf-bim window length. A window of 0 disables the
// medium-conf-bim class entirely (strong-counter bimodal predictions all
// classify high-conf-bim) — the configuration of §5.1.1 before the
// discrimination was introduced.
func NewClassifierWindow(cfg tage.Config, window int) *Classifier {
	ctrBits := cfg.CtrBits
	if ctrBits == 0 {
		ctrBits = tage.DefaultCtrBits
	}
	if window < 0 {
		window = 0
	}
	c := &Classifier{window: window}
	for v := range c.tagged {
		c.tagged[v] = taggedClass(int8(v), ctrBits)
	}
	return c
}

// Window returns the configured medium-conf-bim window length.
func (c *Classifier) Window() int { return c.window }

// Classify grades one prediction. It reads only the observation and the
// window counter; it does not modify any state.
//
//repro:hotpath
func (c *Classifier) Classify(obs *tage.Observation) Class {
	if obs.Tagged() {
		return c.tagged[uint8(obs.ProviderCtr)]
	}
	if obs.BimCtr.Weak() {
		return LowConfBim
	}
	if c.remaining > 0 {
		return MediumConfBim
	}
	return HighConfBim
}

// taggedClass maps a provider counter value to its class by |2·ctr+1|:
// weak (1) → Wtag, nearly weak (3) → NWtag, saturated → Stag, anything in
// between → NStag. For the paper's 3-bit counters the in-between value is
// exactly 5; the rule extends to the §6 4-bit widening experiment.
// NewClassifierWindow tabulates it over every counter value.
func taggedClass(ctr int8, bits uint) Class {
	switch s := counter.Strength(ctr); {
	case s == 1:
		return Wtag
	case s == 3:
		return NWtag
	case s == counter.Strength(counter.SignedMax(bits)):
		return Stag
	default:
		return NStag
	}
}

// Resolve advances the medium-conf-bim window state with the branch
// outcome. It must be called once per prediction, after Classify, with the
// same observation.
//
//repro:hotpath
func (c *Classifier) Resolve(obs *tage.Observation, taken bool) {
	if obs.Tagged() {
		return
	}
	if obs.Pred != taken {
		c.remaining = c.window
	} else if c.remaining > 0 {
		c.remaining--
	}
}
