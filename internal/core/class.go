// Package core implements the paper's contribution: storage-free
// confidence estimation for the TAGE branch predictor (Seznec, HPCA 2011 /
// INRIA RR-7371).
//
// The estimator adds no storage to the predictor. It observes, for each
// prediction, which component provided it and the value of that component's
// prediction counter (tage.Observation), and classifies the prediction into
// seven classes with sharply different misprediction rates (§5):
//
//	bimodal provider:  low-conf-bim, medium-conf-bim, high-conf-bim
//	tagged provider:   Wtag, NWtag, NStag, Stag   (by |2·ctr+1|)
//
// The only state the classifier keeps is a single small counter tracking
// the distance from the last bimodal-provided misprediction (the
// medium-conf-bim window) — a few bits of bookkeeping, no tables.
//
// With the §6 modified counter automaton (counter.Probabilistic installed
// in the predictor), the seven classes aggregate into three confidence
// levels with the paper's headline behavior: high ≈ <1% misprediction,
// medium ≈ 8-12%, low ≈ >30%. The saturation probability can further be
// adapted at run time (Adaptive) to hold the high-confidence misprediction
// rate under a target while maximizing coverage (§6.2, Table 3).
package core

// Class is one of the paper's seven observable prediction classes.
type Class uint8

// The seven prediction classes of §5. Order groups the bimodal-provided
// classes first, then the tagged classes by increasing counter strength.
const (
	// LowConfBim: bimodal provider with a weak 2-bit counter. ~30%+
	// misprediction rate (§5.1.2).
	LowConfBim Class = iota
	// MediumConfBim: bimodal provider within the post-misprediction window
	// (default 8 BIM predictions). Warming/capacity bursts; ~6-15%.
	MediumConfBim
	// HighConfBim: every other bimodal-provided prediction; < 1%.
	HighConfBim
	// Wtag: tagged provider, |2·ctr+1| == 1. Typically > 30% mispredicted.
	Wtag
	// NWtag: tagged provider, |2·ctr+1| == 3. Near Wtag behavior.
	NWtag
	// NStag: tagged provider, nearly saturated counter. ~20%, dropping to
	// ~7% under the modified automaton (the medium class).
	NStag
	// Stag: tagged provider, saturated counter. Near the average rate with
	// the standard automaton; < 0.5% with the modified automaton.
	Stag
	// NumClasses is the number of prediction classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"low-conf-bim",
	"medium-conf-bim",
	"high-conf-bim",
	"Wtag",
	"NWtag",
	"NStag",
	"Stag",
}

// String returns the paper's name for the class.
//
//repro:deterministic
func (c Class) String() string {
	if c >= NumClasses {
		return "invalid-class"
	}
	return classNames[c]
}

// Tagged reports whether the class is provided by a tagged component.
//
//repro:hotpath
func (c Class) Tagged() bool { return c >= Wtag }

// Level is one of the three aggregate confidence levels of §6.1.
type Level uint8

// The three confidence levels.
const (
	// Low confidence: misprediction rate higher than 30%.
	Low Level = iota
	// Medium confidence: misprediction rate in the 8-12% range.
	Medium
	// High confidence: misprediction rate lower than 1%.
	High
	// NumLevels is the number of confidence levels.
	NumLevels
)

var levelNames = [NumLevels]string{"low", "medium", "high"}

// String returns the level name.
//
//repro:deterministic
func (l Level) String() string {
	if l >= NumLevels {
		return "invalid-level"
	}
	return levelNames[l]
}

// Level maps the seven classes onto the three levels exactly as §6.1:
//
//	low    = low-conf-bim ∪ Wtag ∪ NWtag
//	medium = medium-conf-bim ∪ NStag
//	high   = high-conf-bim ∪ Stag
//
// The mapping is meaningful as a confidence estimate when the predictor
// runs the modified (probabilistic-saturation) automaton; with the standard
// automaton Stag retains a near-average misprediction rate (§5.3).
//
//repro:hotpath
//repro:deterministic
func (c Class) Level() Level {
	switch c {
	case LowConfBim, Wtag, NWtag:
		return Low
	case MediumConfBim, NStag:
		return Medium
	default:
		return High
	}
}

// Classes lists all seven classes in display order (bimodal classes by
// rising confidence, then tagged classes by rising counter strength).
//
//repro:deterministic
func Classes() []Class {
	return []Class{LowConfBim, MediumConfBim, HighConfBim, Wtag, NWtag, NStag, Stag}
}

// Levels lists the three levels in rising-confidence order.
//
//repro:deterministic
func Levels() []Level { return []Level{Low, Medium, High} }
