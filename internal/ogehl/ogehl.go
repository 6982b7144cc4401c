// Package ogehl implements the O-GEHL branch predictor (Seznec, "Analysis
// of the O-GEHL branch predictor", ISCA 2005): an optimized GEometric
// History Length predictor that sums signed counters read from several
// tables indexed with geometrically increasing global-history lengths, and
// trains them perceptron-style against a dynamically adapted threshold.
//
// O-GEHL matters to the paper twice: it introduced the geometric history
// length series that TAGE reuses, and its storage-free self-confidence
// estimate — |sum| at or above the update threshold — is the related-work
// baseline the paper quotes in §2.2: about one third of its low-confidence
// predictions are mispredicted (good PVN), but only about half of the
// mispredictions are classified low confidence (limited SPEC).
package ogehl

import (
	"fmt"

	"repro/internal/history"
)

// Config parameterizes an O-GEHL predictor.
type Config struct {
	// NumTables is the number of counter tables (first is PC-indexed).
	NumTables int
	// LogSize is log2 of each table's entry count.
	LogSize uint
	// CtrBits is the counter width (4 bits in the reference design).
	CtrBits uint
	// MinHist/MaxHist bound the geometric history series for tables 1..N-1.
	MinHist, MaxHist int
	// Seed is reserved for configuration hashing (the predictor itself is
	// deterministic and uses no randomness).
	Seed uint64
}

// DefaultConfig is a 64 Kbit-class O-GEHL: 8 tables × 2^11 × 4-bit
// counters, histories 3..200.
func DefaultConfig() Config {
	return Config{
		NumTables: 8,
		LogSize:   11,
		CtrBits:   4,
		MinHist:   3,
		MaxHist:   200,
	}
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.NumTables < 2 || c.NumTables > 16 {
		return fmt.Errorf("ogehl: bad NumTables %d", c.NumTables)
	}
	if c.LogSize == 0 || c.LogSize > 24 {
		return fmt.Errorf("ogehl: bad LogSize %d", c.LogSize)
	}
	if c.CtrBits < 2 || c.CtrBits > 6 {
		return fmt.Errorf("ogehl: bad CtrBits %d", c.CtrBits)
	}
	if c.MinHist < 1 || c.MaxHist < c.MinHist {
		return fmt.Errorf("ogehl: bad history bounds %d..%d", c.MinHist, c.MaxHist)
	}
	return nil
}

// StorageBits returns the table storage in bits.
func (c Config) StorageBits() int {
	return c.NumTables * (1 << c.LogSize) * int(c.CtrBits)
}

// Predictor is an O-GEHL predictor instance. Call Predict then Update for
// each branch in order.
type Predictor struct {
	cfg     Config // construction input, immutable
	tables  [][]int8
	lengths []int // geometric history lengths fixed by cfg
	ghist   *history.Buffer
	folded  []*history.Folded // nil for table 0

	ctrMax int8
	ctrMin int8

	theta    int32    // update threshold (adapted)
	tc       int32    // threshold adaptation counter
	lastSum  int32    // per-prediction scratch; havePred is cleared on restore
	lastIdx  []uint32 // per-prediction scratch; havePred is cleared on restore
	havePred bool
	lastPC   uint64 // per-prediction scratch; havePred is cleared on restore
}

// tcSaturation is the threshold-counter saturation driving θ adaptation.
const tcSaturation = 63

// New builds a predictor.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumTables
	lengths := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, n-1)
	p := &Predictor{
		cfg:     cfg,
		tables:  make([][]int8, n),
		lengths: lengths,
		ghist:   history.NewBuffer(cfg.MaxHist + 2),
		folded:  make([]*history.Folded, n),
		ctrMax:  int8(1<<(cfg.CtrBits-1)) - 1,
		ctrMin:  int8(-1) << (cfg.CtrBits - 1),
		theta:   int32(n), // initial θ ≈ number of tables
		lastIdx: make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		p.tables[i] = make([]int8, 1<<cfg.LogSize)
		if i > 0 {
			p.folded[i] = history.NewFolded(lengths[i-1], int(cfg.LogSize))
		}
	}
	return p
}

// Config returns the configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Theta returns the current update threshold.
func (p *Predictor) Theta() int32 { return p.theta }

//repro:hotpath
func (p *Predictor) index(pc uint64, t int) uint32 {
	mask := (uint32(1) << p.cfg.LogSize) - 1
	if t == 0 {
		return uint32(pc>>2) & mask
	}
	h := p.folded[t].Value()
	return (uint32(pc>>2) ^ uint32(pc>>(2+uint(t))) ^ h ^ uint32(t)*0x9E37) & mask
}

// Predict computes the prediction for pc (sum of the indexed counters,
// taken if non-negative).
//
//repro:hotpath
func (p *Predictor) Predict(pc uint64) bool {
	sum := int32(len(p.tables)) / 2 // centering term of the reference design
	for t := range p.tables {
		idx := p.index(pc, t)
		p.lastIdx[t] = idx
		sum += int32(p.tables[t][idx])
	}
	p.lastSum = sum
	p.lastPC = pc
	p.havePred = true
	return sum >= 0
}

// LastSum returns the sum computed by the most recent Predict.
//
//repro:hotpath
func (p *Predictor) LastSum() int32 { return p.lastSum }

// HighConfidence is the storage-free self-confidence estimate of the most
// recent prediction: |sum| at or above the update threshold θ.
//
//repro:hotpath
func (p *Predictor) HighConfidence() bool {
	s := p.lastSum
	if s < 0 {
		s = -s
	}
	return s >= p.theta
}

// Update trains the predictor with the resolved direction. It must follow
// the Predict call for the same pc.
//
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	if !p.havePred || p.lastPC != pc {
		panic(fmt.Sprintf("ogehl: Update(%#x) without matching Predict", pc))
	}
	p.havePred = false
	pred := p.lastSum >= 0
	mag := p.lastSum
	if mag < 0 {
		mag = -mag
	}

	// Perceptron-style selective training.
	if pred != taken || mag < p.theta {
		for t := range p.tables {
			c := p.tables[t][p.lastIdx[t]]
			if taken {
				if c < p.ctrMax {
					c++
				}
			} else if c > p.ctrMin {
				c--
			}
			p.tables[t][p.lastIdx[t]] = c
		}
	}

	// Threshold adaptation (the reference design's TC counter): a
	// misprediction asks for a larger θ (more training), a correct
	// low-magnitude prediction for a smaller one.
	if pred != taken {
		p.tc++
		if p.tc >= tcSaturation {
			p.tc = 0
			p.theta++
		}
	} else if mag < p.theta {
		p.tc--
		if p.tc <= -tcSaturation {
			p.tc = 0
			if p.theta > 1 {
				p.theta--
			}
		}
	}

	// Advance history.
	p.ghist.Push(taken)
	for t := 1; t < len(p.tables); t++ {
		p.folded[t].Update(p.ghist)
	}
}

// StorageBits returns the predictor's storage cost in bits.
func (p *Predictor) StorageBits() int { return p.cfg.StorageBits() }
