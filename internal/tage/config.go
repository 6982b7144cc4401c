package tage

import (
	"fmt"

	"repro/internal/history"
)

// Config describes a TAGE predictor instance. The three paper
// configurations are available from Small16K, Medium64K and Large256K.
type Config struct {
	// Name labels the configuration in reports ("16Kbits", ...).
	Name string

	// BimodalLog is log2 of the base-table entry count (2 bits/entry,
	// unshared hysteresis as in the paper's configurations).
	BimodalLog uint

	// TaggedLog is log2 of the per-tagged-table entry count; the paper's
	// configurations give every tagged table the same number of entries.
	TaggedLog uint

	// TagBits is the partial-tag width of the tagged tables.
	TagBits uint

	// HistLengths are the global-history lengths of the tagged tables,
	// shortest first (a geometric series in the paper).
	HistLengths []int

	// CtrBits is the tagged-table prediction-counter width (3 in the paper;
	// 4 reproduces the §6 widening experiment).
	CtrBits uint

	// UBits is the useful-counter width (2 in the paper).
	UBits uint

	// PathBits is the path-history register width hashed into table
	// indices (16 in the reference TAGE implementations). A table hashes
	// min(history length, PathBits) of them, and Validate bounds that by
	// 2·TaggedLog.
	PathBits uint

	// UResetPeriod is the number of updates between graceful u resets
	// (one-bit right shift of every u counter). The reference
	// implementations use 2^18.
	UResetPeriod uint64

	// Seed drives the predictor's internal randomness (entry allocation,
	// and the probabilistic automaton when one is installed).
	Seed uint64

	// DisableUseAltOnNA turns off the USE_ALT_ON_NA heuristic (§3.1): the
	// provider component's counter always supplies the prediction, even
	// when weak. Used by the ablation benches; the paper notes the
	// heuristic "(slightly) improves prediction accuracy".
	DisableUseAltOnNA bool
}

// Default field values applied by (*Config).normalized.
const (
	DefaultCtrBits      = 3
	DefaultUBits        = 2
	DefaultPathBits     = 16
	DefaultUResetPeriod = 1 << 18
)

func (c Config) normalized() Config {
	if c.CtrBits == 0 {
		c.CtrBits = DefaultCtrBits
	}
	if c.UBits == 0 {
		c.UBits = DefaultUBits
	}
	if c.PathBits == 0 {
		c.PathBits = DefaultPathBits
	}
	if c.UResetPeriod == 0 {
		c.UResetPeriod = DefaultUResetPeriod
	}
	return c
}

// Validate checks the configuration for structural sanity.
func (c Config) Validate() error {
	c = c.normalized()
	if c.BimodalLog == 0 || c.BimodalLog > 24 {
		return fmt.Errorf("tage: bad BimodalLog %d", c.BimodalLog)
	}
	if c.TaggedLog == 0 || c.TaggedLog > 24 {
		return fmt.Errorf("tage: bad TaggedLog %d", c.TaggedLog)
	}
	if c.TagBits < 2 || c.TagBits > 16 {
		return fmt.Errorf("tage: bad TagBits %d", c.TagBits)
	}
	if len(c.HistLengths) == 0 {
		return fmt.Errorf("tage: no tagged tables")
	}
	for i, l := range c.HistLengths {
		if l < 1 {
			return fmt.Errorf("tage: history length %d at table %d", l, i)
		}
		if i > 0 && l <= c.HistLengths[i-1] {
			return fmt.Errorf("tage: history lengths not strictly increasing: %v", c.HistLengths)
		}
	}
	// The path hash is tabulated (see newPathTable), which reproduces
	// the reference F() only while F's additions cannot carry: the
	// widest bank may hash at most 2·TaggedLog path bits.
	if w := c.pathWidth(c.HistLengths[len(c.HistLengths)-1]); w > 2*c.TaggedLog {
		return fmt.Errorf("tage: path-history width %d exceeds 2·TaggedLog = %d (PathBits %d, longest history %d); lower PathBits to %d",
			w, 2*c.TaggedLog, c.PathBits, c.HistLengths[len(c.HistLengths)-1], 2*c.TaggedLog)
	}
	if c.CtrBits < 2 || c.CtrBits > 6 {
		return fmt.Errorf("tage: bad CtrBits %d", c.CtrBits)
	}
	if c.UBits < 1 || c.UBits > 4 {
		return fmt.Errorf("tage: bad UBits %d", c.UBits)
	}
	return nil
}

// pathWidth returns how many path-history bits the index hash of a
// table with history length histLen reads: min(histLen, PathBits), and
// at most the 32 bits the path register holds.
func (c Config) pathWidth(histLen int) uint { return min(uint(histLen), c.PathBits, 32) }

// NumTables returns the number of tagged tables.
func (c Config) NumTables() int { return len(c.HistLengths) }

// StorageBits returns the predictor's total storage budget in bits:
// bimodal entries at 2 bits plus tagged entries at tag+ctr+u bits.
func (c Config) StorageBits() int {
	c = c.normalized()
	bim := 2 * (1 << c.BimodalLog)
	perEntry := int(c.TagBits + c.CtrBits + c.UBits)
	tagged := len(c.HistLengths) * (1 << c.TaggedLog) * perEntry
	return bim + tagged
}

// Small16K is the paper's 16 Kbit configuration: 1+4 tables, history 3..80.
// 1024-entry bimodal (2048 b) + 4 × 256-entry tagged tables with 9-bit tags
// (4 × 256 × 14 b = 14336 b) = 16384 bits exactly.
func Small16K() Config {
	return Config{
		Name:        "16Kbits",
		BimodalLog:  10,
		TaggedLog:   8,
		TagBits:     9,
		HistLengths: history.GeometricLengths(3, 80, 4),
		Seed:        0x16B175,
	}
}

// Medium64K is the paper's 64 Kbit configuration: 1+7 tables, history
// 5..130. 4096-entry bimodal (8192 b) + 7 × 512-entry tagged tables with
// 11-bit tags (7 × 512 × 16 b = 57344 b) = 65536 bits exactly.
func Medium64K() Config {
	return Config{
		Name:        "64Kbits",
		BimodalLog:  12,
		TaggedLog:   9,
		TagBits:     11,
		HistLengths: history.GeometricLengths(5, 130, 7),
		Seed:        0x64B175,
	}
}

// Large256K is the paper's 256 Kbit configuration: 1+8 tables, history
// 5..300. 8192-entry bimodal (16384 b) + 8 × 2048-entry tagged tables with
// 10-bit tags (8 × 2048 × 15 b = 245760 b) = 262144 bits exactly.
func Large256K() Config {
	return Config{
		Name:        "256Kbits",
		BimodalLog:  13,
		TaggedLog:   11,
		TagBits:     10,
		HistLengths: history.GeometricLengths(5, 300, 8),
		Seed:        0x256B175,
	}
}

// StandardConfigs returns the three paper configurations in size order.
func StandardConfigs() []Config {
	return []Config{Small16K(), Medium64K(), Large256K()}
}

// ConfigByName resolves "16K"/"64K"/"256K" (and the full "...Kbits" forms).
func ConfigByName(name string) (Config, error) {
	switch name {
	case "16K", "16Kbits", "small":
		return Small16K(), nil
	case "64K", "64Kbits", "medium":
		return Medium64K(), nil
	case "256K", "256Kbits", "large":
		return Large256K(), nil
	default:
		return Config{}, fmt.Errorf(
			"tage: unknown configuration %q (valid: 16K/16Kbits/small, 64K/64Kbits/medium, 256K/256Kbits/large)", name)
	}
}
