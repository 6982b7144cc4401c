package predictor

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/bimodal"
	"repro/internal/core"
	"repro/internal/jrs"
	"repro/internal/looppred"
	"repro/internal/ogehl"
	"repro/internal/perceptron"
	"repro/internal/statecodec"
	"repro/internal/tage"
)

// The registered families. multipath and fetchgate are deliberately
// absent: they are front-end timing models consuming a Backend's grades,
// not predictors.
func init() {
	RegisterFamily(Family{
		Name:       "tage",
		Summary:    "TAGE + the paper's storage-free seven-class confidence estimator",
		Paper:      "Seznec & Michaud JILP 2006; confidence §5-§6 of the reproduced paper",
		Variants:   []string{"16K", "64K", "256K", "custom"},
		ParamsHelp: tageParamsHelp,
		Build:      buildTAGE,
	})
	RegisterFamily(Family{
		Name:       "bimodal",
		Summary:    "Smith 2-bit counters; the original storage-free confidence estimate",
		Paper:      "Smith, ISCA 1981 (confidence: §2.2 of the reproduced paper)",
		Variants:   []string{"16K", "64K", "256K"},
		ParamsHelp: "log",
		Build:      buildBimodal,
	})
	RegisterFamily(Family{
		Name:       "perceptron",
		Summary:    "global-history perceptron; |sum| vs θ self-confidence",
		Paper:      "Jiménez & Lin, HPCA 2001 (confidence: TR 02-14)",
		ParamsHelp: "log, hist",
		Build:      buildPerceptron,
	})
	RegisterFamily(Family{
		Name:       "ogehl",
		Summary:    "O-GEHL; |sum| vs update-threshold self-confidence",
		Paper:      "Seznec, ISCA 2005 (confidence: §2.2 of the reproduced paper)",
		ParamsHelp: "tables, log, ctr, minhist, maxhist",
		Build:      buildOGEHL,
	})
	RegisterFamily(Family{
		Name:       "jrs",
		Summary:    "TAGE graded by JRS miss-distance counters (the storage-based baseline)",
		Paper:      "Jacobsen, Rotenberg & Smith, MICRO 1996; Grunwald et al., ISCA 1998",
		Variants:   []string{"16K", "64K", "256K"},
		ParamsHelp: "log, bits, threshold, hist, enhanced",
		Build:      buildJRS,
	})
	RegisterFamily(Family{
		Name:       "ltage",
		Summary:    "TAGE + L-TAGE loop predictor; TAGE classes, loop hits graded Stag",
		Paper:      "Seznec, JILP 2007",
		Variants:   []string{"16K", "64K", "256K"},
		ParamsHelp: "window, llog, ltag, maxtrip, lconf",
		Build:      buildLTAGE,
	})
}

func parseUint(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
func parseInt(s string) (int64, error)   { return strconv.ParseInt(s, 0, 64) }
func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("not a finite non-negative number")
	}
	return f, nil
}

func badVariant(family, variant string, valid []string) error {
	return fmt.Errorf("predictor: unknown %s variant %q (want one of %v, or none)", family, variant, valid)
}

// sizeLog maps the shared 16K/64K/256K storage-class variants onto a
// log2 table size for the bimodal family's 2-bit counters (2 bits per
// entry: 2^13 × 2 b = 16 Kbit and so on).
func sizeLog(variant string) (uint, error) {
	switch variant {
	case "16K":
		return 13, nil
	case "64K", "":
		return 15, nil
	case "256K":
		return 17, nil
	default:
		return 0, fmt.Errorf("unknown size variant %q (want 16K, 64K or 256K)", variant)
	}
}

const tageParamsHelp = "mode, mkp, denomlog, window, awindow, seed, name, bl, tl, tag, hist, ctr, u, path, urp, noalt"

// tageVariants maps the paper configuration names onto canonical spec
// variants (and back, in TAGESpec).
func tageBase(variant string) (tage.Config, error) {
	switch variant {
	case "":
		return tage.Medium64K(), nil
	case "custom":
		return tage.Config{}, nil
	default:
		cfg, err := tage.ConfigByName(variant)
		if err != nil {
			return tage.Config{}, badVariant("tage", variant, []string{"16K", "64K", "256K", "custom"})
		}
		return cfg, nil
	}
}

func buildTAGE(sp Spec) (Backend, error) {
	cfg, opts, err := tageConfig(sp)
	if err != nil {
		return nil, err
	}
	return core.NewEstimator(cfg, opts), nil
}

// tageConfig resolves a tage-family spec into the (Config, Options) pair
// core.NewEstimator takes — the single translation back from the spec
// every construction path (builder, CLI -backend, served opens, the
// experiments cache key) goes through. It is also the one place a
// served open's parameters are range-checked.
func tageConfig(sp Spec) (tage.Config, core.Options, error) {
	cfg, err := tageBase(sp.Variant)
	if err != nil {
		return tage.Config{}, core.Options{}, err
	}
	p := newParams(sp)
	cfg.Name = p.stringP("name", cfg.Name)
	cfg.BimodalLog = uint(p.uintP("bl", uint64(cfg.BimodalLog), 24))
	cfg.TaggedLog = uint(p.uintP("tl", uint64(cfg.TaggedLog), 24))
	cfg.TagBits = uint(p.uintP("tag", uint64(cfg.TagBits), 16))
	cfg.HistLengths = p.intsP("hist", cfg.HistLengths)
	cfg.CtrBits = uint(p.uintP("ctr", uint64(cfg.CtrBits), 6))
	cfg.UBits = uint(p.uintP("u", uint64(cfg.UBits), 4))
	cfg.PathBits = uint(p.uintP("path", uint64(cfg.PathBits), 64))
	cfg.UResetPeriod = p.uintP("urp", cfg.UResetPeriod, 1<<40)
	cfg.Seed = p.uintP("seed", cfg.Seed, math.MaxUint64)
	cfg.DisableUseAltOnNA = p.boolP("noalt", cfg.DisableUseAltOnNA)

	var opts core.Options
	if m, ok := p.raw("mode"); ok {
		opts.Mode, err = core.ParseMode(m)
		if err != nil {
			p.fail("mode", m, "standard, probabilistic or adaptive")
		}
	}
	opts.DenomLog = uint(p.uintP("denomlog", 0, 62))
	opts.BimWindow = int(p.intP("window", 0, math.MinInt32, math.MaxInt32))
	opts.TargetMKP = p.floatP("mkp", 0)
	opts.AdaptiveWindow = p.uintP("awindow", 0, math.MaxUint64)
	if err := p.finish("tage", tageParamsHelp); err != nil {
		return tage.Config{}, core.Options{}, err
	}
	if err := cfg.Validate(); err != nil {
		return tage.Config{}, core.Options{}, fmt.Errorf("predictor: spec %q: %w", sp.String(), err)
	}
	return cfg, opts, nil
}

func buildBimodal(sp Spec) (Backend, error) {
	defLog, err := sizeLog(sp.Variant)
	if err != nil {
		return nil, badVariant("bimodal", sp.Variant, []string{"16K", "64K", "256K"})
	}
	p := newParams(sp)
	logSize := uint(p.uintP("log", uint64(defLog), 24))
	if err := p.finish("bimodal", "log"); err != nil {
		return nil, err
	}
	if logSize == 0 {
		return nil, fmt.Errorf("predictor: spec %q: log must be >= 1", sp.String())
	}
	g := &graded{label: sp.String(), spec: sp}
	var pr *bimodal.Predictor
	g.rebuild = func() { pr = bimodal.New(logSize) }
	g.rebuild()
	g.predict = func(pc uint64) (bool, core.Class, core.Level) {
		c := pr.Counter(pc)
		class, level := gradeSaturating(c.Weak())
		return c.Taken(), class, level
	}
	g.update = func(pc uint64, taken bool) { pr.Update(pc, taken) }
	g.save = func(dst []byte) []byte { return pr.AppendState(dst) }
	g.load = func(r *statecodec.Reader) error { return pr.RestoreState(r) }
	return g, nil
}

// gradeSaturating grades a 2-bit-counter prediction: Smith's original
// storage-free estimate — a weak counter is low confidence, a saturated
// one high.
func gradeSaturating(weak bool) (core.Class, core.Level) {
	if weak {
		return core.LowConfBim, core.Low
	}
	return core.HighConfBim, core.High
}

// gradeBinary grades a binary high/not-high self-confidence estimate.
func gradeBinary(high bool) (core.Class, core.Level) {
	if high {
		return core.HighConfBim, core.High
	}
	return core.LowConfBim, core.Low
}

func buildPerceptron(sp Spec) (Backend, error) {
	if sp.Variant != "" {
		return nil, badVariant("perceptron", sp.Variant, nil)
	}
	p := newParams(sp)
	logSize := uint(p.uintP("log", 10, 20))
	hist := int(p.intP("hist", 31, 1, 256))
	if err := p.finish("perceptron", "log, hist"); err != nil {
		return nil, err
	}
	if logSize == 0 {
		return nil, fmt.Errorf("predictor: spec %q: log must be >= 1", sp.String())
	}
	g := &graded{label: sp.String(), spec: sp}
	var pr *perceptron.Predictor
	g.rebuild = func() { pr = perceptron.New(logSize, hist) }
	g.rebuild()
	g.predict = func(pc uint64) (bool, core.Class, core.Level) {
		pred := pr.Predict(pc)
		class, level := gradeBinary(pr.HighConfidence())
		return pred, class, level
	}
	g.update = func(pc uint64, taken bool) { pr.Update(pc, taken) }
	g.save = func(dst []byte) []byte { return pr.AppendState(dst) }
	g.load = func(r *statecodec.Reader) error { return pr.RestoreState(r) }
	return g, nil
}

func buildOGEHL(sp Spec) (Backend, error) {
	if sp.Variant != "" {
		return nil, badVariant("ogehl", sp.Variant, nil)
	}
	cfg := ogehl.DefaultConfig()
	p := newParams(sp)
	cfg.NumTables = int(p.intP("tables", int64(cfg.NumTables), 2, 16))
	cfg.LogSize = uint(p.uintP("log", uint64(cfg.LogSize), 24))
	cfg.CtrBits = uint(p.uintP("ctr", uint64(cfg.CtrBits), 6))
	cfg.MinHist = int(p.intP("minhist", int64(cfg.MinHist), 1, 1<<20))
	cfg.MaxHist = int(p.intP("maxhist", int64(cfg.MaxHist), 1, 1<<20))
	if err := p.finish("ogehl", "tables, log, ctr, minhist, maxhist"); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("predictor: spec %q: %w", sp.String(), err)
	}
	g := &graded{label: sp.String(), spec: sp}
	var pr *ogehl.Predictor
	g.rebuild = func() { pr = ogehl.New(cfg) }
	g.rebuild()
	g.predict = func(pc uint64) (bool, core.Class, core.Level) {
		pred := pr.Predict(pc)
		class, level := gradeBinary(pr.HighConfidence())
		return pred, class, level
	}
	g.update = func(pc uint64, taken bool) { pr.Update(pc, taken) }
	g.save = func(dst []byte) []byte { return pr.AppendState(dst) }
	g.load = func(r *statecodec.Reader) error { return pr.RestoreState(r) }
	return g, nil
}

// buildJRS builds the paper's JRS configuration: a standard-automaton
// TAGE of the variant's size whose raw predictions are graded by JRS
// miss-distance counters instead of the storage-free classes.
func buildJRS(sp Spec) (Backend, error) {
	cfg, err := tageBase(sp.Variant)
	if err != nil || sp.Variant == "custom" {
		return nil, badVariant("jrs", sp.Variant, []string{"16K", "64K", "256K"})
	}
	p := newParams(sp)
	estLog := uint(p.uintP("log", jrs.DefaultLogSize, 24))
	bits := uint(p.uintP("bits", jrs.DefaultCounterBits, 8))
	threshold := uint8(p.uintP("threshold", jrs.DefaultThreshold, 255))
	hist := uint(p.uintP("hist", uint64(estLog), 64))
	enhanced := p.boolP("enhanced", false)
	if err := p.finish("jrs", "log, bits, threshold, hist, enhanced"); err != nil {
		return nil, err
	}
	if estLog == 0 || bits == 0 {
		return nil, fmt.Errorf("predictor: spec %q: log and bits must be >= 1", sp.String())
	}
	g := &graded{label: sp.String(), spec: sp}
	var (
		pr       *core.Estimator
		est      *jrs.Estimator
		lastPred bool
	)
	g.rebuild = func() {
		pr = core.NewEstimator(cfg, core.Options{})
		est = jrs.New(estLog, bits, threshold, hist)
		if enhanced {
			est = est.Enhanced()
		}
	}
	g.rebuild()
	g.predict = func(pc uint64) (bool, core.Class, core.Level) {
		lastPred, _, _ = pr.Predict(pc)
		class, level := gradeBinary(est.HighConfidence(pc, lastPred))
		return lastPred, class, level
	}
	g.update = func(pc uint64, taken bool) {
		est.Update(pc, lastPred, taken)
		pr.Update(pc, taken)
	}
	g.save = func(dst []byte) []byte {
		dst = pr.AppendState(dst)
		return est.AppendState(dst)
	}
	g.load = func(r *statecodec.Reader) error {
		if err := pr.RestoreState(r); err != nil {
			return err
		}
		return est.RestoreState(r)
	}
	return g, nil
}

func buildLTAGE(sp Spec) (Backend, error) {
	cfg, err := tageBase(sp.Variant)
	if err != nil || sp.Variant == "custom" {
		return nil, badVariant("ltage", sp.Variant, []string{"16K", "64K", "256K"})
	}
	loopCfg := looppred.DefaultConfig()
	p := newParams(sp)
	window := int(p.intP("window", 0, math.MinInt32, math.MaxInt32))
	loopCfg.LogSize = uint(p.uintP("llog", uint64(loopCfg.LogSize), 16))
	loopCfg.TagBits = uint(p.uintP("ltag", uint64(loopCfg.TagBits), 16))
	loopCfg.MaxTrip = uint16(p.uintP("maxtrip", uint64(loopCfg.MaxTrip), math.MaxUint16))
	loopCfg.ConfMax = uint8(p.uintP("lconf", uint64(loopCfg.ConfMax), 7))
	if err := p.finish("ltage", "window, llog, ltag, maxtrip, lconf"); err != nil {
		return nil, err
	}
	switch {
	case window < 0:
		window = 0
	case window == 0:
		window = core.DefaultBimWindow
	}
	g := &graded{label: sp.String(), spec: sp}
	var (
		lt  *looppred.LTAGE
		cls *core.Classifier
	)
	g.rebuild = func() {
		lt = looppred.NewLTAGE(cfg, loopCfg)
		cls = core.NewClassifierWindow(cfg, window)
	}
	g.rebuild()
	g.predict = func(pc uint64) (bool, core.Class, core.Level) {
		pred := lt.Predict(pc)
		if lt.UsedLoop() {
			// The loop predictor only predicts after ConfMax identical
			// trips under a non-negative WITHLOOP — the loop-predictor
			// analogue of a saturated provider.
			return pred, core.Stag, core.High
		}
		class := cls.Classify(lt.Observation())
		return pred, class, class.Level()
	}
	g.update = func(pc uint64, taken bool) {
		cls.Resolve(lt.Observation(), taken)
		lt.Update(pc, taken)
	}
	g.save = func(dst []byte) []byte {
		dst = lt.AppendState(dst)
		return cls.AppendState(dst)
	}
	g.load = func(r *statecodec.Reader) error {
		if err := lt.RestoreState(r); err != nil {
			return err
		}
		return cls.RestoreState(r)
	}
	return g, nil
}
