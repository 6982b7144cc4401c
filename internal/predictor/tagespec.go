package predictor

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tage"
)

// TAGESpec encodes a (tage.Config, core.Options) pair as a canonical
// tage-family Spec: the named paper configurations become their variant
// ("16K", "64K", "256K"), every field that deviates from the variant's
// value becomes its own losslessly formatted parameter, and
// configurations with an unknown name use the "custom" variant with
// every non-zero field spelled out.
//
// The encoding is injective — distinct (config, options) pairs always
// produce distinct Specs — which is what makes a Spec-keyed cache
// collision-proof by construction (the property the experiments runner
// relies on, replacing its hand-maintained key field list). It also
// round-trips: Build(TAGESpec(cfg, opts)) constructs the identical
// estimator core.NewEstimator(cfg, opts) does.
func TAGESpec(cfg tage.Config, opts core.Options) Spec {
	variant, base := tageVariantFor(cfg.Name)
	var params []Param
	add := func(key, value string) { params = append(params, Param{Key: key, Value: value}) }
	if cfg.Name != base.Name {
		add("name", cfg.Name)
	}
	if cfg.BimodalLog != base.BimodalLog {
		add("bl", strconv.FormatUint(uint64(cfg.BimodalLog), 10))
	}
	if cfg.TaggedLog != base.TaggedLog {
		add("tl", strconv.FormatUint(uint64(cfg.TaggedLog), 10))
	}
	if cfg.TagBits != base.TagBits {
		add("tag", strconv.FormatUint(uint64(cfg.TagBits), 10))
	}
	if !intsEqual(cfg.HistLengths, base.HistLengths) {
		add("hist", formatInts(cfg.HistLengths))
	}
	if cfg.CtrBits != base.CtrBits {
		add("ctr", strconv.FormatUint(uint64(cfg.CtrBits), 10))
	}
	if cfg.UBits != base.UBits {
		add("u", strconv.FormatUint(uint64(cfg.UBits), 10))
	}
	if cfg.PathBits != base.PathBits {
		add("path", strconv.FormatUint(uint64(cfg.PathBits), 10))
	}
	if cfg.UResetPeriod != base.UResetPeriod {
		add("urp", strconv.FormatUint(cfg.UResetPeriod, 10))
	}
	if cfg.Seed != base.Seed {
		add("seed", strconv.FormatUint(cfg.Seed, 10))
	}
	if cfg.DisableUseAltOnNA != base.DisableUseAltOnNA {
		add("noalt", strconv.FormatBool(cfg.DisableUseAltOnNA))
	}
	return tageSpec(variant, appendOptionParams(params, opts))
}

// TAGEVariantSpec is the tage-family spec string for a variant name and
// estimator options: "tage-<variant>" plus the Options parameters
// TAGESpec would emit. The variant is passed through unresolved, so an
// unknown name still fails where the spec is built, with the registry's
// error.
func TAGEVariantSpec(variant string, opts core.Options) string {
	return tageSpec(variant, appendOptionParams(nil, opts)).String()
}

// appendOptionParams appends one parameter per non-zero Options field:
// the Options half of the TAGESpec encoding.
func appendOptionParams(params []Param, opts core.Options) []Param {
	add := func(key, value string) { params = append(params, Param{Key: key, Value: value}) }
	if opts.Mode != core.ModeStandard {
		add("mode", opts.Mode.String())
	}
	if opts.DenomLog != 0 {
		add("denomlog", strconv.FormatUint(uint64(opts.DenomLog), 10))
	}
	if opts.BimWindow != 0 {
		add("window", strconv.FormatInt(int64(opts.BimWindow), 10))
	}
	if opts.TargetMKP != 0 {
		add("mkp", strconv.FormatFloat(opts.TargetMKP, 'g', -1, 64))
	}
	if opts.AdaptiveWindow != 0 {
		add("awindow", strconv.FormatUint(opts.AdaptiveWindow, 10))
	}
	return params
}

// tageSpec assembles a tage-family Spec from unique parameters.
// Constructed directly rather than through MakeSpec: the encodings
// above emit unique keys and a cache key must never fail. Sorting
// matches the canonical order Parse produces.
func tageSpec(variant string, params []Param) Spec {
	sp := Spec{Family: "tage", Variant: variant}
	sort.SliceStable(params, func(i, j int) bool { return params[i].Key < params[j].Key })
	sp.params = encodeParams(params)
	return sp
}

// tageVariantFor maps a configuration name onto its canonical variant
// and the variant's base configuration (zero Config for "custom").
func tageVariantFor(name string) (string, tage.Config) {
	switch name {
	case "16Kbits":
		return "16K", tage.Small16K()
	case "64Kbits":
		return "64K", tage.Medium64K()
	case "256Kbits":
		return "256K", tage.Large256K()
	default:
		return "custom", tage.Config{}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func formatInts(v []int) string {
	var b strings.Builder
	for i, n := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}
