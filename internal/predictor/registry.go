package predictor

import (
	"fmt"
	"sort"
	"strings"
)

// Family describes one registered backend family.
type Family struct {
	// Name is the family's spec name ("tage", "bimodal", ...).
	Name string
	// Summary is a one-line description for listings and docs.
	Summary string
	// Paper cites the predictor's origin (reference or paper section).
	Paper string
	// Variants lists the named variants the family accepts (empty when
	// the family takes no variant).
	Variants []string
	// ParamsHelp is a short human-readable list of accepted parameter
	// keys for error messages and listings.
	ParamsHelp string
	// Build constructs a backend from a parsed spec of this family.
	Build func(Spec) (Backend, error)
}

var registry = map[string]Family{}

// RegisterFamily adds a family to the registry. It panics on duplicate
// or syntactically invalid names — registration happens at package init,
// where a bad entry is a programming error.
func RegisterFamily(f Family) {
	if !validFamily(f.Name) {
		panic(fmt.Sprintf("predictor: invalid family name %q", f.Name))
	}
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("predictor: duplicate family %q", f.Name))
	}
	if f.Build == nil {
		panic(fmt.Sprintf("predictor: family %q has no builder", f.Name))
	}
	registry[f.Name] = f
}

// Families returns every registered family, sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames returns the sorted registered family names.
func FamilyNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build constructs a backend from a parsed spec. Unknown families error
// with the list of registered names; unknown variants and parameters are
// reported by the family builder with its valid choices.
func Build(sp Spec) (Backend, error) {
	f, ok := registry[sp.Family]
	if !ok {
		return nil, fmt.Errorf("predictor: unknown backend family %q (registered: %s)",
			sp.Family, strings.Join(FamilyNames(), ", "))
	}
	return f.Build(sp)
}

// New parses a spec string and builds its backend, returning the
// canonical Spec alongside.
func New(spec string) (Backend, Spec, error) {
	sp, err := Parse(spec)
	if err != nil {
		return nil, Spec{}, err
	}
	b, err := Build(sp)
	if err != nil {
		return nil, Spec{}, err
	}
	return b, sp, nil
}

// params is the builder-side parameter reader: typed accessors consume
// keys, and finish() rejects any key the family did not consume — a typo
// in a spec is an error, never a silent default.
type params struct {
	sp   Spec
	used map[string]bool
	errs []string
}

func newParams(sp Spec) *params {
	return &params{sp: sp, used: make(map[string]bool)}
}

func (p *params) raw(key string) (string, bool) {
	v, ok := p.sp.Param(key)
	if ok {
		p.used[key] = true
	}
	return v, ok
}

func (p *params) fail(key, val, want string) {
	p.errs = append(p.errs, fmt.Sprintf("parameter %s=%q: want %s", key, val, want))
}

// uintP reads an unsigned integer parameter (base 10, or 0x-prefixed
// hex) bounded by max.
func (p *params) uintP(key string, def, max uint64) uint64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	n, err := parseUint(v)
	if err != nil || n > max {
		p.fail(key, v, fmt.Sprintf("an integer in [0, %d]", max))
		return def
	}
	return n
}

// intP reads a signed integer parameter in [min, max].
func (p *params) intP(key string, def, min, max int64) int64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	n, err := parseInt(v)
	if err != nil || n < min || n > max {
		p.fail(key, v, fmt.Sprintf("an integer in [%d, %d]", min, max))
		return def
	}
	return n
}

// floatP reads a finite non-negative float parameter.
func (p *params) floatP(key string, def float64) float64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	f, err := parseFloat(v)
	if err != nil {
		p.fail(key, v, "a finite non-negative number")
		return def
	}
	return f
}

// boolP reads a boolean parameter (true/false/1/0).
func (p *params) boolP(key string, def bool) bool {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	switch v {
	case "true", "1":
		return true
	case "false", "0":
		return false
	default:
		p.fail(key, v, "true or false")
		return def
	}
}

// stringP reads a free-form string parameter.
func (p *params) stringP(key, def string) string {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	return v
}

// intsP reads a comma-separated integer list parameter.
func (p *params) intsP(key string, def []int) []int {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	segs := strings.Split(v, ",")
	out := make([]int, 0, len(segs))
	for _, seg := range segs {
		n, err := parseInt(seg)
		if err != nil || n < -1<<30 || n > 1<<30 {
			p.fail(key, v, "a comma-separated integer list")
			return def
		}
		out = append(out, int(n))
	}
	return out
}

// finish validates that every parameter was consumed and returns the
// accumulated errors, listing the accepted keys on an unknown one.
func (p *params) finish(family string, accepted string) error {
	for _, param := range p.sp.Params() {
		if !p.used[param.Key] {
			p.errs = append(p.errs, fmt.Sprintf("unknown parameter %q (accepted: %s)", param.Key, accepted))
		}
	}
	if len(p.errs) == 0 {
		return nil
	}
	return fmt.Errorf("predictor: spec %q: %s", p.sp.String(), strings.Join(p.errs, "; "))
}
