// Package predictor is the backend-agnostic estimator layer: a small
// Backend contract every predictor family in this repository satisfies
// (predict, train, reset, self-description), a string spec grammar that
// names a backend instance ("tage-64K?mode=adaptive&mkp=4",
// "bimodal-64K", "perceptron"), and a registry that builds a Backend from
// a parsed Spec.
//
// The spec grammar is
//
//	spec    := family [ "-" variant ] [ "?" params ]
//	family  := lowercase letters and digits, starting with a letter
//	variant := letters, digits, '.', '_' and '-' (e.g. "64K")
//	params  := key "=" value { "&" key "=" value }
//
// A parsed Spec is canonical — parameters are sorted by key and
// duplicate keys are rejected — and comparable: two Specs are equal
// exactly when their canonical strings are equal, which is what lets
// callers key caches by Spec without hand-maintaining field lists.
// Parse(sp.String()) returns sp unchanged for every valid spec.
//
// Families, their variants and their parameters are documented by the
// registry (Families); unknown families, variants and parameter keys are
// build-time errors that list the valid choices.
package predictor

import (
	"fmt"
	"sort"
	"strings"
)

// MaxSpecLen bounds a spec string; longer inputs are rejected before any
// further parsing (the serve wire protocol carries specs verbatim, so
// the parser is exposed to remote input).
const MaxSpecLen = 256

// Param is one key=value spec parameter.
type Param struct {
	Key   string
	Value string
}

// Spec is the parsed, canonical form of a backend spec string. The zero
// Spec is invalid. Specs are comparable (usable as map keys) and two
// Specs compare equal exactly when they denote the same canonical spec
// string.
type Spec struct {
	// Family is the backend family name ("tage", "bimodal", ...).
	Family string
	// Variant is the optional family-defined variant ("64K", ...).
	Variant string

	// params holds the canonically encoded parameters: sorted by key,
	// joined with '&', values escaped. Kept encoded so Spec stays
	// comparable.
	params string
}

// valueNeedsEscape reports whether a byte cannot travel verbatim in a
// parameter value: the grammar's structural characters, '%' itself, and
// anything outside printable ASCII (matching validRawValue, so every
// escaped value is a valid raw value and Parse(sp.String()) == sp holds
// for arbitrary values, not just well-behaved ones).
func valueNeedsEscape(c byte) bool {
	return c <= ' ' || c > '~' || c == '%' || c == '&' || c == '=' || c == '?'
}

const hexDigits = "0123456789ABCDEF"

// escapeValue makes a parameter value safe to embed in a spec string by
// %XX-escaping every byte valueNeedsEscape flags.
func escapeValue(v string) string {
	needs := false
	for i := 0; i < len(v); i++ {
		if valueNeedsEscape(v[i]) {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if valueNeedsEscape(c) {
			b.WriteByte('%')
			b.WriteByte(hexDigits[c>>4])
			b.WriteByte(hexDigits[c&0xF])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

func unescapeValue(v string) (string, error) {
	if !strings.Contains(v, "%") {
		return v, nil
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '%' {
			b.WriteByte(v[i])
			continue
		}
		if i+2 >= len(v) {
			return "", fmt.Errorf("truncated %%-escape in value %q", v)
		}
		hi, ok1 := unhex(v[i+1])
		lo, ok2 := unhex(v[i+2])
		if !ok1 || !ok2 {
			return "", fmt.Errorf("bad %%-escape %q in value %q", v[i:i+3], v)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func validFamily(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validVariant(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return s != ""
}

func validParamKey(s string) bool { return validFamily(s) }

// validRawValue checks an escaped parameter value as it appears in the
// spec string: printable ASCII excluding the grammar's structural
// characters (which must travel escaped).
func validRawValue(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '&' || c == '=' || c == '?' {
			return false
		}
	}
	return true
}

// Parse parses a spec string into its canonical Spec. Malformed specs —
// empty or oversized input, bad family/variant/key syntax, empty
// segments, duplicate keys — return an error; Parse never panics.
// Family, variant and parameter keys are validated syntactically only:
// whether they exist is the registry's job (Build).
func Parse(spec string) (Spec, error) {
	if spec == "" {
		return Spec{}, fmt.Errorf("predictor: empty spec")
	}
	if len(spec) > MaxSpecLen {
		return Spec{}, fmt.Errorf("predictor: spec longer than %d bytes", MaxSpecLen)
	}
	head, rawParams, hasParams := strings.Cut(spec, "?")
	family, variant, hasVariant := strings.Cut(head, "-")
	if !validFamily(family) {
		return Spec{}, fmt.Errorf("predictor: invalid spec %q: family must be lowercase letters/digits starting with a letter", spec)
	}
	if hasVariant && !validVariant(variant) {
		return Spec{}, fmt.Errorf("predictor: invalid spec %q: bad variant %q", spec, variant)
	}
	sp := Spec{Family: family, Variant: variant}
	if !hasParams {
		return sp, nil
	}
	if rawParams == "" {
		return Spec{}, fmt.Errorf("predictor: invalid spec %q: empty parameter list after '?'", spec)
	}
	var params []Param
	for _, seg := range strings.Split(rawParams, "&") {
		key, val, ok := strings.Cut(seg, "=")
		if !ok || !validParamKey(key) || !validRawValue(val) {
			return Spec{}, fmt.Errorf("predictor: invalid spec %q: bad parameter %q (want key=value)", spec, seg)
		}
		unesc, err := unescapeValue(val)
		if err != nil {
			return Spec{}, fmt.Errorf("predictor: invalid spec %q: %v", spec, err)
		}
		params = append(params, Param{Key: key, Value: unesc})
	}
	sort.SliceStable(params, func(i, j int) bool { return params[i].Key < params[j].Key })
	for i := 1; i < len(params); i++ {
		if params[i].Key == params[i-1].Key {
			return Spec{}, fmt.Errorf("predictor: invalid spec %q: duplicate parameter %q", spec, params[i].Key)
		}
	}
	sp.params = encodeParams(params)
	return sp, nil
}

// MustParse is Parse for known-good literals (tests, tables); it panics
// on error.
func MustParse(spec string) Spec {
	sp, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return sp
}

func encodeParams(params []Param) string {
	var b strings.Builder
	for i, p := range params {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(escapeValue(p.Value))
	}
	return b.String()
}

// String returns the canonical spec string. Parse(sp.String()) == sp for
// every Spec produced by Parse or the Spec constructors.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Family)
	if s.Variant != "" {
		b.WriteByte('-')
		b.WriteString(s.Variant)
	}
	if s.params != "" {
		b.WriteByte('?')
		b.WriteString(s.params)
	}
	return b.String()
}

// Params returns the decoded parameters in canonical (key-sorted) order.
func (s Spec) Params() []Param {
	if s.params == "" {
		return nil
	}
	segs := strings.Split(s.params, "&")
	out := make([]Param, 0, len(segs))
	for _, seg := range segs {
		key, val, _ := strings.Cut(seg, "=")
		unesc, err := unescapeValue(val)
		if err != nil {
			// The encoded form is produced by this package; an undecodable
			// segment is a programming error, not an input error.
			panic(fmt.Sprintf("predictor: corrupt canonical params %q: %v", s.params, err))
		}
		out = append(out, Param{Key: key, Value: unesc})
	}
	return out
}

// Param returns the value of the named parameter and whether it is set.
func (s Spec) Param(key string) (string, bool) {
	for _, p := range s.Params() {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// MakeSpec builds a canonical Spec from parts, validating syntax exactly
// as Parse does.
func MakeSpec(family, variant string, params []Param) (Spec, error) {
	if !validFamily(family) {
		return Spec{}, fmt.Errorf("predictor: bad family %q", family)
	}
	if variant != "" && !validVariant(variant) {
		return Spec{}, fmt.Errorf("predictor: bad variant %q", variant)
	}
	sp := Spec{Family: family, Variant: variant}
	sorted := append([]Param(nil), params...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i, p := range sorted {
		if !validParamKey(p.Key) {
			return Spec{}, fmt.Errorf("predictor: bad parameter key %q", p.Key)
		}
		if p.Value == "" {
			return Spec{}, fmt.Errorf("predictor: empty value for parameter %q", p.Key)
		}
		if i > 0 && p.Key == sorted[i-1].Key {
			return Spec{}, fmt.Errorf("predictor: duplicate parameter %q", p.Key)
		}
	}
	sp.params = encodeParams(sorted)
	if len(sp.String()) > MaxSpecLen {
		return Spec{}, fmt.Errorf("predictor: spec longer than %d bytes", MaxSpecLen)
	}
	return sp, nil
}
