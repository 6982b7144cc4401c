package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricKind discriminates the entries a Registry holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them as Prometheus text
// exposition format 0.0.4. Registration is not hot-path code (do it at
// construction time); the registered metrics themselves are.
//
// Families render in registration order, then collectors in
// registration order — a stable exposition that diffs cleanly between
// scrapes.
type Registry struct {
	metrics    []metric
	names      map[string]bool
	collectors []func(*TextWriter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// validName is the Prometheus metric-name grammar.
//
//repro:deterministic
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) claim(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.claim(name)
	c := &Counter{}
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.claim(name)
	g := &Gauge{}
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a new histogram. The exposition emits
// cumulative le buckets in seconds plus _sum and _count, per the
// Prometheus histogram convention.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.claim(name)
	h := &Histogram{}
	r.metrics = append(r.metrics, metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// Collect registers a scrape-time callback for composite metric sources
// (an engine snapshot, runtime.MemStats) that produce whole families at
// once through the TextWriter. Each callback starts with no family open.
func (r *Registry) Collect(fn func(*TextWriter)) {
	r.collectors = append(r.collectors, fn)
}

// WriteText renders the full exposition to w. It returns the first
// write error or exposition misuse (see TextWriter); output stops
// there.
//
//repro:deterministic
func (r *Registry) WriteText(w io.Writer) error {
	tw := &TextWriter{w: w, buf: make([]byte, 0, 256), names: map[string]bool{}, series: map[string]bool{}}
	for i := range r.metrics {
		m := &r.metrics[i]
		switch m.kind {
		case kindCounter:
			tw.Family(m.name, "counter", m.help)
			tw.Value(float64(m.counter.Value()))
		case kindGauge:
			tw.Family(m.name, "gauge", m.help)
			tw.Value(float64(m.gauge.Value()))
		case kindHistogram:
			tw.open(m.name, "histogram", m.help)
			writeHistogram(tw, m.hist)
		}
	}
	for _, fn := range r.collectors {
		tw.family = ""
		fn(tw)
	}
	return tw.err
}

// writeHistogram emits the open histogram family's cumulative bucket
// series in seconds, then _sum and _count. Only occupied buckets get a
// line (the cumulative encoding makes skipped empties implicit); +Inf
// always closes the series.
//
//repro:deterministic
func writeHistogram(tw *TextWriter, h *Histogram) {
	var buckets [NumBuckets]uint64
	total := h.snapshot(&buckets)
	sum := h.sum.Load()
	var cum uint64
	lastLe := math.Inf(-1)
	for i := range buckets {
		if buckets[i] == 0 {
			continue
		}
		cum += buckets[i]
		// Inclusive integer bound -> exclusive-style le in seconds.
		le := float64(BucketBound(i)) / 1e9
		if le <= lastLe {
			// Two huge adjacent bounds collapsed to one float64; the
			// cumulative count of the later bucket subsumes this one.
			continue
		}
		lastLe = le
		tw.sample("_bucket", float64(cum), "le", formatValue(le))
	}
	tw.sample("_bucket", float64(total), "le", "+Inf")
	tw.sample("_sum", float64(sum)/1e9)
	tw.sample("_count", float64(total))
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// TextWriter emits the exposition one family at a time: Family opens a
// family and writes its # HELP and # TYPE header, and Value and ValueL
// write samples of the open family under its name. Well-formedness is
// the writer's job, not a parser's after the fact. Errors stick: the
// first write failure, or the first misuse, stops all further output,
// and Registry.WriteText returns it. Misuse is an invalid or repeated
// family name, an unknown type, a sample with no open family, an
// invalid or repeated label key, or a label set repeated within one
// family.
type TextWriter struct {
	w   io.Writer
	buf []byte
	err error

	family string          // the open family ("" when none is)
	names  map[string]bool // every family and histogram series name written
	series map[string]bool // label sets written in the open family
}

//repro:deterministic
func (t *TextWriter) flush() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// Family opens a metric family and emits its # HELP and # TYPE header.
// typ is counter, gauge or untyped; histograms are registered with
// Registry.Histogram, which writes their series itself.
//
//repro:deterministic
func (t *TextWriter) Family(name, typ, help string) {
	switch typ {
	case "counter", "gauge", "untyped":
		t.open(name, typ, help)
	default:
		t.fail("family %q has type %q, not counter, gauge or untyped", name, typ)
	}
}

// open is Family for any type. A histogram family also claims its
// _bucket, _sum and _count series names.
//
//repro:deterministic
func (t *TextWriter) open(name, typ, help string) {
	if t.err != nil {
		return
	}
	if !validName(name) {
		t.fail("invalid family name %q", name)
		return
	}
	claimed := []string{name}
	if typ == "histogram" {
		claimed = append(claimed, name+"_bucket", name+"_sum", name+"_count")
	}
	for _, n := range claimed {
		if t.names[n] {
			t.fail("family %q written twice", n)
			return
		}
		t.names[n] = true
	}
	t.family = name
	clear(t.series)
	t.buf = append(t.buf, "# HELP "...)
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, ' ')
	t.buf = appendEscapedHelp(t.buf, help)
	t.buf = append(t.buf, "\n# TYPE "...)
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, typ...)
	t.buf = append(t.buf, '\n')
	t.flush()
}

// Value emits an unlabeled sample of the open family.
//
//repro:deterministic
func (t *TextWriter) Value(v float64) { t.sample("", v) }

// ValueL emits a sample of the open family with labels given as
// alternating key, value pairs.
//
//repro:deterministic
func (t *TextWriter) ValueL(v float64, kv ...string) { t.sample("", v, kv...) }

// sample emits one sample of the open family, its name extended by
// suffix (a histogram's _bucket, _sum or _count).
//
//repro:deterministic
func (t *TextWriter) sample(suffix string, v float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("obs: ValueL needs alternating key, value pairs")
	}
	if t.err != nil {
		return
	}
	if t.family == "" {
		t.fail("sample written with no open family")
		return
	}
	key, msg := seriesKey(suffix, kv)
	if msg != "" {
		t.fail("family %q: %s", t.family, msg)
		return
	}
	if t.series[key] {
		t.fail("series %s%s written twice", t.family, key)
		return
	}
	t.series[key] = true
	t.buf = append(t.buf, t.family...)
	t.buf = append(t.buf, suffix...)
	if len(kv) > 0 {
		t.buf = append(t.buf, '{')
		for i := 0; i < len(kv); i += 2 {
			if i > 0 {
				t.buf = append(t.buf, ',')
			}
			t.buf = append(t.buf, kv[i]...)
			t.buf = append(t.buf, '=', '"')
			t.buf = appendEscapedLabel(t.buf, kv[i+1])
			t.buf = append(t.buf, '"')
		}
		t.buf = append(t.buf, '}')
	}
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, formatValue(v)...)
	t.buf = append(t.buf, '\n')
	t.flush()
}

// fail records a misuse unless an earlier error already stuck.
//
//repro:deterministic
func (t *TextWriter) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("obs: "+format, args...)
	}
}

// seriesKey names a sample's series within its family: the name suffix
// plus the label pairs sorted by key, so one label set written in two
// orders is one series. It returns a problem description instead for an
// invalid or repeated label key.
//
//repro:deterministic
func seriesKey(suffix string, kv []string) (key, problem string) {
	pairs := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validLabelName(kv[i]) {
			return "", fmt.Sprintf("invalid label key %q", kv[i])
		}
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	b := []byte(suffix)
	sep := byte('{')
	for i, p := range pairs {
		if i > 0 && p[0] == pairs[i-1][0] {
			return "", fmt.Sprintf("label key %q repeated", p[0])
		}
		b = append(b, sep)
		sep = ','
		b = append(b, p[0]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, p[1])
	}
	if len(pairs) > 0 {
		b = append(b, '}')
	}
	return string(b), ""
}

// validLabelName is the Prometheus label-name grammar (no colons).
//
//repro:deterministic
func validLabelName(name string) bool {
	return validName(name) && !strings.Contains(name, ":")
}

// formatValue renders a sample value. Integral values print without an
// exponent or decimal point so shell-side awk comparisons in the smoke
// scripts ('test "$v" -gt 0') keep working on large counters.
//
//repro:deterministic
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// appendEscapedHelp escapes a HELP docstring (backslash and newline).
//
//repro:deterministic
func appendEscapedHelp(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// appendEscapedLabel escapes a label value (backslash, quote, newline).
//
//repro:deterministic
func appendEscapedLabel(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// RegisterRuntimeMetrics adds process-level gauges (goroutines, heap,
// GC) to r as a single collector so one scrape pays one ReadMemStats.
func RegisterRuntimeMetrics(r *Registry) {
	r.Collect(func(tw *TextWriter) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		tw.Family("tage_process_goroutines", "gauge", "Live goroutine count.")
		tw.Value(float64(runtime.NumGoroutine()))
		tw.Family("tage_process_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
		tw.Value(float64(ms.HeapAlloc))
		tw.Family("tage_process_heap_objects", "gauge", "Live heap objects.")
		tw.Value(float64(ms.HeapObjects))
		tw.Family("tage_process_gc_cycles_total", "counter", "Completed GC cycles.")
		tw.Value(float64(ms.NumGC))
		tw.Family("tage_process_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.")
		tw.Value(float64(ms.PauseTotalNs) / 1e9)
	})
}
