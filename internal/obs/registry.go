package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
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
// once through the TextWriter.
func (r *Registry) Collect(fn func(*TextWriter)) {
	r.collectors = append(r.collectors, fn)
}

// WriteText renders the full exposition to w and reports the first
// write error.
//repro:deterministic
func (r *Registry) WriteText(w io.Writer) error {
	tw := NewTextWriter(w)
	for i := range r.metrics {
		m := &r.metrics[i]
		switch m.kind {
		case kindCounter:
			tw.Family(m.name, "counter", m.help)
			tw.Value(m.name, float64(m.counter.Value()))
		case kindGauge:
			tw.Family(m.name, "gauge", m.help)
			tw.Value(m.name, float64(m.gauge.Value()))
		case kindHistogram:
			tw.Family(m.name, "histogram", m.help)
			writeHistogram(tw, m.name, m.hist)
		}
	}
	for _, fn := range r.collectors {
		fn(tw)
	}
	return tw.Err()
}

// writeHistogram emits the cumulative bucket series in seconds. Only
// occupied buckets get a line (the cumulative encoding makes skipped
// empties implicit); +Inf always closes the series.
//repro:deterministic
func writeHistogram(tw *TextWriter, name string, h *Histogram) {
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
		tw.ValueL(name+"_bucket", float64(cum), "le", formatValue(le))
	}
	tw.ValueL(name+"_bucket", float64(total), "le", "+Inf")
	tw.Value(name+"_sum", float64(sum)/1e9)
	tw.Value(name+"_count", float64(total))
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// TextWriter emits exposition lines with proper escaping. Errors stick:
// after the first write failure every call is a no-op and Err reports
// it.
type TextWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewTextWriter wraps w.
//repro:deterministic
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
//repro:deterministic
func (t *TextWriter) Err() error { return t.err }

//repro:deterministic
func (t *TextWriter) flush() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// Family emits the # HELP and # TYPE header for a metric family. typ is
// one of counter, gauge, histogram, summary or untyped.
//repro:deterministic
func (t *TextWriter) Family(name, typ, help string) {
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

// Value emits an unlabeled sample.
//repro:deterministic
func (t *TextWriter) Value(name string, v float64) {
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, formatValue(v)...)
	t.buf = append(t.buf, '\n')
	t.flush()
}

// ValueL emits a sample with labels given as alternating key, value
// pairs.
//repro:deterministic
func (t *TextWriter) ValueL(name string, v float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("obs: ValueL needs alternating key, value pairs")
	}
	t.buf = append(t.buf, name...)
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
	t.buf = append(t.buf, "} "...)
	t.buf = append(t.buf, formatValue(v)...)
	t.buf = append(t.buf, '\n')
	t.flush()
}

// formatValue renders a sample value. Integral values print without an
// exponent or decimal point so shell-side awk comparisons in the smoke
// scripts ('test "$v" -gt 0') keep working on large counters.
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
		tw.Value("tage_process_goroutines", float64(runtime.NumGoroutine()))
		tw.Family("tage_process_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
		tw.Value("tage_process_heap_alloc_bytes", float64(ms.HeapAlloc))
		tw.Family("tage_process_heap_objects", "gauge", "Live heap objects.")
		tw.Value("tage_process_heap_objects", float64(ms.HeapObjects))
		tw.Family("tage_process_gc_cycles_total", "counter", "Completed GC cycles.")
		tw.Value("tage_process_gc_cycles_total", float64(ms.NumGC))
		tw.Family("tage_process_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.")
		tw.Value("tage_process_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)
	})
}
