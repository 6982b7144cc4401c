package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRegistryExposition renders a registry with every metric kind and
// pins the exposition byte for byte, up to the runtime gauges, whose
// values move: integral formatting (the CI smoke compares counter values
// with shell arithmetic), label escaping, and every histogram line —
// each cumulative bucket, the +Inf bucket, _sum and _count.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	g := r.Gauge("test_inflight", "Batches in flight.")
	h := r.Histogram("test_latency_seconds", "Serve latency.")
	r.Collect(func(tw *TextWriter) {
		tw.Family("test_by_label_total", "counter", "Labeled counter.")
		tw.ValueL(7, "backend", `we"ird\label`+"\n")
		tw.ValueL(2, "backend", "plain")
	})
	RegisterRuntimeMetrics(r)

	c.Add(3_400_000) // would print as 3.4e+06 under %g
	g.Set(-2)
	h.Observe(1500 * time.Nanosecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	const want = `# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 3400000
# HELP test_inflight Batches in flight.
# TYPE test_inflight gauge
test_inflight -2
# HELP test_latency_seconds Serve latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.000001535"} 1
test_latency_seconds_bucket{le="0.002097151"} 3
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 0.0040015
test_latency_seconds_count 3
# HELP test_by_label_total Labeled counter.
# TYPE test_by_label_total counter
test_by_label_total{backend="we\"ird\\label\n"} 7
test_by_label_total{backend="plain"} 2
`
	runtime := strings.Index(text, "# HELP tage_process_goroutines ")
	if runtime < 0 || text[:runtime] != want {
		t.Fatalf("exposition:\n%s\nwant prefix:\n%s", text, want)
	}
	for _, family := range []string{
		"tage_process_goroutines gauge",
		"tage_process_heap_alloc_bytes gauge",
		"tage_process_heap_objects gauge",
		"tage_process_gc_cycles_total counter",
		"tage_process_gc_pause_seconds_total counter",
	} {
		if strings.Count(text, "# TYPE "+family+"\n") != 1 {
			t.Errorf("runtime family %q not written once in:\n%s", family, text)
		}
	}
}

// TestLintClean writes a well-formed document exercising every shape
// the registry emits — a counter, a gauge, an untyped family with
// several escaped labels, and a histogram — and requires the writer to
// accept it and render it exactly.
func TestLintClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "Requests.").Add(12)
	r.Gauge("x_gauge", "").Set(-3)
	h := r.Histogram("h_seconds", "Latency.")
	r.Collect(func(tw *TextWriter) {
		tw.Family("x_untyped", "untyped", `Free "form" \ help`+"\n")
		tw.ValueL(4.5e-3, "a", "1", "b", `two "quoted" \ thing`+"\n")
		tw.ValueL(5, "a", "2")
		tw.Value(6)
	})
	h.Observe(1500 * time.Nanosecond)
	h.Observe(1600 * time.Nanosecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Second)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("clean document flagged: %v", err)
	}
	// An empty HELP keeps its separating space.
	const want = `# HELP x_total Requests.
# TYPE x_total counter
x_total 12
` + "# HELP x_gauge \n" + `# TYPE x_gauge gauge
x_gauge -3
# HELP h_seconds Latency.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.000001535"} 1
h_seconds_bucket{le="0.000001663"} 2
h_seconds_bucket{le="0.002097151"} 3
h_seconds_bucket{le="3.221225471"} 4
h_seconds_bucket{le="+Inf"} 4
h_seconds_sum 3.0020031
h_seconds_count 4
# HELP x_untyped Free "form" \\ help\n
# TYPE x_untyped untyped
x_untyped{a="1",b="two \"quoted\" \\ thing\n"} 0.0045
x_untyped{a="2"} 5
x_untyped 6
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// scrape renders a registry holding one histogram, h, and one
// collector, fn.
func scrape(fn func(*TextWriter)) (string, error) {
	r := NewRegistry()
	r.Histogram("h", "")
	r.Collect(fn)
	var sb strings.Builder
	err := r.WriteText(&sb)
	return sb.String(), err
}

// TestTextWriterErrors pins one writer error per misuse, and that
// output stops at the first one.
func TestTextWriterErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func(*TextWriter)
		want string
	}{
		{"invalid-family-name", func(tw *TextWriter) { tw.Family("9bad", "counter", "") }, `invalid family name "9bad"`},
		{"repeated-family", func(tw *TextWriter) {
			tw.Family("x", "counter", "")
			tw.Value(1)
			tw.Family("x", "gauge", "")
		}, `family "x" written twice`},
		{"histogram-series-name", func(tw *TextWriter) { tw.Family("h_count", "gauge", "") }, `family "h_count" written twice`},
		{"unknown-type", func(tw *TextWriter) { tw.Family("x", "wat", "") }, `type "wat"`},
		{"histogram-type", func(tw *TextWriter) { tw.Family("x", "histogram", "") }, `type "histogram"`},
		{"no-open-family", func(tw *TextWriter) { tw.Value(1) }, "no open family"},
		{"invalid-label-key", func(tw *TextWriter) {
			tw.Family("x", "counter", "")
			tw.ValueL(1, "9l", "v")
		}, `invalid label key "9l"`},
		{"colon-label-key", func(tw *TextWriter) {
			tw.Family("x", "counter", "")
			tw.ValueL(1, "a:b", "v")
		}, `invalid label key "a:b"`},
		{"repeated-label-key", func(tw *TextWriter) {
			tw.Family("x", "counter", "")
			tw.ValueL(1, "l", "a", "l", "b")
		}, `label key "l" repeated`},
		{"repeated-unlabeled-sample", func(tw *TextWriter) {
			tw.Family("x", "counter", "")
			tw.Value(1)
			tw.Value(2)
		}, "written twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			text, err := scrape(func(tw *TextWriter) {
				c.fn(tw)
				tw.Family("after", "counter", "")
				tw.Value(1)
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
			if strings.Contains(text, "after") {
				t.Fatalf("output continued past the error:\n%s", text)
			}
		})
	}

	r := NewRegistry()
	r.Counter("x_total", "")
	if err := r.WriteText(failingWriter{}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write failure: err = %v", err)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTextWriterDuplicateLabelSets requires distinct label sets to pass
// and one label set written twice, in either order, to fail.
func TestTextWriterDuplicateLabelSets(t *testing.T) {
	if _, err := scrape(func(tw *TextWriter) {
		tw.Family("x", "counter", "")
		tw.ValueL(1, "a", "1", "b", "2")
		tw.ValueL(1, "a", "2", "b", "1")
		tw.ValueL(1, "a", "1")
		tw.Value(1)
		tw.Family("y", "counter", "")
		tw.ValueL(1, "a", "1", "b", "2") // same set, new family
	}); err != nil {
		t.Fatalf("distinct series rejected: %v", err)
	}
	_, err := scrape(func(tw *TextWriter) {
		tw.Family("x", "counter", "")
		tw.ValueL(1, "a", "1", "b", "2")
		tw.ValueL(1, "b", "2", "a", "1")
	})
	if err == nil || !strings.Contains(err.Error(), `series x{a="1",b="2"} written twice`) {
		t.Fatalf("same set, other order: err = %v", err)
	}
}

// TestRegistryPanics pins registration misuse.
func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "")
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.Counter("ok_total", "") },
		"invalid-name": func() { r.Gauge("bad name", "") },
		"digit-start":  func() { r.Counter("9lives", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFlightRecorderRing pins ring semantics: retention, overwrite
// order, Tail, and the nil no-op contract.
func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Event{Kind: EvBatch, Session: uint64(i)})
	}
	if r.Total() != 6 || r.Len() != 4 {
		t.Fatalf("total=%d len=%d, want 6, 4", r.Total(), r.Len())
	}
	snap := r.Snapshot()
	for i, want := range []uint64{3, 4, 5, 6} {
		if snap[i].Session != want {
			t.Fatalf("snapshot[%d].Session = %d, want %d (oldest first)", i, snap[i].Session, want)
		}
	}
	tail := r.Tail(2)
	if len(tail) != 2 || tail[0].Session != 5 || tail[1].Session != 6 {
		t.Fatalf("Tail(2) = %+v", tail)
	}

	var nilRec *FlightRecorder
	nilRec.Record(Event{Kind: EvShed}) // must not panic
	if nilRec.Len() != 0 || nilRec.Total() != 0 || nilRec.Tail(3) != nil {
		t.Fatal("nil recorder not inert")
	}
	var sb strings.Builder
	if err := nilRec.WriteText(&sb); err != nil || !strings.Contains(sb.String(), "disabled") {
		t.Fatalf("nil WriteText: %v %q", err, sb.String())
	}
}

// TestFlightRecorderText pins the /debug/events dump format: kind=,
// conn=, sess=, key=, cause= fields with zero fields omitted.
func TestFlightRecorderText(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Event{
		UnixNano: time.Date(2026, 8, 7, 12, 0, 0, 500, time.UTC).UnixNano(),
		Kind:     EvBatch,
		Conn:     3,
		Session:  17,
		Key:      "cbp/trace-1",
		Backend:  "64Kbits",
		Frame:    0x03,
		Batch:    512,
		QueueNS:  1500,
		ServeNS:  250_000,
		FlushNS:  90_000,
	})
	r.Record(Event{Kind: EvSlowPeerEvict, Conn: 3, Session: 17, Cause: "mid-frame stall"})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# flight recorder: 2 events recorded, showing last 2 (oldest first)",
		"2026-08-07T12:00:00.000000500Z kind=batch conn=3 sess=17 key=\"cbp/trace-1\" backend=\"64Kbits\" frame=0x03 n=512 queue=1.5µs serve=250µs flush=90µs",
		"kind=slow-peer-evict conn=3 sess=17 cause=\"mid-frame stall\"",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q in:\n%s", want, text)
		}
	}
	// A zero event renders only timestamp and kind.
	line := Event{Kind: EvShed}.appendText(nil)
	if got := string(line); strings.ContainsAny(got, "{}") || strings.Contains(got, "conn=") {
		t.Fatalf("zero fields leaked into %q", got)
	}
}

// TestEventKindNames keeps every kind printable.
func TestEventKindNames(t *testing.T) {
	for k := EvNone; k <= EvRestoreFail; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind not handled")
	}
}
