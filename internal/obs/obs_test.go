package obs

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryExposition renders a registry with every metric kind and
// requires the output to pass the package's own linter and contain the
// expected families with integral formatting (the smoke scripts compare
// counter values with shell arithmetic).
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	g := r.Gauge("test_inflight", "Batches in flight.")
	h := r.Histogram("test_latency_seconds", "Serve latency.")
	r.Collect(func(tw *TextWriter) {
		tw.Family("test_by_label_total", "counter", "Labeled counter.")
		tw.ValueL("test_by_label_total", 7, "backend", `we"ird\label`+"\n")
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
	if probs := Lint([]byte(text)); len(probs) != 0 {
		t.Fatalf("exposition does not lint:\n%v\nin:\n%s", probs, text)
	}
	for _, want := range []string{
		"# TYPE test_requests_total counter\n",
		"test_requests_total 3400000\n",
		"test_inflight -2\n",
		"# TYPE test_latency_seconds histogram\n",
		"test_latency_seconds_count 3\n",
		`le="+Inf"} 3`,
		"tage_process_goroutines ",
		"tage_process_gc_cycles_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Histogram buckets are cumulative: the 2ms bucket line must report
	// all three observations' running total ending at 3.
	if !strings.Contains(text, "test_latency_seconds_bucket{le=\"0.0000015") {
		t.Errorf("missing 1.5us bucket in:\n%s", text)
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

// TestFlightRecorderText pins the dump format the chaos soak greps:
// kind=, conn=, sess=, key=, cause= fields with zero fields omitted.
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
	for k := EvNone; k <= EvRecovery; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind not handled")
	}
}
