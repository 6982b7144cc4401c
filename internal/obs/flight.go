package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Event kinds. EvBatch is the steady-state record (one per served
// batch); the rest mark the anomalies the ring exists to explain.
const (
	EvNone EventKind = iota
	EvBatch
	EvShed
	EvCorrupt
	EvSlowPeerEvict
	EvIdleEvict
	EvCheckpointFail
	EvRestore
	EvRestoreFail
)

var kindNames = [...]string{
	EvNone:           "none",
	EvBatch:          "batch",
	EvShed:           "shed",
	EvCorrupt:        "corrupt",
	EvSlowPeerEvict:  "slow-peer-evict",
	EvIdleEvict:      "idle-evict",
	EvCheckpointFail: "checkpoint-fail",
	EvRestore:        "restore",
	EvRestoreFail:    "restore-fail",
}

// String returns the dash-separated kind name used in dumps.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured flight-recorder entry. It is a flat value
// type — recording one copies a few words and three string headers,
// never allocating — and zero fields are omitted from the text dump.
type Event struct {
	UnixNano int64
	Kind     EventKind
	Conn     uint64 // server-side connection sequence number
	Session  uint64 // session id
	Frame    byte   // wire frame type that produced the event
	Batch    int    // records in the batch
	Key      string // durable session key, if keyed
	Backend  string // backend spec label
	Cause    string // shed/eviction/failure cause
	QueueNS  int64  // read-to-serve-start (head-of-line wait)
	ServeNS  int64  // predictor serve time
	FlushNS  int64  // response flush time
}

// appendText renders the event as one line of space-separated
// key=value fields.
func (e Event) appendText(dst []byte) []byte {
	dst = time.Unix(0, e.UnixNano).UTC().AppendFormat(dst, "2006-01-02T15:04:05.000000000Z")
	dst = append(dst, " kind="...)
	dst = append(dst, e.Kind.String()...)
	if e.Conn != 0 {
		dst = append(dst, " conn="...)
		dst = strconv.AppendUint(dst, e.Conn, 10)
	}
	if e.Session != 0 {
		dst = append(dst, " sess="...)
		dst = strconv.AppendUint(dst, e.Session, 10)
	}
	if e.Key != "" {
		dst = append(dst, " key="...)
		dst = strconv.AppendQuote(dst, e.Key)
	}
	if e.Backend != "" {
		dst = append(dst, " backend="...)
		dst = strconv.AppendQuote(dst, e.Backend)
	}
	if e.Frame != 0 {
		dst = append(dst, " frame=0x"...)
		if e.Frame < 0x10 {
			dst = append(dst, '0')
		}
		dst = strconv.AppendUint(dst, uint64(e.Frame), 16)
	}
	if e.Batch != 0 {
		dst = append(dst, " n="...)
		dst = strconv.AppendInt(dst, int64(e.Batch), 10)
	}
	if e.QueueNS != 0 {
		dst = append(dst, " queue="...)
		dst = append(dst, time.Duration(e.QueueNS).String()...)
	}
	if e.ServeNS != 0 {
		dst = append(dst, " serve="...)
		dst = append(dst, time.Duration(e.ServeNS).String()...)
	}
	if e.FlushNS != 0 {
		dst = append(dst, " flush="...)
		dst = append(dst, time.Duration(e.FlushNS).String()...)
	}
	if e.Cause != "" {
		dst = append(dst, " cause="...)
		dst = strconv.AppendQuote(dst, e.Cause)
	}
	return dst
}

// DefaultEventBuffer is the flight-recorder ring size when the caller
// does not choose one.
const DefaultEventBuffer = 256

// FlightRecorder is a fixed-size ring of Events. Record is hot-path
// safe (one short mutex section, no allocation); dumping is cold. A
// nil *FlightRecorder is valid and records nothing, so instrumented
// code never needs a nil check.
type FlightRecorder struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever recorded
}

// NewFlightRecorder returns a recorder holding the last size events
// (DefaultEventBuffer if size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultEventBuffer
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// Record stores ev, overwriting the oldest entry once the ring is full.
//
//repro:hotpath
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (recorded, not
// retained: the ring keeps the last len(buf)).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Len returns the number of events currently retained.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *FlightRecorder) lenLocked() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Snapshot returns the retained events oldest-first.
func (r *FlightRecorder) Snapshot() []Event {
	return r.Tail(-1)
}

// Tail returns the most recent k retained events oldest-first (all of
// them if k < 0 or k exceeds the retained count).
func (r *FlightRecorder) Tail(k int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.lenLocked()
	if k < 0 || k > held {
		k = held
	}
	out := make([]Event, k)
	for i := 0; i < k; i++ {
		out[i] = r.buf[(r.n-uint64(k)+uint64(i))%uint64(len(r.buf))]
	}
	return out
}

// WriteText dumps the retained events oldest-first, one line each,
// preceded by a summary comment.
func (r *FlightRecorder) WriteText(w io.Writer) error {
	return r.writeTail(w, -1)
}

// WriteTail dumps only the most recent k events.
func (r *FlightRecorder) WriteTail(w io.Writer, k int) error {
	return r.writeTail(w, k)
}

func (r *FlightRecorder) writeTail(w io.Writer, k int) error {
	if r == nil {
		_, err := io.WriteString(w, "# flight recorder disabled\n")
		return err
	}
	events := r.Tail(k)
	total := r.Total()
	buf := make([]byte, 0, 128)
	buf = append(buf, "# flight recorder: "...)
	buf = strconv.AppendUint(buf, total, 10)
	buf = append(buf, " events recorded, showing last "...)
	buf = strconv.AppendInt(buf, int64(len(events)), 10)
	buf = append(buf, " (oldest first)\n"...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, ev := range events {
		buf = ev.appendText(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
