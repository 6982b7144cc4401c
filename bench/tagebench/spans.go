package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is 0 for a root span. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only the clock reads they need anyway.
type tracer struct {
	origin time.Time
	next   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has begun and not yet ended.
type open struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name string, parent uint64) open {
	o := open{t: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		o.id = t.next.Add(1)
	}
	return o
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.t.mu.Lock()
		o.t.spans = append(o.t.spans, span{
			ID: o.id, Parent: o.parent, Name: o.name,
			Start: o.start.Sub(o.t.origin).Nanoseconds(),
			End:   now.Sub(o.t.origin).Nanoseconds(),
		})
		o.t.mu.Unlock()
	}
	return now.Sub(o.start)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes maps every span ID to its self time: its duration minus the
// part of its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur, curEnd := int64(0), int64(0)
		inRun := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if inRun && lo <= curEnd {
				curEnd = max(curEnd, hi)
				continue
			}
			if inRun {
				covered += curEnd - cur
			}
			cur, curEnd, inRun = lo, hi, true
		}
		if inRun {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
