// Package obs is the repo's stdlib-only observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket log-scale
// histograms rendered in Prometheus text exposition format 0.0.4, plus
// a fixed-size flight recorder of structured serve events for post-hoc
// "why was this batch slow/shed/evicted" forensics.
//
// Everything on the observation side is hot-path safe: Counter.Inc,
// Gauge.Set, Histogram.Observe and FlightRecorder.Record are 0 allocs/op
// (pinned in the root alloc_test.go) and carry no heap escape in the
// compiler-facts gate (tagevet -facts) — the paper's
// storage-free-confidence idea applied to the serving layer's own
// telemetry: measurement must not perturb the measured path.
//
// The zero value of Counter, Gauge and Histogram is ready to use.
package obs

import "sync/atomic"

// Counter is a monotonically increasing uint64 metric. The zero value
// is a valid counter at 0.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//repro:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//repro:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
//
//repro:deterministic
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 metric. The zero value is a valid gauge
// at 0.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//repro:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (negative to decrease).
//
//repro:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
//
//repro:deterministic
func (g *Gauge) Value() int64 { return g.v.Load() }
