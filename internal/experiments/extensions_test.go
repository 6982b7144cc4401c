package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/looppred"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestLTAGEComparison(t *testing.T) {
	r := testRunner()
	c, err := r.RunLTAGE()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 4 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	for _, row := range c.Rows {
		// The loop predictor must never hurt meaningfully...
		if row.LtageMPKI > row.TageMPKI*1.03 {
			t.Errorf("%s %s: L-TAGE %.3f worse than TAGE %.3f",
				row.Config, row.Workload, row.LtageMPKI, row.TageMPKI)
		}
		if row.ExtraBits <= 0 || row.ExtraBits > 8192 {
			t.Errorf("extra bits %d implausible", row.ExtraBits)
		}
		// The TAGE column is read off the L-TAGE's own TAGE, so on CBP-1
		// it must be exactly a plain standard-automaton TAGE's suite MPKI.
		if row.Workload == "cbp1" {
			cfg, err := tage.ConfigByName(row.Config)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := r.Suite(cfg, core.Options{}, "cbp1")
			if err != nil {
				t.Fatal(err)
			}
			if want := plain.Aggregate.MPKI(); row.TageMPKI != want {
				t.Errorf("%s cbp1: TAGE column %.6f, plain TAGE suite %.6f", row.Config, row.TageMPKI, want)
			}
		}
		// ...and must dominate on the long-loop microbenchmark, where the
		// trips exceed every TAGE history window.
		if row.Workload == "long-loops" {
			if row.LtageMPKI > row.TageMPKI*0.7 {
				t.Errorf("%s long-loops: L-TAGE %.3f should crush TAGE %.3f",
					row.Config, row.LtageMPKI, row.TageMPKI)
			}
			if row.LoopProvided < 0.3 {
				t.Errorf("%s long-loops: loop predictor provided only %.3f",
					row.Config, row.LoopProvided)
			}
		}
	}
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "L-TAGE") {
		t.Fatal("render incomplete")
	}
}

// failingTrace replays the first n records of inner, then fails with err.
type failingTrace struct {
	inner trace.Trace
	n     int
	err   error
}

func (f failingTrace) Name() string { return f.inner.Name() }
func (f failingTrace) Open() trace.Reader {
	return &failingReader{inner: f.inner.Open(), left: f.n, err: f.err}
}

type failingReader struct {
	inner trace.Reader
	left  int
	err   error
}

func (r *failingReader) Next() (trace.Branch, error) {
	if r.left == 0 {
		return trace.Branch{}, r.err
	}
	r.left--
	return r.inner.Next()
}

// TestCompareLTAGESurfacesReadErrors: a trace reader failing mid-stream
// must fail the comparison, not silently truncate it to a shorter trace.
func TestCompareLTAGESurfacesReadErrors(t *testing.T) {
	inner, err := workload.ByName("FP-1")
	if err != nil {
		t.Fatal(err)
	}
	readErr := errors.New("disk read failed")
	r := NewWorkers(0, 1)
	_, err = r.compareLTAGE(tage.Small16K(), looppred.DefaultConfig(), "broken",
		[]trace.Trace{failingTrace{inner: inner, n: 1000, err: readErr}})
	if !errors.Is(err, readErr) {
		t.Fatalf("compareLTAGE error = %v, want the reader's %v", err, readErr)
	}
}

func TestInversionAnalysis(t *testing.T) {
	r := testRunner()
	inv, err := r.RunInversion()
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Rows) != int(core.NumClasses) {
		t.Fatalf("rows = %d", len(inv.Rows))
	}
	for _, row := range inv.Rows {
		// The §2.1 finding: no class exceeds the 500 MKP break-even, so
		// inverting any whole class must increase mispredictions.
		if row.MPrate > 500 {
			t.Errorf("class %v exceeds 500 MKP (%.0f): unexpected for TAGE",
				row.Class, row.MPrate)
		}
		if row.DeltaMisses <= 0 {
			t.Errorf("inverting %v should hurt, delta %d", row.Class, row.DeltaMisses)
		}
		// Consistency: delta sign must match the 500 MKP rule.
		if (row.MPrate < 500) != (row.DeltaMisses > 0) {
			t.Errorf("class %v: delta inconsistent with rate %.0f", row.Class, row.MPrate)
		}
	}
	// The low-confidence bimodal class should be the closest call.
	var worst core.Class
	best := int64(1 << 62)
	for _, row := range inv.Rows {
		if row.DeltaMisses < best {
			best = row.DeltaMisses
			worst = row.Class
		}
	}
	if worst != core.LowConfBim && worst != core.Wtag {
		t.Errorf("nearest-to-break-even class = %v, expected a low-confidence class", worst)
	}
	var sb strings.Builder
	inv.Render(&sb)
	if !strings.Contains(sb.String(), "inverted") {
		t.Fatal("render incomplete")
	}
}
