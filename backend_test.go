package repro

import (
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFacadeBackends exercises the registry surface through the facade:
// listing, parsing, running non-TAGE backends, and error quality.
func TestFacadeBackends(t *testing.T) {
	fams := Backends()
	if len(fams) < 6 {
		t.Fatalf("only %d registered families", len(fams))
	}
	tr, err := TraceByName("FP-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"bimodal-64K", "perceptron", "ogehl", "jrs-64K", "ltage-16K"} {
		res, err := RunSpec(spec, tr, 5_000)
		if err != nil {
			t.Fatalf("RunSpec(%q): %v", spec, err)
		}
		if res.Branches != 5_000 {
			t.Fatalf("%s: ran %d branches", spec, res.Branches)
		}
	}
	cbp1, err := Suite("cbp1")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSuiteSpec("bimodal-16K", cbp1[:3], 4_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PerTrace) != 3 || sr.Aggregate.Config != "bimodal-16K" {
		t.Fatalf("suite spec run: %+v", sr.Aggregate)
	}
	if _, err := New("bimodal-64K?nope=1"); err == nil || !strings.Contains(err.Error(), "log") {
		t.Fatalf("unknown param error should list accepted keys, got %v", err)
	}
	if _, err := ParseSpec("tage?x=="); err == nil {
		t.Fatal("malformed spec parsed")
	}
	// Parameters canonicalize into sorted key order.
	sp, err := ParseSpec("tage-16K?mode=adaptive&mkp=4")
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "tage-16K?mkp=4&mode=adaptive" {
		t.Fatalf("canonical spec = %q", sp.String())
	}
}

// TestServeSpecSessionZeroAllocs mirrors TestServeHotPathZeroAllocs for
// a non-TAGE (spec-built) session: the heterogeneous serving path must
// stay allocation-free per branch too.
func TestServeSpecSessionZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.NewEngine(serve.EngineConfig{})
	sess, err := eng.Open(serve.OpenRequest{Spec: "bimodal-64K"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	batch := make([]trace.Branch, 1)
	grades := make([]byte, 0, 8)
	out := make([]byte, 0, 64)
	step := func(i int) {
		s, ok := eng.Lookup(id)
		if !ok {
			t.Fatal("session lost")
		}
		batch[0] = branches[i%len(branches)]
		grades, ok = s.Serve(batch, grades, int64(i))
		if !ok {
			t.Fatal("session retired")
		}
		out = serve.AppendPredictions(out[:0], id, grades)
	}
	for i := 0; i < 10_000; i++ {
		step(i)
	}
	i := 10_000
	allocs := allocsPerSlice(func() {
		step(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per %d served branches on a spec session, want 0", allocs, sliceLen)
	}
}

// TestBackendHotPathZeroAllocs pins the generic (interface-dispatched)
// simulation loop at zero allocations per branch for a registry-built
// backend.
func TestBackendHotPathZeroAllocs(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"bimodal-64K", "perceptron", "ogehl", "ltage-16K", "jrs-16K?enhanced=true"} {
		b, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range branches[:10_000] {
			b.Predict(br.PC)
			b.Update(br.PC, br.Taken)
		}
		i := 10_000
		allocs := allocsPerSlice(func() {
			br := branches[i%len(branches)]
			i++
			b.Predict(br.PC)
			b.Update(br.PC, br.Taken)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per %d predicted branches through the Backend interface, want 0", spec, allocs, sliceLen)
		}
	}
}
