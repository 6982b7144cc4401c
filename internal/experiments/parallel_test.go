package experiments

import (
	"bytes"
	"testing"
)

// renderAll runs the composite "all" experiment on a fresh runner with
// the given worker count and returns the concatenated renders.
func renderAll(t *testing.T, limit uint64, workers int) (*Runner, []byte) {
	t.Helper()
	r := NewWorkers(limit, workers)
	out, err := r.Run("all")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range out {
		v.Render(&buf)
		buf.WriteByte('\n')
	}
	return r, buf.Bytes()
}

// renderByName runs every experiment as its own Run on one fresh runner,
// the Runs fanned out across the runner's pool in reverse presentation
// order (the shape of the benchmark's reproduce-all pass), and returns
// the renders concatenated in presentation order.
func renderByName(t *testing.T, limit uint64, workers int) (*Runner, []byte) {
	t.Helper()
	r := NewWorkers(limit, workers)
	names := Names()
	names = names[:len(names)-1] // drop "all"
	out := make([][]byte, len(names))
	err := r.Pool.ForEach(len(names), func(i int) error {
		i = len(names) - 1 - i
		v, err := r.Run(names[i])
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		v[0].Render(&buf)
		buf.WriteByte('\n')
		out[i] = buf.Bytes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, bytes.Join(out, nil)
}

// TestCompositeAllByteIdenticalAcrossWorkers runs the full `-experiment
// all` composite serially and with 4 workers, and every experiment as its
// own concurrent Run on one runner — the paths where concurrent
// executions share one memo — and requires (a) byte-identical renders and
// (b) the same number of distinct per-trace simulations and memo hits on
// every side: the memo must collapse every shared (config, options,
// trace) triple to exactly one simulation however the executions race
// for it, and concurrent Runs must not deadlock on each other's claims.
// Run with -race to check the memo for data races.
func TestCompositeAllByteIdenticalAcrossWorkers(t *testing.T) {
	const limit = 4000
	serial, sb := renderAll(t, limit, 1)
	for _, leg := range []struct {
		name    string
		run     func(*testing.T, uint64, int) (*Runner, []byte)
		workers int
	}{
		{"all, 4 workers", renderAll, 4},
		{"per-name Runs, 2 workers", renderByName, 2},
	} {
		r, b := leg.run(t, limit, leg.workers)
		if !bytes.Equal(sb, b) {
			t.Fatalf("%s renders differently from the serial all:\n--- serial ---\n%s\n--- %s ---\n%s", leg.name, sb, leg.name, b)
		}
		if s, p := serial.Simulations(), r.Simulations(); s != p {
			t.Fatalf("serial ran %d trace simulations, %s ran %d — concurrent arms duplicated or lost work", s, leg.name, p)
		}
		if s, p := serial.TraceHits(), r.TraceHits(); s != p {
			t.Fatalf("serial recorded %d trace hits, %s %d — concurrent arms duplicated or lost work", s, leg.name, p)
		}
	}
}

// TestCompositeAllTraceCacheSavings pins the exact simulation economy of
// `-experiment all` under the trace-granular memo. Before trace-granular
// sharing the composite executed 732 per-trace simulations: 36 distinct
// (config, options, suite) runs of 20 traces each, plus 12 Runner.Traces
// runs (figures 4 and 6) that bypassed the suite-level memo entirely.
// The per-trace memo serves every one of the 1032 per-trace requests
// from 720 distinct simulations — the figure 4/6 subsets are now cache
// hits against the table-1/table-2 suite runs — so a regression in
// either direction (a new collision or lost sharing) shows up as an
// exact-count mismatch here.
func TestCompositeAllTraceCacheSavings(t *testing.T) {
	const limit = 4000
	r, _ := renderAll(t, limit, 4)
	const (
		wantSims = 720 // 36 distinct (config, options) x 20-trace suites
		wantHits = 312 // incl. the 12 figure-4/6 runs previously re-simulated
	)
	if got := r.Simulations(); got != wantSims {
		t.Fatalf("composite all executed %d trace simulations, want exactly %d", got, wantSims)
	}
	if got := r.TraceHits(); got != wantHits {
		t.Fatalf("composite all recorded %d trace hits, want exactly %d", got, wantHits)
	}
}

// TestEveryExperimentDeterministicUnderParallelism renders every
// registered experiment once through a serial runner and once through a
// multi-worker runner and requires byte-identical output: the parallel
// sharded engine must not change a single digit of any table or figure.
func TestEveryExperimentDeterministicUnderParallelism(t *testing.T) {
	const limit = 12000
	serial := NewWorkers(limit, 1)
	parallel := NewWorkers(limit, 4)
	for _, name := range Names() {
		if name == "all" {
			continue // covered by its parts; running it would only redo them
		}
		name := name
		t.Run(name, func(t *testing.T) {
			sr, err := serial.Run(name)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := parallel.Run(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(sr) != len(pr) {
				t.Fatalf("renderer counts differ: %d vs %d", len(sr), len(pr))
			}
			for i := range sr {
				var sb, pb bytes.Buffer
				sr[i].Render(&sb)
				pr[i].Render(&pb)
				if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
					t.Fatalf("experiment %s renders differently in parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
						name, sb.String(), pb.String())
				}
			}
		})
	}
}
