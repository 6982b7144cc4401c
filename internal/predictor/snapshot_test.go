package predictor_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/statecodec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appendCRC seals an envelope body with the trailing CRC32-IEEE word.
func appendCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// buildEnvelope assembles a snapshot blob from parts, bypassing
// AppendSnapshot so tests can construct inconsistent-but-sealed blobs.
func buildEnvelope(t *testing.T, spec string, state []byte) []byte {
	t.Helper()
	body := []byte{predictor.SnapshotVersion}
	body = statecodec.AppendBytes(body, []byte(spec))
	body = statecodec.AppendBytes(body, state)
	return appendCRC(body)
}

// snapshotFamilySpecs is one representative spec per registry family,
// plus both JRS index variants the estimator comparison runs (the
// non-TAGE half of the bit-identity matrix, and the fuzz corpus).
var snapshotFamilySpecs = []string{
	"bimodal-16K",
	"perceptron?log=8&hist=24",
	"ogehl?tables=4&log=8&maxhist=60",
	"jrs-16K",
	"jrs-16K?enhanced=true",
	"ltage-16K",
}

func collectBranches(tb testing.TB, name string, limit uint64) []trace.Branch {
	tb.Helper()
	tr, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	r := trace.Limit(tr, limit).Open()
	out := make([]trace.Branch, 0, limit)
	for {
		br, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, br)
	}
	return out
}

// runRange replicates sim.Run's per-branch tally sequence over a branch
// slice, so a run interrupted by a snapshot/restore cut can be compared
// field-for-field against the uninterrupted sim.Run result.
func runRange(b predictor.Backend, res *sim.Result, branches []trace.Branch) {
	for _, br := range branches {
		pred, class, _ := b.Predict(br.PC)
		miss := pred != br.Taken
		res.Total.Record(miss)
		res.Class[class].Record(miss)
		res.Branches++
		res.Instructions += uint64(br.Instr)
		b.Update(br.PC, br.Taken)
	}
}

// runWithCuts drives a fresh backend for spec over the branches,
// snapshotting and restoring at every cut index, and returns the final
// result tallied exactly as sim.Run tallies.
func runWithCuts(t *testing.T, spec, trName string, branches []trace.Branch, cuts []int) sim.Result {
	t.Helper()
	b, _, err := predictor.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{Trace: trName, Config: b.Label(), Mode: predictor.ModeOf(b)}
	prev := 0
	for _, cut := range cuts {
		runRange(b, &res, branches[prev:cut])
		prev = cut
		blob, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			t.Fatalf("AppendSnapshot at %d: %v", cut, err)
		}
		restored, err := predictor.RestoreSnapshot(blob)
		if err != nil {
			t.Fatalf("RestoreSnapshot at %d: %v", cut, err)
		}
		if restored.Label() != b.Label() {
			t.Fatalf("restored label %q, want %q", restored.Label(), b.Label())
		}
		b = restored
	}
	runRange(b, &res, branches[prev:])
	res.FinalProbability = predictor.SaturationProbabilityOf(b)
	return res
}

// TestSnapshotRestoreBitIdentity proves the tentpole contract: a backend
// snapshotted and restored at arbitrary branch indices finishes with a
// sim.Result equal to the uninterrupted run — for the full TAGE matrix
// (2 configs × 3 modes × 2 traces) and one configuration of every other
// registry family.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	const limit = 12_000
	traces := []string{"INT-1", "SERV-2"}
	branchesOf := map[string][]trace.Branch{}
	for _, tr := range traces {
		branchesOf[tr] = collectBranches(t, tr, limit)
	}

	type case_ struct {
		spec   string
		traces []string
	}
	var cases []case_
	for _, cfg := range []string{"16K", "64K"} {
		for _, mode := range []string{"standard", "probabilistic", "adaptive"} {
			cases = append(cases, case_{spec: "tage-" + cfg + "?mode=" + mode, traces: traces})
		}
	}
	for _, spec := range snapshotFamilySpecs {
		cases = append(cases, case_{spec: spec, traces: traces[:1]})
	}

	for i, c := range cases {
		for _, trName := range c.traces {
			branches := branchesOf[trName]
			tr, err := workload.ByName(trName)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := predictor.Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			offline, err := sim.RunSpec(sp, trace.Limit(tr, limit), 0)
			if err != nil {
				t.Fatal(err)
			}
			// A cut every 211 branches from a case-dependent offset, so
			// state that matters only mid-episode (a miss streak, a
			// controller window) is cut too; the first case also
			// exercises the cold cut and back-to-back cuts.
			var cuts []int
			for cut := 1 + (i*37)%211; cut < len(branches); cut += 211 {
				cuts = append(cuts, cut)
			}
			if i == 0 {
				cuts = append([]int{0, cuts[0]}, cuts...)
				cuts = append(cuts, len(branches)-1)
			}
			got := runWithCuts(t, c.spec, trName, branches, cuts)
			if got != offline {
				t.Errorf("%s on %s: snapshot-cut result diverges\n got: %+v\nwant: %+v", c.spec, trName, got, offline)
			}
		}
	}
}

// TestSnapshotBytesPinned pins the snapshot byte format: warmed backends
// of every registry family encode to blobs whose SHA-256 was recorded
// when the format was introduced (version 1), so a stored checkpoint
// keeps restoring. The state sizes straddle the in-place length
// prefix's reserved width (1 KB, 4–16 KB, 64 KB), and encoding after a
// non-empty prefix must leave the prefix alone and append the same
// bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	branches := collectBranches(t, "INT-1", 20_000)
	for _, c := range []struct {
		spec   string
		size   int
		sha256 string
	}{
		{"tage-16K?mode=probabilistic", 4475, "2b3b225db402b960981e5249d56321a0c368420f3b84e98ca6a09400b3ed8c6b"},
		{"tage-64K?mode=probabilistic", 15519, "1ebd947d7daba362bcbd950169c4a6a22eadc336c1a1cfc658028c3d78f21a9c"},
		{"tage-256K?mode=adaptive", 67782, "bc74f4135eaeec561bdc80909a536e035f326761b1195f22beac26839382e961"},
		{"bimodal-16K", 8213, "c6eca3b2f4ba029982d85e2c36d4a758bf7f795a5176eced6c9189ca373ad057"},
		{"perceptron", 65562, "69ab57c3dff11a537700ac7d7ce3c18a38431696c00c53e925d6b94956350624"},
		{"perceptron?log=8&hist=24", 12838, "b09bd2b2ca9b05ece69b968a79ef6070804dfc0f4d18dc280fb2fb7f30a36593"},
		{"ogehl?tables=4&log=8&maxhist=60", 1081, "d13c7a84186daa03d8e684a4b4d9e1a104dd675599e69f446c7cd47815127da3"},
		{"jrs-16K?enhanced=true", 5465, "ad21051802c8eea4348751f4f111545b8f0ef730a51e3099d01a3cb26cd2daa4"},
		{"ltage-16K", 4807, "76f4482202cdf37df32d761930629e3412a15ef91fa79b81e30865792e4bb50e"},
	} {
		b, _, err := predictor.New(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range branches {
			b.Predict(br.PC)
			b.Update(br.PC, br.Taken)
		}
		blob, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != c.size || sum != c.sha256 {
			t.Errorf("%s: snapshot is %d bytes sha256 %s, want %d bytes %s", c.spec, len(blob), sum, c.size, c.sha256)
		}
		prefix := []byte("prefix")
		got, err := predictor.AppendSnapshot(bytes.Clone(prefix), b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(prefix, blob...)) {
			t.Errorf("%s: snapshot appended after a prefix differs", c.spec)
		}
	}
}

// TestSnapshotErrors checks that broken blobs fail cleanly and loudly.
func TestSnapshotErrors(t *testing.T) {
	b, _, err := predictor.New("bimodal-16K")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := predictor.AppendSnapshot(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, broken []byte) {
		t.Helper()
		if _, err := predictor.RestoreSnapshot(broken); !errors.Is(err, predictor.ErrSnapshot) {
			t.Errorf("%s: error %v, want ErrSnapshot", name, err)
		}
	}
	check("empty", nil)
	check("truncated", blob[:len(blob)-5])
	flipped := bytes.Clone(blob)
	flipped[len(flipped)/2] ^= 0x40
	check("bitflip", flipped)

	// Version skew with a recomputed checksum must still be rejected.
	skewed := bytes.Clone(blob)
	skewed[0] = predictor.SnapshotVersion + 1
	skewed = reseal(skewed)
	check("version-skew", skewed)

	// A structurally valid envelope whose state belongs to a different
	// configuration must be rejected by the family codec.
	other, _, err := predictor.New("bimodal-64K")
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := predictor.AppendSnapshot(nil, other)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in the larger predictor's state under the smaller spec by
	// decoding both and cross-wiring.
	spec, _, err := predictor.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, otherState, err := predictor.DecodeSnapshot(otherBlob)
	if err != nil {
		t.Fatal(err)
	}
	crossed := buildEnvelope(t, spec, otherState)
	check("state-mismatch", crossed)
}

// reseal recomputes the trailing CRC32 so tests can tamper with the body
// and still reach the field decoders.
func reseal(blob []byte) []byte {
	body := blob[:len(blob)-4]
	out := bytes.Clone(body)
	return appendCRC(out)
}

func TestFuzzSnapshotSeedsRoundTrip(t *testing.T) {
	for _, spec := range append([]string{"tage-16K?mode=probabilistic"}, snapshotFamilySpecs...) {
		b, _, err := predictor.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := predictor.RestoreSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		again, err := predictor.AppendSnapshot(nil, restored)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Errorf("%s: snapshot not stable across restore", spec)
		}
	}
}

// FuzzSnapshot fuzzes the snapshot decoder: corrupt, truncated or
// version-skewed blobs must error cleanly (never panic), and any blob
// that restores must re-encode to a stable fixed point.
func FuzzSnapshot(f *testing.F) {
	for _, spec := range append([]string{"tage-16K?mode=probabilistic", "tage-16K?mode=adaptive"}, snapshotFamilySpecs...) {
		b, _, err := predictor.New(spec)
		if err != nil {
			f.Fatal(err)
		}
		// Seed both cold and lightly trained snapshots of every family.
		blob, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		for pc := uint64(0); pc < 64; pc++ {
			b.Predict(pc << 2)
			b.Update(pc<<2, pc%3 == 0)
		}
		trained, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(trained)
		f.Add(trained[:len(trained)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{predictor.SnapshotVersion})

	f.Fuzz(func(t *testing.T, blob []byte) {
		b, err := predictor.RestoreSnapshot(blob)
		if err != nil {
			if !errors.Is(err, predictor.ErrSnapshot) {
				t.Fatalf("non-ErrSnapshot failure: %v", err)
			}
			return
		}
		again, err := predictor.AppendSnapshot(nil, b)
		if err != nil {
			t.Fatalf("re-snapshot of restored backend: %v", err)
		}
		b2, err := predictor.RestoreSnapshot(again)
		if err != nil {
			t.Fatalf("restore of re-snapshot: %v", err)
		}
		final, err := predictor.AppendSnapshot(nil, b2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, final) {
			t.Fatal("snapshot encoding is not a fixed point after restore")
		}
	})
}
