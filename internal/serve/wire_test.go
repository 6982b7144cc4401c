package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func sampleBranches(n int, seed uint64) []trace.Branch {
	r := xrand.New(seed)
	out := make([]trace.Branch, n)
	pc := uint64(0x400000)
	for i := range out {
		pc += uint64(r.Intn(64)) * 4
		if r.OneIn(8) {
			pc -= uint64(r.Intn(32)) * 4
		}
		out[i] = trace.Branch{PC: pc, Taken: r.Bool(), Instr: uint32(r.Intn(12)) + 1}
	}
	return out
}

// readOne parses exactly one frame out of raw.
func readOne(t *testing.T, raw []byte) (byte, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	typ, payload, _, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return typ, payload
}

func TestOpenRoundTrip(t *testing.T) {
	for _, req := range []OpenRequest{
		{},
		{Config: "64K"},
		{Config: "16K", Options: core.Options{Mode: core.ModeProbabilistic, DenomLog: 9}},
		{Config: "256K", Options: core.Options{
			Mode: core.ModeAdaptive, DenomLog: 7, BimWindow: -1,
			TargetMKP: 12.5, AdaptiveWindow: 8192,
		}},
	} {
		frame := AppendOpen(nil, req)
		typ, payload := readOne(t, frame)
		if typ != FrameOpen {
			t.Fatalf("type %#02x", typ)
		}
		got, err := DecodeOpen(payload)
		if err != nil {
			t.Fatalf("DecodeOpen(%+v): %v", req, err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	}
}

func TestOpenedRoundTrip(t *testing.T) {
	frame := AppendOpened(nil, 1234567, "64Kbits", 987654)
	typ, payload := readOne(t, frame)
	if typ != FrameOpened {
		t.Fatalf("type %#02x", typ)
	}
	id, config, branches, err := DecodeOpened(payload)
	if err != nil || id != 1234567 || config != "64Kbits" || branches != 987654 {
		t.Fatalf("got id=%d config=%q branches=%d err=%v", id, config, branches, err)
	}
}

// TestSnapRoundTrip covers the in-place FrameSnap blob prefix on both
// sides of its reserved width, after a non-empty dst and with
// multi-byte session ids.
func TestSnapRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 300, 1 << 40} {
		for _, n := range []int{0, 1, 127, 128, 16383, 16384, 70_000} {
			blob := bytes.Repeat([]byte{0xA5}, n)
			prefix := []byte("prefix")
			frame := AppendSnap(bytes.Clone(prefix), id, blob)
			if !bytes.HasPrefix(frame, prefix) {
				t.Fatalf("id %d, %d-byte blob: prefix clobbered", id, n)
			}
			typ, payload := readOne(t, frame[len(prefix):])
			if typ != FrameSnap {
				t.Fatalf("type %#02x", typ)
			}
			gotID, got, err := DecodeSnap(payload)
			if err != nil || gotID != id || !bytes.Equal(got, blob) {
				t.Fatalf("id %d, %d-byte blob: got id %d, %d bytes, err %v", id, n, gotID, len(got), err)
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	records := sampleBranches(1000, 42)
	frame := AppendBatch(nil, 99, records)
	typ, payload := readOne(t, frame)
	if typ != FrameBatch {
		t.Fatalf("type %#02x", typ)
	}
	id, got, err := DecodeBatch(payload, nil)
	if err != nil || id != 99 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	if len(got) != len(records) {
		t.Fatalf("%d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], records[i])
		}
	}
}

func TestGradeRoundTrip(t *testing.T) {
	for _, pred := range []bool{false, true} {
		for _, class := range core.Classes() {
			g, err := DecodeGrade(EncodeGrade(pred, class, class.Level()))
			if err != nil {
				t.Fatalf("%v/%v: %v", pred, class, err)
			}
			if g.Pred != pred || g.Class != class || g.Level != class.Level() {
				t.Fatalf("round trip: got %+v", g)
			}
		}
	}
	// Every inconsistent or out-of-range byte must be rejected.
	valid := map[byte]bool{}
	for _, pred := range []bool{false, true} {
		for _, class := range core.Classes() {
			valid[EncodeGrade(pred, class, class.Level())] = true
		}
	}
	for b := 0; b < 256; b++ {
		_, err := DecodeGrade(byte(b))
		if valid[byte(b)] != (err == nil) {
			t.Fatalf("byte %#02x: valid=%v err=%v", b, valid[byte(b)], err)
		}
	}
}

func TestPredictionsRoundTrip(t *testing.T) {
	var grades []byte
	for _, class := range core.Classes() {
		grades = append(grades, EncodeGrade(true, class, class.Level()))
		grades = append(grades, EncodeGrade(false, class, class.Level()))
	}
	frame := AppendPredictions(nil, 7, grades)
	typ, payload := readOne(t, frame)
	if typ != FramePredictions {
		t.Fatalf("type %#02x", typ)
	}
	id, got, err := DecodePredictions(payload, nil)
	if err != nil || id != 7 || len(got) != len(grades) {
		t.Fatalf("id=%d n=%d err=%v", id, len(got), err)
	}
	for i, g := range got {
		want, _ := DecodeGrade(grades[i])
		if g != want {
			t.Fatalf("grade %d: got %+v want %+v", i, g, want)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	res := sim.Result{Branches: 12345, Instructions: 67890, FinalProbability: 1.0 / 128}
	for i := range res.Class {
		res.Class[i] = metrics.Counts{Preds: uint64(1000 * (i + 1)), Misps: uint64(13 * i)}
		res.Total.Add(res.Class[i])
	}
	res.Branches = res.Total.Preds // stats invariant: classes sum to branches
	frame := AppendStats(nil, 3, res)
	typ, payload := readOne(t, frame)
	if typ != FrameStats {
		t.Fatalf("type %#02x", typ)
	}
	id, got, err := DecodeStats(payload)
	if err != nil || id != 3 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	if got != res {
		t.Fatalf("round trip: got %+v want %+v", got, res)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, ErrCodeUnknownSession, "no such session")
	typ, payload := readOne(t, frame)
	if typ != FrameError {
		t.Fatalf("type %#02x", typ)
	}
	re, err := DecodeError(payload)
	if err != nil || re.Code != ErrCodeUnknownSession || re.Message != "no such session" {
		t.Fatalf("got %+v err=%v", re, err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	// A length prefix out of range — too short for a type byte and CRC,
	// or oversized, which must be rejected before any allocation of that
	// size — is corruption in flight exactly like a mangled body, since
	// the CRC does not cover the prefix: ErrCorrupt, which the router
	// recovers from, not a bare (fatal) ErrProtocol.
	for _, length := range []uint32{0, 3, 4, MaxFrame + 1, math.MaxUint32} {
		frame := binary.LittleEndian.AppendUint32(nil, length)
		frame = append(frame, FrameClose, 0, 0, 0, 0)
		if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %d: err = %v, want ErrCorrupt", length, err)
		}
	}
	// Clean EOF between frames is io.EOF, not a protocol error.
	br := bufio.NewReader(bytes.NewReader(nil))
	if _, _, _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("clean EOF: err = %v", err)
	}
	// EOF inside a frame is a transport failure — retryable on a fresh
	// connection, unlike a protocol violation.
	frame := AppendClose(nil, 1)
	br = bufio.NewReader(bytes.NewReader(frame[:len(frame)-1]))
	if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, ErrIO) {
		t.Fatalf("mid-frame EOF: err = %v", err)
	}
	// And the two classes never overlap.
	if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:3])), nil); !errors.Is(err, ErrIO) || errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated header: err = %v", err)
	}
}

// TestDecodeTruncations cuts every valid payload at every byte offset:
// decoders must error (never panic, never accept).
func TestDecodeTruncations(t *testing.T) {
	records := sampleBranches(10, 7)
	var grades []byte
	for _, class := range core.Classes() {
		grades = append(grades, EncodeGrade(true, class, class.Level()))
	}
	res := sim.Result{}
	for i := range res.Class {
		res.Class[i] = metrics.Counts{Preds: 100, Misps: 3}
		res.Total.Add(res.Class[i])
	}
	res.Branches = res.Total.Preds

	payloadOf := func(frame []byte) []byte { return frame[5 : len(frame)-4] }
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"open", payloadOf(AppendOpen(nil, OpenRequest{Config: "64K", Options: core.Options{Mode: core.ModeAdaptive, TargetMKP: 5}})),
			func(p []byte) error { _, err := DecodeOpen(p); return err }},
		{"open-keyed", payloadOf(AppendOpen(nil, OpenRequest{Spec: "tage-16K", Key: "trace/INT-1#0"})),
			func(p []byte) error { _, err := DecodeOpen(p); return err }},
		{"opened", payloadOf(AppendOpened(nil, 42, "64Kbits", 77)),
			func(p []byte) error { _, _, _, err := DecodeOpened(p); return err }},
		{"snapget", payloadOf(AppendSnapGet(nil, 42)),
			func(p []byte) error { _, err := DecodeSnapGet(p); return err }},
		{"snap", payloadOf(AppendSnap(nil, 42, []byte("blobby"))),
			func(p []byte) error { _, _, err := DecodeSnap(p); return err }},
		{"opensnap", payloadOf(AppendOpenSnap(nil, []byte("blobby"))),
			func(p []byte) error { _, err := DecodeOpenSnap(p); return err }},
		{"batch", payloadOf(AppendBatch(nil, 42, records)),
			func(p []byte) error { _, _, err := DecodeBatch(p, nil); return err }},
		{"predictions", payloadOf(AppendPredictions(nil, 42, grades)),
			func(p []byte) error { _, _, err := DecodePredictions(p, nil); return err }},
		{"close", payloadOf(AppendClose(nil, 421)),
			func(p []byte) error { _, err := DecodeClose(p); return err }},
		{"stats", payloadOf(AppendStats(nil, 42, res)),
			func(p []byte) error { _, _, err := DecodeStats(p); return err }},
		{"error", payloadOf(AppendError(nil, 2, "boom")),
			func(p []byte) error { _, err := DecodeError(p); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.payload); err != nil {
				t.Fatalf("full payload rejected: %v", err)
			}
			for cut := 0; cut < len(c.payload); cut++ {
				if err := c.decode(c.payload[:cut]); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
		})
	}
}

// TestDecodeBatchLimit pins the corrupt-length defenses: a batch whose
// count field exceeds MaxBatch is rejected without allocating for it.
func TestDecodeBatchLimit(t *testing.T) {
	full := AppendBatch(nil, 1, nil)
	payload := full[5 : len(full)-4]
	// Rewrite count (second uvarint: session id 1 is one byte) to 2^20.
	big := append(payload[:1:1], 0x80, 0x80, 0x40)
	if _, _, err := DecodeBatch(big, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized count: err = %v", err)
	}
}
