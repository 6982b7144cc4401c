package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
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

// TestOpenRoundTrip pins that FrameOpen carries only a spec and a key:
// spec requests round-trip verbatim, and a Config/Options request
// crosses the wire as the TAGE spec it resolves to.
func TestOpenRoundTrip(t *testing.T) {
	for _, req := range []OpenRequest{
		{},
		{Spec: "bimodal-64K?log=13"},
		{Spec: "tage-16K", Key: "trace/INT-1#0"},
		{Key: "default-spec"},
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
	req := OpenRequest{Options: core.Options{Mode: core.ModeAdaptive, TargetMKP: 12.5}, Key: "k"}
	got, err := DecodeOpen(framePayload(t, AppendOpen(nil, req)))
	if want := (OpenRequest{Spec: "tage-64K?mkp=12.5&mode=adaptive", Key: "k"}); err != nil || got != want {
		t.Fatalf("options-only request crossed as %+v (%v), want %+v", got, err, want)
	}
}

// legacyOpenFrame builds a FrameOpen in the layout that predates
// spec-only opens: config name, mode byte, denomLog uvarint, bimWindow
// varint, targetMKP float64 bits, adaptiveWindow uvarint, spec, key.
func legacyOpenFrame(config string, opts core.Options, spec, key string) []byte {
	dst := BeginFrame(nil, FrameOpen)
	dst = binary.AppendUvarint(dst, uint64(len(config)))
	dst = append(dst, config...)
	dst = append(dst, byte(opts.Mode))
	dst = binary.AppendUvarint(dst, uint64(opts.DenomLog))
	dst = binary.AppendVarint(dst, int64(opts.BimWindow))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(opts.TargetMKP))
	dst = binary.AppendUvarint(dst, opts.AdaptiveWindow)
	dst = binary.AppendUvarint(dst, uint64(len(spec)))
	dst = append(dst, spec...)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return EndFrame(dst, 0)
}

// TestDecodeOpenRejects pins DecodeOpen's only checks — spec length, key
// length, trailing bytes — and that a pre-change FrameOpen fails with
// ErrProtocol instead of decoding as some other spec or key.
func TestDecodeOpenRejects(t *testing.T) {
	lenPrefixed := func(n int) []byte {
		return append(binary.AppendUvarint(nil, uint64(n)), bytes.Repeat([]byte{'a'}, n)...)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"legacy-default", framePayload(t, legacyOpenFrame("", core.Options{}, "", ""))},
		{"legacy-config", framePayload(t, legacyOpenFrame("64K", core.Options{Mode: core.ModeAdaptive, TargetMKP: 10}, "", ""))},
		{"legacy-spec-key", framePayload(t, legacyOpenFrame("", core.Options{}, "tage-16K", "trace/INT-1#0"))},
		{"spec-too-long", append(lenPrefixed(maxSpecLen+1), 0)},
		{"key-too-long", append([]byte{0}, lenPrefixed(maxSessionKey+1)...)},
		{"trailing", append(framePayload(t, AppendOpen(nil, OpenRequest{Spec: "tage-16K"})), 0)},
	} {
		got, err := DecodeOpen(c.payload)
		if !errors.Is(err, ErrProtocol) || got != (OpenRequest{}) {
			t.Errorf("%s: decoded %+v, err %v; want ErrProtocol and no request", c.name, got, err)
		}
	}
}

// sampleTallies returns tallies that satisfy the tally codec's
// invariants: each class predicts more than it mispredicts, and the
// classes sum to the branch count.
func sampleTallies() sim.Result {
	res := sim.Result{Instructions: 67890, FinalProbability: 1.0 / 128}
	for i := range res.Class {
		res.Class[i] = metrics.Counts{Preds: uint64(1000 * (i + 1)), Misps: uint64(13 * i)}
		res.Total.Add(res.Class[i])
	}
	res.Branches = res.Total.Preds
	return res
}

// TestOpenedRoundTrip pins that FrameOpened carries the label, the mode
// and the full tallies, fresh (all zero) and resumed.
func TestOpenedRoundTrip(t *testing.T) {
	resumed := sampleTallies()
	resumed.Mode, resumed.Config = core.ModeAdaptive, "64Kbits"
	for _, want := range []Opened{
		{ID: 7, Res: sim.Result{Config: "bimodal-64K"}},
		{ID: 1234567, Res: resumed},
	} {
		typ, payload := readOne(t, AppendOpened(nil, want))
		if typ != FrameOpened {
			t.Fatalf("type %#02x", typ)
		}
		if got, err := DecodeOpened(payload); err != nil || got != want {
			t.Fatalf("got %+v err=%v, want %+v", got, err, want)
		}
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

// TestBatchBytesPerRecord pins FrameBatch's bytes to the per-record TBT1
// encoding, built here from encoding/binary alone: for the first 4,096
// branches of every workload trace, in 1,024-branch batches, AppendBatch
// writes exactly the frame a record-at-a-time encoder writes, and
// DecodeBatch reads the batch back.
func TestBatchBytesPerRecord(t *testing.T) {
	var recs []trace.Branch
	for _, tr := range workload.All() {
		all, err := trace.Collect(trace.Limit(tr, 4096))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(all); off += 1024 {
			batch := all[off:min(off+1024, len(all))]
			want := BeginFrame(nil, FrameBatch)
			want = binary.AppendUvarint(want, 5)
			want = binary.AppendUvarint(want, uint64(len(batch)))
			prevPC := uint64(0)
			for _, b := range batch {
				packed := uint64(b.Instr-1) << 1
				if b.Taken {
					packed |= 1
				}
				want = binary.AppendVarint(want, int64(b.PC-prevPC))
				want = binary.AppendUvarint(want, packed)
				prevPC = b.PC
			}
			want = EndFrame(want, 0)
			if got := AppendBatch(nil, 5, batch); !bytes.Equal(got, want) {
				t.Fatalf("%s batch at %d: AppendBatch wrote %d bytes, per-record encoding %d", tr.Name(), off, len(got), len(want))
			}
			id, got, err := DecodeBatch(want[5:len(want)-4], recs)
			if err != nil || id != 5 || !slices.Equal(got, batch) {
				t.Fatalf("%s batch at %d: decoded %d records, id %d, err %v", tr.Name(), off, len(got), id, err)
			}
			recs = got
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
	res := sampleTallies()
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

	// A class that mispredicts more often than it predicts is not a
	// tally: the shared tally decoder rejects it in both frames that
	// carry tallies, as the session snapshot decoder always did.
	bad := res
	bad.Class[2].Misps = bad.Class[2].Preds + 1
	if _, _, err := DecodeStats(framePayload(t, AppendStats(nil, 3, bad))); !errors.Is(err, ErrProtocol) {
		t.Errorf("stats with misps > preds: err = %v, want ErrProtocol", err)
	}
	if _, err := DecodeOpened(framePayload(t, AppendOpened(nil, Opened{ID: 3, Res: bad}))); !errors.Is(err, ErrProtocol) {
		t.Errorf("opened with misps > preds: err = %v, want ErrProtocol", err)
	}
	// Nor do class counts whose sum wraps around onto the branch count.
	wrapped := sim.Result{Branches: 5}
	wrapped.Class[0].Preds = math.MaxUint64
	wrapped.Class[1].Preds = 6
	if _, _, err := DecodeStats(framePayload(t, AppendStats(nil, 3, wrapped))); !errors.Is(err, ErrProtocol) {
		t.Errorf("stats whose class sum wraps: err = %v, want ErrProtocol", err)
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
	// the CRC does not cover the prefix: ErrCorrupt, which a keyed reopen
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
	res := sampleTallies()
	res.Config = "64Kbits"

	payloadOf := func(frame []byte) []byte { return frame[5 : len(frame)-4] }
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"open", payloadOf(AppendOpen(nil, OpenRequest{Config: "64K", Options: core.Options{Mode: core.ModeAdaptive, TargetMKP: 5}})),
			func(p []byte) error { _, err := DecodeOpen(p); return err }},
		{"open-default", payloadOf(AppendOpen(nil, OpenRequest{})),
			func(p []byte) error { _, err := DecodeOpen(p); return err }},
		{"open-keyed", payloadOf(AppendOpen(nil, OpenRequest{Spec: "tage-16K", Key: "trace/INT-1#0"})),
			func(p []byte) error { _, err := DecodeOpen(p); return err }},
		{"opened", payloadOf(AppendOpened(nil, Opened{ID: 42, Res: res})),
			func(p []byte) error { _, err := DecodeOpened(p); return err }},
		{"snapget", payloadOf(AppendSnapGet(nil, 42)),
			func(p []byte) error { _, err := DecodeSnapGet(p); return err }},
		{"snap", payloadOf(AppendSnap(nil, 42, []byte("blobby"))),
			func(p []byte) error { _, _, err := DecodeSnap(p); return err }},
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
	// A count within MaxBatch that the payload's bytes cannot hold (every
	// record is at least two bytes) is rejected before the records slice
	// is grown: 65,536 records claimed in a 10-byte payload.
	hostile := append(payload[:1:1], 0x80, 0x80, 0x04, 0, 0, 2, 3, 4, 5)
	if len(hostile) != 10 {
		t.Fatalf("hostile payload is %d bytes", len(hostile))
	}
	_, recs, err := DecodeBatch(hostile, nil)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("hostile count: err = %v", err)
	}
	if cap(recs) != 0 {
		t.Fatalf("hostile count grew the records slice to cap %d", cap(recs))
	}
}
