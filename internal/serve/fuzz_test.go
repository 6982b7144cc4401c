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
)

// framePayload strips a complete frame down to its payload: the 5-byte
// header (length + type) and the 4-byte CRC trailer.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 9 {
		t.Fatalf("frame of %d bytes cannot carry header and CRC trailer", len(frame))
	}
	return frame[5 : len(frame)-4]
}

// rawBatchFrame is a one-record batch frame whose record carries the given
// packed (Instr-1)<<1|taken field verbatim, so seeds can reach values
// AppendBatch never writes.
func rawBatchFrame(packed uint64) []byte {
	frame := BeginFrame(nil, FrameBatch)
	frame = append(frame, 7, 1, 0) // session 7, one record, pc delta 0
	return EndFrame(binary.AppendUvarint(frame, packed), 0)
}

// FuzzFrame mirrors internal/trace's FuzzRead for the wire protocol:
// arbitrary bytes through the frame reader and every payload decoder
// must either parse or error — never panic, never accept garbage
// silently — and whatever parses must re-encode to a payload that parses
// back identically (round-trip identity).
func FuzzFrame(f *testing.F) {
	// Seed with one valid frame of every type, a truncation, and junk.
	res := sim.Result{FinalProbability: 0.0078125}
	for i := range res.Class {
		res.Class[i] = metrics.Counts{Preds: uint64(i) * 10, Misps: uint64(i)}
		res.Total.Add(res.Class[i])
	}
	res.Branches = res.Total.Preds
	resumed := res
	resumed.Mode, resumed.Config = core.ModeAdaptive, "64Kbits"
	var grades []byte
	for _, cl := range core.Classes() {
		grades = append(grades, EncodeGrade(true, cl, cl.Level()))
	}
	seeds := [][]byte{
		AppendOpen(nil, OpenRequest{Spec: "tage-64K?mkp=10&mode=adaptive"}),
		AppendOpen(nil, OpenRequest{Spec: "bimodal-64K?log=13"}),
		AppendOpen(nil, OpenRequest{Spec: "tage-16K?mkp=4&mode=adaptive"}),
		AppendOpen(nil, OpenRequest{Spec: "tage-16K", Key: "trace/INT-1#0"}),
		AppendOpened(nil, Opened{ID: 7, Res: sim.Result{Config: "64Kbits"}}),
		AppendOpened(nil, Opened{ID: 7, Res: resumed}),
		AppendBatch(nil, 7, sampleBranches(20, 5)),
		AppendPredictions(nil, 7, grades),
		AppendClose(nil, 7),
		AppendStats(nil, 7, res),
		AppendError(nil, ErrCodeMalformed, "bad"),
		AppendSnapGet(nil, 7),
		AppendSnap(nil, 7, []byte("not a real snapshot blob")),
		AppendOpened(nil, Opened{ID: 7, Res: res}),
		AppendBusy(nil, 7, 25),
		// Hostile length prefixes: all-ones, just past MaxFrame, and the
		// maximum uint32 — each must be rejected by the bounds check
		// before any payload allocation happens.
		{0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{0x01, 0x00, 0x10, 0x00, 0x03}, // length = MaxFrame+1
		{0xFE, 0xFF, 0xFF, 0xFF, 0x03},
		[]byte("garbage data, not a frame"),
		{},
	}
	seeds = append(seeds, seeds[2][:8],
		// Instruction counts past uint32: Instr-1 = 2^32-1 would wrap to
		// Instr 0 and Instr-1 = 2^32 would alias Instr 1.
		rawBatchFrame(math.MaxUint32<<1),
		rawBatchFrame(1<<33),
		// A FrameOpen in the pre-spec-only layout must fail to decode.
		legacyOpenFrame("64K", core.Options{Mode: core.ModeAdaptive, TargetMKP: 10}, "", ""))
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		typ, payload, _, err := ReadFrame(br, nil)
		if err != nil {
			// Truncated inputs surface as ErrIO (the stream died
			// mid-frame), illegal lengths as ErrProtocol, and a clean end
			// as bare io.EOF.
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrIO) && err != io.EOF {
				t.Fatalf("ReadFrame error is neither ErrProtocol, ErrIO nor io.EOF: %v", err)
			}
			return
		}
		switch typ {
		case FrameOpen:
			req, err := DecodeOpen(payload)
			if err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("DecodeOpen error is not ErrProtocol: %v", err)
				}
				return
			}
			reenc := AppendOpen(nil, req)
			got, err := DecodeOpen(framePayload(t, reenc))
			if err != nil || got != req {
				t.Fatalf("open round trip: %+v -> %+v (%v)", req, got, err)
			}
		case FrameOpened:
			o, err := DecodeOpened(payload)
			if err != nil {
				return
			}
			got, err := DecodeOpened(framePayload(t, AppendOpened(nil, o)))
			if err != nil || got != o {
				t.Fatalf("opened round trip: %+v -> %+v (%v)", o, got, err)
			}
		case FrameBatch:
			id, records, err := DecodeBatch(payload, nil)
			if err != nil {
				return
			}
			for _, r := range records {
				if r.Instr == 0 {
					t.Fatal("decoded batch record with zero instruction count")
				}
			}
			reenc := AppendBatch(nil, id, records)
			id2, records2, err := DecodeBatch(framePayload(t, reenc), nil)
			if err != nil || id2 != id || len(records2) != len(records) {
				t.Fatalf("batch round trip failed: %v", err)
			}
			for i := range records {
				if records[i] != records2[i] {
					t.Fatalf("batch round trip changed record %d", i)
				}
			}
		case FramePredictions:
			id, decoded, err := DecodePredictions(payload, nil)
			if err != nil {
				return
			}
			raw := make([]byte, len(decoded))
			for i, g := range decoded {
				raw[i] = EncodeGrade(g.Pred, g.Class, g.Level)
			}
			reenc := AppendPredictions(nil, id, raw)
			id2, decoded2, err := DecodePredictions(framePayload(t, reenc), nil)
			if err != nil || id2 != id || len(decoded2) != len(decoded) {
				t.Fatalf("predictions round trip failed: %v", err)
			}
			for i := range decoded {
				if decoded[i] != decoded2[i] {
					t.Fatalf("predictions round trip changed grade %d", i)
				}
			}
		case FrameClose:
			id, err := DecodeClose(payload)
			if err != nil {
				return
			}
			reenc := AppendClose(nil, id)
			if id2, err := DecodeClose(framePayload(t, reenc)); err != nil || id2 != id {
				t.Fatalf("close round trip: %d -> %d (%v)", id, id2, err)
			}
		case FrameStats:
			id, stats, err := DecodeStats(payload)
			if err != nil {
				return
			}
			if stats.Total.Preds != stats.Branches {
				t.Fatal("accepted stats whose classes do not sum to branches")
			}
			reenc := AppendStats(nil, id, stats)
			id2, stats2, err := DecodeStats(framePayload(t, reenc))
			if err != nil || id2 != id || stats2 != stats {
				t.Fatalf("stats round trip: %+v -> %+v (%v)", stats, stats2, err)
			}
		case FrameError:
			re, err := DecodeError(payload)
			if err != nil {
				return
			}
			reenc := AppendError(nil, re.Code, re.Message)
			re2, err := DecodeError(framePayload(t, reenc))
			if err != nil || re2.Code != re.Code || re2.Message != re.Message {
				t.Fatalf("error round trip: %+v -> %+v (%v)", re, re2, err)
			}
		case FrameSnapGet:
			id, err := DecodeSnapGet(payload)
			if err != nil {
				return
			}
			reenc := AppendSnapGet(nil, id)
			if id2, err := DecodeSnapGet(framePayload(t, reenc)); err != nil || id2 != id {
				t.Fatalf("snapget round trip: %d -> %d (%v)", id, id2, err)
			}
		case FrameSnap:
			id, blob, err := DecodeSnap(payload)
			if err != nil {
				return
			}
			reenc := AppendSnap(nil, id, blob)
			id2, blob2, err := DecodeSnap(framePayload(t, reenc))
			if err != nil || id2 != id || !bytes.Equal(blob, blob2) {
				t.Fatalf("snap round trip failed: %v", err)
			}
			// A blob that decodes as a session snapshot must re-encode to
			// the same sealed bytes.
			if snap, err := DecodeSessionSnapshot(blob); err == nil {
				if !bytes.Equal(AppendSessionSnapshot(nil, snap), blob) {
					t.Fatal("session snapshot is not a re-encoding fixed point")
				}
			}
		case FrameBusy:
			be, err := DecodeBusy(payload)
			if err != nil {
				return
			}
			reenc := AppendBusy(nil, be.Session, be.RetryAfterMillis)
			be2, err := DecodeBusy(framePayload(t, reenc))
			if err != nil || be2.Session != be.Session || be2.RetryAfterMillis != be.RetryAfterMillis {
				t.Fatalf("busy round trip: %+v -> %+v (%v)", be, be2, err)
			}
		}
	})
}
