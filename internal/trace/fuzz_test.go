package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzRead ensures the binary trace parser never panics and never accepts
// garbage silently: arbitrary input either parses into a well-formed Mem
// or returns an error. Every input is also decoded record by record
// through decodeRecord, and DecodeRecords's inline two-byte path must
// agree with it on the records, the bytes consumed and accept/reject.
func FuzzRead(f *testing.F) {
	// Seed with a valid file, a truncation, and junk.
	seed := &Mem{TraceName: "seed", Records: sampleRecords(50, 1)}
	var buf bytes.Buffer
	if _, err := Write(&buf, seed.Name(), seed.Open()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("TBT1"))
	f.Add([]byte("garbage data, not a trace"))
	f.Add([]byte{})
	// Hostile headers: a count field promising ~2^32 records (and one just
	// past the hard limit) with no data behind it. The parser must fail on
	// the missing records without reserving count-sized memory up front.
	header := append(append([]byte{}, valid[:4]...), 0)                            // magic + empty name
	f.Add(append(append([]byte{}, header...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))       // count = 2^32-1
	f.Add(append(append([]byte{}, header...), 0x81, 0x80, 0x80, 0x80, 0x10))       // count = 2^32+1
	f.Add(append(append([]byte{}, header...), 0x80, 0x80, 0x40, 0x00, 0x03, 0x00)) // count = 2^20, one record
	// Instruction counts past uint32: Instr-1 = 2^32-1 would wrap to Instr
	// 0 and Instr-1 = 2^32 would alias Instr 1.
	f.Add(rawRecordFile(math.MaxUint32 << 1))
	f.Add(rawRecordFile(1 << 33))
	// The inline path's edges: PC deltas ±63 and -64, which fit one
	// zigzag byte, and +64 and -65, the nearest that need two; packed
	// fields of one byte (Instr 1, 64) and of two or more (65,
	// MaxUint32); Instr 0, which encodes as 1; and PCs that wrap past
	// 2^64 both ways.
	for _, d := range []int64{63, -63, 64, -64, -65} {
		pc := uint64(1 << 20)
		f.Add(recordFile(Branch{PC: pc, Instr: 1}, Branch{PC: pc + uint64(d), Taken: true, Instr: 2}))
	}
	for _, instr := range []uint32{1, 64, 65, math.MaxUint32, 0} {
		f.Add(recordFile(Branch{PC: 8, Taken: true, Instr: instr}, Branch{PC: 12, Instr: instr}))
	}
	f.Add(recordFile(Branch{PC: math.MaxUint64 - 3, Instr: 1}, Branch{PC: 8, Taken: true, Instr: 3}, Branch{PC: math.MaxUint64, Instr: 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		checkRecordPaths(t, data, m, err)
		if err != nil {
			return
		}
		// Successful parses must produce well-formed records.
		for _, r := range m.Records {
			if r.Instr == 0 {
				t.Fatal("parsed record with zero instruction count")
			}
		}
		// Round-trip property: re-serializing must succeed and re-parse to
		// the same records.
		var out bytes.Buffer
		if _, err := Write(&out, m.Name(), m.Open()); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		m2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(m2.Records) != len(m.Records) || m2.TraceName != m.TraceName {
			t.Fatal("round trip changed the trace")
		}
		for i := range m.Records {
			if m.Records[i] != m2.Records[i] {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

// recordFile is a trace file holding recs, encoded record by record
// through the general appendRecord path (so the inline paths are
// checked against it, not against themselves) and without the writer's
// zero-instruction check.
func recordFile(recs ...Branch) []byte {
	data := append([]byte{}, magic[:]...)
	data = append(data, 0) // empty name
	data = binary.AppendUvarint(data, uint64(len(recs)))
	return appendEachRecord(data, recs)
}

// appendEachRecord encodes recs one at a time through appendRecord.
func appendEachRecord(dst []byte, recs []Branch) []byte {
	prevPC := uint64(0)
	for _, b := range recs {
		packed := uint64(max(b.Instr, 1)-1) << 1
		if b.Taken {
			packed |= 1
		}
		dst, prevPC = appendRecord(dst, int64(b.PC-prevPC), packed), b.PC
	}
	return dst
}

// checkRecordPaths decodes data's records one at a time through
// decodeRecord and requires DecodeRecords, and Read's result m and err,
// to agree with it. It also requires AppendRecords to re-encode the
// records as the general per-record encoding does.
func checkRecordPaths(t *testing.T, data []byte, m *Mem, readErr error) {
	t.Helper()
	_, count, src, err := decodeHeader(data)
	if err != nil {
		if readErr == nil {
			t.Fatalf("Read accepted a header decodeHeader rejects: %v", err)
		}
		return
	}
	var want []Branch
	rest, prevPC := src, uint64(0)
	for i := uint64(0); i < count && err == nil; i++ {
		var b Branch
		var n int
		if b, n, err = decodeRecord(rest, prevPC); err == nil {
			want, rest, prevPC = append(want, b), rest[n:], b.PC
		}
	}
	dst := []Branch{{PC: 1}}
	got, n, berr := DecodeRecords(dst, src, count)
	if (err == nil) != (berr == nil) || (err == nil) != (readErr == nil) {
		t.Fatalf("accept/reject: per record %v, DecodeRecords %v, Read %v", err, berr, readErr)
	}
	if berr != nil {
		if !errors.Is(berr, ErrBadFormat) || n != 0 || len(got) != 1 {
			t.Fatalf("rejected: %d records, %d bytes, err %v", len(got), n, berr)
		}
		return
	}
	if n != len(src)-len(rest) || !slices.Equal(got[1:], want) || got[0] != dst[0] {
		t.Fatalf("DecodeRecords: %d records in %d bytes, per record %d in %d", len(got)-1, n, len(want), len(src)-len(rest))
	}
	if !slices.Equal(m.Records, want) {
		t.Fatal("Read's records differ from the per-record decode")
	}
	if !bytes.Equal(AppendRecords(nil, want), appendEachRecord(nil, want)) {
		t.Fatal("AppendRecords differs from the per-record encoding")
	}
}
