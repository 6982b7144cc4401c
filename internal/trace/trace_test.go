package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func sampleRecords(n int, seed uint64) []Branch {
	r := xrand.New(seed)
	out := make([]Branch, n)
	pc := uint64(0x400000)
	for i := range out {
		pc += uint64(r.Intn(64)) * 4
		if r.OneIn(8) {
			pc -= uint64(r.Intn(32)) * 4
		}
		out[i] = Branch{
			PC:    pc,
			Taken: r.Bool(),
			Instr: uint32(r.Intn(12)) + 1,
		}
	}
	return out
}

func TestMemTraceRoundTrip(t *testing.T) {
	recs := sampleRecords(100, 1)
	m := &Mem{TraceName: "sample", Records: recs}
	if m.Name() != "sample" {
		t.Fatalf("name = %q", m.Name())
	}
	got, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestMemTraceReplayable(t *testing.T) {
	m := &Mem{TraceName: "x", Records: sampleRecords(50, 2)}
	a, _ := Collect(m)
	b, _ := Collect(m)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two passes differ at %d", i)
		}
	}
}

func TestReaderEOF(t *testing.T) {
	m := &Mem{TraceName: "e"}
	r := m.Open()
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty trace should EOF immediately, got %v", err)
	}
	// EOF must be sticky.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF should be sticky, got %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords(5000, 3)
	m := &Mem{TraceName: "roundtrip-трейс", Records: recs}
	var buf bytes.Buffer
	if _, err := Write(&buf, m.Name(), m.Open()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != m.TraceName {
		t.Fatalf("name %q != %q", got.TraceName, m.TraceName)
	}
	if len(got.Records) != len(recs) {
		t.Fatalf("count %d != %d", len(got.Records), len(recs))
	}
	for i := range recs {
		if got.Records[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], recs[i])
		}
	}
}

func TestBinaryRejectsZeroInstr(t *testing.T) {
	m := &Mem{TraceName: "bad", Records: []Branch{{PC: 4, Taken: true, Instr: 0}}}
	var buf bytes.Buffer
	if _, err := Write(&buf, m.Name(), m.Open()); err == nil {
		t.Fatal("zero-instr record must be rejected")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE....")))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	recs := sampleRecords(100, 4)
	m := &Mem{TraceName: "t", Records: recs}
	var buf bytes.Buffer
	if _, err := Write(&buf, m.Name(), m.Open()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 4, 5, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadRejectsEmpty(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tbt")
	m := &Mem{TraceName: "file-trace", Records: sampleRecords(300, 5)}
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != "file-trace" || len(got.Records) != 300 {
		t.Fatalf("got %q/%d records", got.TraceName, len(got.Records))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.tbt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestMeasure(t *testing.T) {
	m := &Mem{TraceName: "m", Records: []Branch{
		{PC: 100, Taken: true, Instr: 5},
		{PC: 104, Taken: false, Instr: 3},
		{PC: 100, Taken: true, Instr: 2},
	}}
	s, err := Measure(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Branches != 3 || s.Taken != 2 || s.Instructions != 10 || s.UniquePCs != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinPC != 100 || s.MaxPC != 104 {
		t.Fatalf("pc range = [%d,%d]", s.MinPC, s.MaxPC)
	}
	if s.TakenRate() < 0.66 || s.TakenRate() > 0.67 {
		t.Fatalf("taken rate = %v", s.TakenRate())
	}
	if s.InstrPerBranch() != 10.0/3 {
		t.Fatalf("instr/branch = %v", s.InstrPerBranch())
	}
	if s.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestMeasureEmpty(t *testing.T) {
	s, err := Measure(&Mem{TraceName: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if s.TakenRate() != 0 || s.InstrPerBranch() != 0 {
		t.Fatalf("empty-trace rates should be 0: %+v", s)
	}
}

func TestLimit(t *testing.T) {
	m := &Mem{TraceName: "L", Records: sampleRecords(100, 6)}
	lt := Limit(m, 10)
	if lt.Name() != "L" {
		t.Fatalf("limited name = %q", lt.Name())
	}
	got, err := Collect(lt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limited to %d records, want 10", len(got))
	}
	// Limit larger than trace yields the whole trace.
	got, _ = Collect(Limit(m, 1000))
	if len(got) != 100 {
		t.Fatalf("over-limit: got %d, want 100", len(got))
	}
	// Zero means unlimited and returns the original trace.
	if Limit(m, 0) != Trace(m) {
		t.Fatal("Limit(t, 0) should return t unchanged")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 500)
		recs := sampleRecords(n, seed)
		m := &Mem{TraceName: "q", Records: recs}
		var buf bytes.Buffer
		if _, err := Write(&buf, m.Name(), m.Open()); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != n {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDrainsReader(t *testing.T) {
	m := &Mem{TraceName: "drain", Records: sampleRecords(42, 10)}
	var buf bytes.Buffer
	n, err := Write(&buf, "drained", m.Open())
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 {
		t.Fatalf("Write reported %d records, want 42", n)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != "drained" || len(got.Records) != 42 {
		t.Fatalf("got %q/%d", got.TraceName, len(got.Records))
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	m := &Mem{TraceName: "bench", Records: sampleRecords(10000, 11)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := Write(&buf, m.Name(), m.Open()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	m := &Mem{TraceName: "bench", Records: sampleRecords(10000, 12)}
	var buf bytes.Buffer
	if _, err := Write(&buf, m.Name(), m.Open()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordCodecRoundTrip pins the record codec (the one definition
// shared by the file writer and the serve wire protocol): AppendRecords
// → DecodeRecords is identity and consumes every byte, and the same
// bytes decode record by record through decodeRecord with the PC delta
// threaded from 0, as the file format defines.
func TestRecordCodecRoundTrip(t *testing.T) {
	records := sampleRecords(500, 77)
	buf := AppendRecords(nil, records)
	got, n, err := DecodeRecords(nil, buf, uint64(len(records)))
	if err != nil || n != len(buf) || !slices.Equal(got, records) {
		t.Fatalf("DecodeRecords: %d records, %d of %d bytes, err %v", len(got), n, len(buf), err)
	}
	prev := uint64(0)
	for i, want := range records {
		got, n, err := decodeRecord(buf, prev)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		buf, prev = buf[n:], got.PC
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over after decoding all records", len(buf))
	}
}

// TestDecodeRecordTruncated asserts every truncation of an encoded
// record errors with ErrBadFormat in both decoders instead of panicking
// or decoding junk, and that DecodeRecords then returns dst unchanged.
func TestDecodeRecordTruncated(t *testing.T) {
	want := Branch{PC: 0x123456789, Taken: true, Instr: 300}
	enc := AppendRecords(nil, []Branch{want})
	dst := make([]Branch, 1, 4)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodeRecord(enc[:cut], 0); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadFormat", cut, err)
		}
		got, n, err := DecodeRecords(dst, enc[:cut], 1)
		if !errors.Is(err, ErrBadFormat) || n != 0 || len(got) != 1 {
			t.Fatalf("DecodeRecords truncated at %d: %d records, n=%d, err=%v", cut, len(got), n, err)
		}
	}
	if got, n, err := decodeRecord(enc, 0); err != nil || n != len(enc) || got != want {
		t.Fatalf("full decode: %+v n=%d err=%v", got, n, err)
	}
}

// TestAppendRecordZeroInstr pins the codec's clamp: Instr 0 is not
// representable and encodes as 1 (the file writer rejects it earlier).
func TestAppendRecordZeroInstr(t *testing.T) {
	enc := AppendRecords(nil, []Branch{{PC: 4, Instr: 0}})
	got, _, err := DecodeRecords(nil, enc, 1)
	if err != nil || got[0].Instr != 1 {
		t.Fatalf("got %+v err=%v, want Instr 1", got, err)
	}
}

// rawRecordFile is a one-record trace file whose record carries the given
// packed (Instr-1)<<1|taken field verbatim, so tests can reach values
// AppendRecords never writes.
func rawRecordFile(packed uint64) []byte {
	data := append([]byte{}, magic[:]...)
	data = append(data, 0, 1, 0) // empty name, one record, pc delta 0
	return binary.AppendUvarint(data, packed)
}

// TestDecodeRejectsOutOfRangeInstr pins the instruction-count range of
// both record decoders: Instr-1 must fit below math.MaxUint32, so no
// record decodes to Instr 0 and no two encodings alias one record.
func TestDecodeRejectsOutOfRangeInstr(t *testing.T) {
	for _, tc := range []struct {
		name      string
		instrLess uint64 // the encoded Instr-1
		want      uint32 // decoded Instr; 0 = must be rejected
	}{
		{"max", math.MaxUint32 - 1, math.MaxUint32},
		{"wraps to zero", math.MaxUint32, 0},
		{"aliases one", 1 << 32, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			packed := tc.instrLess<<1 | 1
			rec := binary.AppendUvarint([]byte{0}, packed)
			b, n, err := decodeRecord(rec, 0)
			m, ferr := Read(bytes.NewReader(rawRecordFile(packed)))
			if tc.want == 0 {
				if !errors.Is(err, ErrBadFormat) || n != 0 {
					t.Fatalf("decodeRecord: got %+v n=%d err=%v, want ErrBadFormat", b, n, err)
				}
				if !errors.Is(ferr, ErrBadFormat) {
					t.Fatalf("Read: got %+v err=%v, want ErrBadFormat", m, ferr)
				}
				return
			}
			if err != nil || b.Instr != tc.want || n != len(rec) {
				t.Fatalf("decodeRecord: got %+v n=%d err=%v, want Instr %d", b, n, err, tc.want)
			}
			if ferr != nil || len(m.Records) != 1 || m.Records[0] != b {
				t.Fatalf("Read: got %+v err=%v, want [%+v]", m, ferr, b)
			}
		})
	}
}
