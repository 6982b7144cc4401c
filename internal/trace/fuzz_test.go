package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRead ensures the binary trace parser never panics and never accepts
// garbage silently: arbitrary input either parses into a well-formed Mem
// or returns an error.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
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
