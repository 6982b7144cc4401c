package statecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestRoundTrip encodes one field of every kind and reads them back.
func TestRoundTrip(t *testing.T) {
	var dst []byte
	dst = binary.AppendUvarint(dst, 1<<40)
	dst = binary.AppendVarint(dst, -12345)
	dst = append(dst, 0xEE)
	dst = binary.LittleEndian.AppendUint32(dst, 0xDEADBEEF)
	dst = binary.LittleEndian.AppendUint64(dst, 0x0123456789ABCDEF)
	dst = AppendBytes(dst, []byte("blob"))
	dst = AppendString(dst, "")
	dst = AppendString(dst, "str")
	dst = append(dst, "raw"...)

	r := NewReader(dst)
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -12345 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Byte(); v != 0xEE {
		t.Errorf("Byte = %#x", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != 0x0123456789ABCDEF {
		t.Errorf("Uint64 = %#x", v)
	}
	if v := r.Blob(); string(v) != "blob" {
		t.Errorf("Blob = %q", v)
	}
	if v := r.Blob(); len(v) != 0 {
		t.Errorf("empty Blob = %q", v)
	}
	if v := r.Blob(); string(v) != "str" {
		t.Errorf("string Blob = %q", v)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d before the raw tail, want 3", r.Len())
	}
	if v := r.Bytes(3); string(v) != "raw" {
		t.Errorf("Bytes = %q", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestFirstErrorLatches checks that the first decode failure sticks:
// later accessors return zero values without consuming input, and Err
// and Finish keep reporting the original failure.
func TestFirstErrorLatches(t *testing.T) {
	r := NewReader([]byte{0x05, 0xAA})
	if v := r.Uint32(); v != 0 {
		t.Fatalf("truncated Uint32 = %d, want 0", v)
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", first)
	}
	if v := r.Byte(); v != 0 {
		t.Errorf("Byte after error = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint after error = %d, want 0", v)
	}
	if r.Len() != 2 {
		t.Errorf("accessors consumed input after the error: %d bytes left", r.Len())
	}
	if r.Err() != first || r.Finish() != first {
		t.Errorf("error changed after latching: Err %v, Finish %v, want %v", r.Err(), r.Finish(), first)
	}
}

// TestDecodeFailures covers each accessor's truncation and the blob
// length bounds.
func TestDecodeFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		src  []byte
		read func(*Reader)
	}{
		{"uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"varint", nil, func(r *Reader) { r.Varint() }},
		{"byte", nil, func(r *Reader) { r.Byte() }},
		{"uint64", make([]byte, 7), func(r *Reader) { r.Uint64() }},
		{"bytes", nil, func(r *Reader) { r.Bytes(1) }},
		{"negative bytes", nil, func(r *Reader) { r.Bytes(-1) }},
		{"blob past end", []byte{3, 'a'}, func(r *Reader) { r.Blob() }},
		{"blob beyond MaxBlob", append(binary.AppendUvarint(nil, MaxBlob+1), make([]byte, 8)...), func(r *Reader) { r.Blob() }},
	} {
		r := NewReader(c.src)
		c.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: Err = %v, want ErrCorrupt", c.name, r.Err())
		}
	}
}

// TestFinishRejectsTrailingBytes checks that a payload with bytes left
// over after the last field does not decode cleanly.
func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{0x01, 0x02})
	r.Uvarint()
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish with a trailing byte = %v, want ErrCorrupt", err)
	}
}

// TestInPlaceBlobMatchesAppendBytes checks BeginBlob/EndBlob against
// AppendBytes for bodies whose length prefix is shorter than, equal to
// and longer than the reserved room, after an empty and a non-empty
// dst.
func TestInPlaceBlobMatchesAppendBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*7 + 3)
		}
		for _, prefix := range [][]byte{nil, []byte("prefix")} {
			want := AppendBytes(bytes.Clone(prefix), body)
			dst := bytes.Clone(prefix)
			start := len(dst)
			dst = BeginBlob(dst)
			dst = append(dst, body...)
			got := EndBlob(dst, start)
			if !bytes.Equal(got, want) {
				t.Errorf("%d-byte body after %d-byte prefix: in-place encoding differs from AppendBytes", n, len(prefix))
			}
			r := NewReader(got[len(prefix):])
			if b := r.Blob(); !bytes.Equal(b, body) || r.Finish() != nil {
				t.Errorf("%d-byte body: Blob read back %d bytes, err %v", n, len(b), r.Finish())
			}
		}
	}
}
