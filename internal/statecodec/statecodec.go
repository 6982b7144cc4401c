// Package statecodec is the tiny shared vocabulary of the predictor
// state codecs: every predictor family serializes its mutable state with
// the TBT1 varint idiom (uvarint/svarint fields, little-endian fixed
// words, length-prefixed blobs) through an error-latching Reader, so the
// per-family codecs stay declarative and a truncated or oversized field
// surfaces as one error at the end instead of a panic in the middle.
//
// Appending uses encoding/binary's Append* helpers directly; this
// package only adds the decode side plus the append helpers the
// standard library lacks: length-prefixed byte blobs, either copied in
// (AppendBytes) or encoded in place (BeginBlob/EndBlob), so a nested
// envelope is written straight into the caller's buffer.
package statecodec

import (
	"encoding/binary"
	"fmt"
)

// MaxBlob bounds a length-prefixed byte blob (64 MiB): a corrupt or
// hostile length prefix must not make a decoder allocate unboundedly.
const MaxBlob = 1 << 26

// ErrCorrupt reports an undecodable state payload.
var ErrCorrupt = fmt.Errorf("statecodec: corrupt state")

// AppendBytes appends a uvarint length prefix followed by the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString is AppendBytes for a string, without converting it.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// blobReserve is the length-prefix room BeginBlob reserves: two uvarint
// bytes cover bodies under 16 KiB (the 16K and 64K TAGE states) without
// moving them; a longer body is shifted once by EndBlob.
const blobReserve = 2

// BeginBlob opens an in-place length-prefixed blob: it reserves room for
// the uvarint length prefix, the caller appends the body, and
// EndBlob(dst, start) — start being len(dst) before BeginBlob — writes
// the prefix. The result is byte-identical to AppendBytes of the body.
func BeginBlob(dst []byte) []byte {
	var room [blobReserve]byte
	return append(dst, room[:]...)
}

// EndBlob seals the blob BeginBlob opened at start, moving the body when
// its length prefix does not take exactly the reserved room.
func EndBlob(dst []byte, start int) []byte {
	body := len(dst) - start - blobReserve
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(body))
	if n > blobReserve {
		dst = append(dst, hdr[blobReserve:n]...)
	}
	if n != blobReserve {
		copy(dst[start+n:], dst[start+blobReserve:start+blobReserve+body])
		dst = dst[:start+n+body]
	}
	copy(dst[start:], hdr[:n])
	return dst
}

// Reader decodes a state payload field by field. The first decode error
// latches: every subsequent accessor returns zero values, and Err
// reports the failure — callers check once, after reading every field.
type Reader struct {
	src []byte
	err error
}

// NewReader returns a reader over src. The slice is consumed in place;
// Bytes/Blob return sub-slices of it.
func NewReader(src []byte) *Reader { return &Reader{src: src} }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.src) }

// Finish errors unless every byte was consumed cleanly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.src) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.src))
	}
	return nil
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.src)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.src = r.src[n:]
	return v
}

// Varint decodes one signed (zigzag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.src)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.src = r.src[n:]
	return v
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.src) < 1 {
		r.fail("truncated byte")
		return 0
	}
	b := r.src[0]
	r.src = r.src[1:]
	return b
}

// Uint32 decodes one little-endian 32-bit word.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.src) < 4 {
		r.fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.src)
	r.src = r.src[4:]
	return v
}

// Uint64 decodes one little-endian 64-bit word.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.src) < 8 {
		r.fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.src)
	r.src = r.src[8:]
	return v
}

// Bytes consumes exactly n raw bytes (a sub-slice of the source, valid
// while the source is).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.src) {
		r.fail("truncated bytes")
		return nil
	}
	b := r.src[:n]
	r.src = r.src[n:]
	return b
}

// Blob consumes one length-prefixed byte blob (AppendBytes's encoding),
// rejecting length prefixes beyond MaxBlob or the remaining payload.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBlob || n > uint64(len(r.src)) {
		r.fail("blob length out of range")
		return nil
	}
	return r.Bytes(int(n))
}
