// Snapshot codecs for the history machinery. Only mutable state is
// serialized — structure (capacities, fold geometry, register widths)
// is rebuilt from configuration by the restoring side, which lets the
// decoders validate every length against the already-allocated target.
package history

import (
	"encoding/binary"
	"fmt"

	"repro/internal/statecodec"
)

// AppendState appends the buffer's contents: physical size, head index,
// then the physical bit array packed 8 bits per byte (bit i of byte j is
// physical bit j*8+i), which is the little-endian byte image of the words
// cut to the size. Serializing the physical layout rather than the logical
// window keeps restore a straight copy and preserves bit identity.
func (b *Buffer) AppendState(dst []byte) []byte {
	size := b.Len()
	dst = binary.AppendUvarint(dst, uint64(size))
	dst = binary.AppendUvarint(dst, uint64(b.head))
	n := (size + 7) / 8
	for _, w := range b.words[:n/8] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	// A buffer under 64 bits is one word cut to its byte count.
	for k := 0; k < n%8; k++ {
		dst = append(dst, byte(b.words[0]>>(8*k)))
	}
	return dst
}

// RestoreState reads state written by AppendState into b. The recorded
// size must match b's allocated capacity: a buffer is restored into a
// predictor rebuilt from the same configuration, so a mismatch means the
// snapshot belongs to a different structure.
func (b *Buffer) RestoreState(r *statecodec.Reader) error {
	size := r.Uvarint()
	head := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if size != uint64(b.Len()) {
		return fmt.Errorf("%w: history buffer size %d, want %d", statecodec.ErrCorrupt, size, b.Len())
	}
	if head >= size {
		return fmt.Errorf("%w: history buffer head %d out of range", statecodec.ErrCorrupt, head)
	}
	packed := r.Bytes((int(size) + 7) / 8)
	if err := r.Err(); err != nil {
		return err
	}
	b.head = int(head)
	clear(b.words)
	for j, c := range packed {
		b.words[j/8] |= uint64(c) << (j % 8 * 8)
	}
	// Bits past the size (a buffer under 64 bits, or under 8) are never
	// read; clear them so a corrupt image re-encodes as its valid bits.
	if size < 64 {
		b.words[0] &= 1<<size - 1
	}
	return nil
}

// SetValue restores a folded value captured by Value. Bits beyond the
// fold's compressed width are masked off so a corrupt snapshot cannot
// widen the register.
func (f *Folded) SetValue(v uint32) { f.comp = v & f.mask }

// SetValue restores a path-history value captured by Value, masked to
// the register width.
func (p *Path) SetValue(v uint32) {
	p.value = v & p.mask
}
