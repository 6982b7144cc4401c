// Snapshot codecs for the history machinery. Only mutable state is
// serialized — structure (capacities, fold geometry, register widths)
// is rebuilt from configuration by the restoring side, which lets the
// decoders validate every length against the already-allocated target.
package history

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/statecodec"
)

// AppendState appends the buffer's contents: physical size, head index,
// then the physical bit array packed 8 bits per byte (bit i of byte j is
// bits[j*8+i]). Serializing the physical layout rather than the logical
// window keeps restore a straight copy and preserves bit identity.
func (b *Buffer) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.bits)))
	dst = binary.AppendUvarint(dst, uint64(b.head))
	off, n := len(dst), (len(b.bits)+7)/8
	// Grown and cleared in place: append(dst, make(...)...) allocates under -race.
	dst = slices.Grow(dst, n)[:off+n]
	packed := dst[off:]
	clear(packed)
	for i, bit := range b.bits {
		if bit != 0 {
			packed[i/8] |= 1 << (uint(i) % 8)
		}
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
	if size != uint64(len(b.bits)) {
		return fmt.Errorf("%w: history buffer size %d, want %d", statecodec.ErrCorrupt, size, len(b.bits))
	}
	if head >= size {
		return fmt.Errorf("%w: history buffer head %d out of range", statecodec.ErrCorrupt, head)
	}
	packed := r.Bytes((len(b.bits) + 7) / 8)
	if err := r.Err(); err != nil {
		return err
	}
	b.head = int(head)
	for i := range b.bits {
		b.bits[i] = (packed[i/8] >> (uint(i) % 8)) & 1
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
	p.value = v & ((1 << p.width) - 1)
}
