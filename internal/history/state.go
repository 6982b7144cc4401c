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

// AppendState appends the buffer's contents as the ring buffer it
// encodes: physical size, head index, then the physical bit array packed
// 8 bits per byte (bit i of byte j is physical bit j*8+i). The ring
// holds the newest outcome at physical bit head and Bit(i) at
// (head+i) mod size, and head moves down one per push from 0, so the
// bytes are the same however the buffer stores its outcomes.
func (b *Buffer) AppendState(dst []byte) []byte {
	size := b.Len()
	head := (b.pos + 1) & b.mask
	dst = binary.AppendUvarint(dst, uint64(size))
	dst = binary.AppendUvarint(dst, uint64(head))
	off, n := len(dst), (size+7)/8
	// Grow then clear, not append(dst, make(...)...): the race detector's
	// instrumentation turns that idiom into a heap allocation even when
	// dst has room.
	dst = slices.Grow(dst, n)[:off+n]
	packed := dst[off:]
	clear(packed)
	for i, bit := range b.window() {
		if bit {
			p := (head + i) & b.mask
			packed[p/8] |= 1 << (p % 8)
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
	// pos ≡ head-1 (mod size), as NewBuffer and Push keep it. Bits past
	// the size in the last byte are never read, so a corrupt image
	// re-encodes as its valid bits.
	b.pos = (int(head) - 1) & b.mask
	for i := range b.window() {
		p := (int(head) + i) & b.mask
		b.bits[b.pos+i] = packed[p/8]>>(p%8)&1 == 1
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
