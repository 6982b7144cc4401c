// Package history implements the branch-history machinery of geometric
// history length predictors: a circular global-history bit buffer, the
// incrementally-folded (cyclic shift register) compressions of that history
// used to index and tag the predictor tables, a short path-history
// register, and the geometric history-length series
// L(i) = round(α^(i-1)·L(1)) introduced with the O-GEHL predictor and
// reused by TAGE. Folded is the reference definition of a fold: O-GEHL
// runs it directly, and TAGE packs three folds per table into one word
// that its tests check against it.
package history

import (
	"fmt"
	"math"
)

// Buffer is a circular buffer of branch-outcome bits. Bit(0) is the outcome
// of the most recently pushed branch. The capacity is rounded up to a power
// of two so that indexing is a mask.
//
// The bits are packed 64 to a uint64 word, bit p of the buffer at bit p%64
// of word p/64, so a read is one load and a shift and the whole 300-bit
// history of the largest TAGE fits in eight words.
type Buffer struct {
	words []uint64
	head  int // physical index of the most recent bit
	mask  int // size-1: size is a power of two, fixed at construction
}

// NewBuffer returns a buffer able to serve Bit(i) for i in [0, capacity].
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity+2 {
		size <<= 1
	}
	return &Buffer{words: make([]uint64, (size+63)/64), mask: size - 1}
}

// Push records the outcome of a new branch as the most recent history bit.
//
//repro:hotpath
func (b *Buffer) Push(taken bool) {
	b.head = (b.head - 1) & b.mask
	var bit uint64
	if taken {
		bit = 1
	}
	w := &b.words[b.head>>6]
	sh := uint(b.head) & 63
	*w = *w&^(1<<sh) | bit<<sh
}

// Bit returns the i-th most recent outcome bit (0 = newest). i must be less
// than the buffer capacity.
//
//repro:hotpath
func (b *Buffer) Bit(i int) uint8 {
	p := (b.head + i) & b.mask
	return uint8(b.words[p>>6]>>(uint(p)&63)) & 1
}

// Len returns the number of bits the buffer can address.
//
//repro:hotpath
func (b *Buffer) Len() int { return b.mask + 1 }

// Folded is an incrementally maintained compression ("cyclic shift
// register") of the most recent origLen history bits into compLen bits, as
// used by the TAGE/PPM-like predictors to fold a long global history into a
// table index or tag without rehashing the whole history on every branch.
//
// After every Buffer.Push, call Update exactly once with the same buffer.
type Folded struct {
	comp     uint32
	origLen  int
	compLen  int
	outPoint uint
	mask     uint32
}

// NewFolded returns a folded image of the most recent origLen bits
// compressed into compLen bits. compLen must be in [1, 31]: the wrap bit
// of a full 32-bit register would fall off the top of the shift, and
// bounding the width lets Update mask its shift counts to 31 for free.
// origLen must be non-negative.
func NewFolded(origLen, compLen int) *Folded {
	if compLen < 1 || compLen > 31 {
		panic(fmt.Sprintf("history: invalid folded compression length %d", compLen))
	}
	if origLen < 0 {
		panic(fmt.Sprintf("history: invalid folded original length %d", origLen))
	}
	return &Folded{
		origLen:  origLen,
		compLen:  compLen,
		outPoint: uint(origLen % compLen),
		mask:     (uint32(1) << compLen) - 1,
	}
}

// Update folds the newest history bit in and the bit leaving the origLen
// window out. It must be called once per Buffer.Push, after the push.
//
// Both shift counts are below compLen <= 31 by construction; the & 31
// masks are no-ops that let the compiler drop its oversized-shift guards.
//
//repro:hotpath
func (f *Folded) Update(b *Buffer) {
	f.comp = (f.comp << 1) | uint32(b.Bit(0))
	f.comp ^= uint32(b.Bit(f.origLen)) << (f.outPoint & 31)
	f.comp ^= f.comp >> (uint(f.compLen) & 31)
	f.comp &= f.mask
}

// Value returns the current compLen-bit folded history.
//
//repro:hotpath
func (f *Folded) Value() uint32 { return f.comp }

// Reset clears the folded state (used together with clearing the buffer).
func (f *Folded) Reset() { f.comp = 0 }

// OrigLen returns the length of the history window being folded.
func (f *Folded) OrigLen() int { return f.origLen }

// CompLen returns the compressed width in bits.
func (f *Folded) CompLen() int { return f.compLen }

// Path is a short path-history register: the low bit of each branch PC is
// shifted in, keeping the last width bits. TAGE hashes it into the table
// index to break ties between different paths with the same outcome history.
type Path struct {
	value uint32
	width uint
	// mask is (1<<width)-1, computed once: width 32 is legal, so a
	// per-push shift by width could not be bounded below 32.
	mask uint32
}

// NewPath returns a path history register of the given width (≤ 32).
func NewPath(width uint) *Path {
	if width > 32 {
		width = 32
	}
	return &Path{width: width, mask: uint32(1)<<width - 1}
}

// Push shifts in the low bit of pc.
//
//repro:hotpath
func (p *Path) Push(pc uint64) {
	p.value = ((p.value << 1) | uint32(pc&1)) & p.mask
}

// Value returns the current path history bits.
//
//repro:hotpath
func (p *Path) Value() uint32 { return p.value }

// Width returns the register width in bits.
func (p *Path) Width() uint { return p.width }

// GeometricLengths returns n history lengths forming a geometric series from
// min to max inclusive: L(1)=min, L(n)=max, L(i)=round(min·α^(i-1)) with
// α=(max/min)^(1/(n-1)). Duplicate rounded values are bumped to keep the
// series strictly increasing, as in the O-GEHL/TAGE papers.
func GeometricLengths(min, max, n int) []int {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []int{max}
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	alpha := math.Pow(float64(max)/float64(min), 1/float64(n-1))
	out := make([]int, n)
	for i := 0; i < n; i++ {
		l := int(float64(min)*math.Pow(alpha, float64(i)) + 0.5)
		out[i] = l
	}
	out[0] = min
	out[n-1] = max
	// Enforce strict monotonicity after rounding.
	for i := 1; i < n; i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	if out[n-1] < max {
		out[n-1] = max
	}
	return out
}
