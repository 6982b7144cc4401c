// Snapshot codec for the perceptron predictor: the weight table plus
// the ±1 global-history shift register. History values are packed one
// bit per entry; the initial 0 state and +1 are both encoded as 1,
// which is behaviorally exact because every consumer tests `>= 0`.
// lastSum is per-prediction scratch, dead at snapshot cut points.
package perceptron

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/statecodec"
)

// AppendState appends the weight table and history to dst.
func (p *Predictor) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.weights)))
	dst = binary.AppendUvarint(dst, uint64(p.histLen))
	for _, row := range p.weights {
		for _, w := range row {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(w))
		}
	}
	off, n := len(dst), (p.histLen+7)/8
	// Grown and cleared in place: append(dst, make(...)...) allocates under -race.
	dst = slices.Grow(dst, n)[:off+n]
	packed := dst[off:]
	clear(packed)
	for i, h := range p.ghist {
		if h >= 0 {
			packed[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return dst
}

// RestoreState reads state written by AppendState into p, validating
// the recorded geometry against p's configuration.
func (p *Predictor) RestoreState(r *statecodec.Reader) error {
	n := r.Uvarint()
	hl := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if n != uint64(len(p.weights)) || hl != uint64(p.histLen) {
		return fmt.Errorf("%w: perceptron geometry %dx%d, want %dx%d",
			statecodec.ErrCorrupt, n, hl, len(p.weights), p.histLen)
	}
	raw := r.Bytes(len(p.weights) * (p.histLen + 1) * 2)
	packed := r.Bytes((p.histLen + 7) / 8)
	if err := r.Err(); err != nil {
		return err
	}
	off := 0
	for _, row := range p.weights {
		for i := range row {
			row[i] = int16(binary.LittleEndian.Uint16(raw[off:]))
			off += 2
		}
	}
	for i := range p.ghist {
		if packed[i/8]>>(uint(i)%8)&1 != 0 {
			p.ghist[i] = 1
		} else {
			p.ghist[i] = -1
		}
	}
	return nil
}
