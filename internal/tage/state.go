// Snapshot codec for the TAGE predictor. Because the whole predictor
// lives in one packed arena (bimodal words + one-word tagged entries),
// the bulk of the state is a single length-prefixed word copy; the rest
// is the folded-history words, the global/path history, the
// USE_ALT_ON_NA counter, the aging tick and the allocation RNG stream.
// Per-prediction scratch (lastObs, pos, tagc, ...) is dead between a
// resolved Update and the next Predict — the only points snapshots are
// taken at — so it is not serialized; RestoreState clears it.
package tage

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/statecodec"
)

// AppendState appends the predictor's mutable state to dst.
func (p *Predictor) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.arena)))
	off := len(dst)
	dst = slices.Grow(dst, 4*len(p.arena))[:off+4*len(p.arena)]
	words := dst[off:]
	for _, w := range p.arena {
		binary.LittleEndian.PutUint32(words, w)
		words = words[4:]
	}
	// Three folds per table, written as one flat count of separate values
	// so the byte stream does not depend on how the folds are stored.
	fe := &p.fe
	dst = binary.AppendUvarint(dst, uint64(3*len(fe.folds)))
	for i := range fe.folds {
		idx, tag, tag2 := fe.fold.fields(fe.folds[i].w)
		dst = binary.AppendUvarint(dst, idx)
		dst = binary.AppendUvarint(dst, tag)
		dst = binary.AppendUvarint(dst, tag2)
	}
	dst = fe.ghist.AppendState(dst)
	dst = binary.AppendUvarint(dst, uint64(fe.phist.Value()))
	dst = binary.AppendVarint(dst, int64(p.useAltOnNA))
	dst = binary.AppendUvarint(dst, p.tick)
	dst = binary.LittleEndian.AppendUint64(dst, p.rng.State())
	return dst
}

// RestoreState reads state written by AppendState into p, which must
// have been built from the same configuration (the recorded arena and
// fold lengths are validated against p's allocated structures). Restore
// is bit-identical: the restored predictor continues exactly like the
// snapshotted one.
func (p *Predictor) RestoreState(r *statecodec.Reader) error {
	words := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if words != uint64(len(p.arena)) {
		return fmt.Errorf("%w: tage arena %d words, want %d", statecodec.ErrCorrupt, words, len(p.arena))
	}
	for i := range p.arena {
		p.arena[i] = r.Uint32()
	}
	fe := &p.fe
	nf := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if nf != uint64(3*len(fe.folds)) {
		return fmt.Errorf("%w: tage folds %d, want %d", statecodec.ErrCorrupt, nf, 3*len(fe.folds))
	}
	for i := range fe.folds {
		idx, tag, tag2 := r.Uvarint(), r.Uvarint(), r.Uvarint()
		fe.folds[i].w = fe.fold.pack(idx, tag, tag2)
	}
	if err := fe.ghist.RestoreState(r); err != nil {
		return err
	}
	fe.phist.SetValue(uint32(r.Uvarint()))
	fe.hash()
	p.rows, p.following = fe.row, false
	ualt := r.Varint()
	p.tick = r.Uvarint()
	rngState := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if ualt < -8 || ualt > 7 {
		return fmt.Errorf("%w: tage useAltOnNA %d out of range", statecodec.ErrCorrupt, ualt)
	}
	p.useAltOnNA = int8(ualt)
	p.rng.SetState(rngState)
	p.havePred = false
	return nil
}
