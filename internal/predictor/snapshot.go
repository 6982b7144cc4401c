package predictor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/statecodec"
)

// SnapshotVersion is the current snapshot envelope format version. A
// restore rejects any other value: the codec makes no cross-version
// promises, it promises bit-identity within a version.
const SnapshotVersion = 1

// ErrSnapshot reports an unusable snapshot blob — truncated, corrupt,
// checksum-mismatched, or written by a different format version. It is
// a fatal (non-retryable) condition: retrying the same blob cannot
// succeed.
var ErrSnapshot = errors.New("predictor: invalid snapshot")

// Snapshotter extends Backend with state serialization. Every backend
// the registry builds implements it; AppendSnapshot refuses backends
// that do not.
//
// AppendState appends the backend's mutable state; RestoreState reads
// it back into a backend built from the same spec, after which the
// restored backend continues bit-identically to the snapshotted one.
// Both must only be called between a resolved Update and the next
// Predict — the cut points at which per-prediction scratch is dead.
type Snapshotter interface {
	Backend
	AppendState(dst []byte) []byte
	RestoreState(r *statecodec.Reader) error
}

// SnapshotSpec returns the canonical spec that rebuilds b — the recipe
// recorded in its snapshot envelope. Registry-built non-TAGE backends
// carry their spec; a *core.Estimator (registry-built or constructed
// directly) is reverse-mapped through TAGESpec.
func SnapshotSpec(b Backend) (Spec, error) {
	switch v := b.(type) {
	case interface{ SnapshotSpec() Spec }:
		return v.SnapshotSpec(), nil
	case *core.Estimator:
		return TAGESpec(v.Config(), v.Options()), nil
	}
	return Spec{}, fmt.Errorf("%w: backend %q has no spec", ErrSnapshot, b.Label())
}

// AppendSnapshot appends a versioned, checksummed snapshot of b to dst:
//
//	version byte | spec (uvarint length + string) |
//	state (uvarint length + bytes)               | CRC32-IEEE (LE32)
//
// The checksum covers everything before it. The spec is the canonical
// rebuild recipe, so the blob is self-contained: RestoreSnapshot needs
// nothing but the registry.
func AppendSnapshot(dst []byte, b Backend) ([]byte, error) {
	sp, err := SnapshotSpec(b)
	if err != nil {
		return dst, err
	}
	return AppendSnapshotSpec(dst, b, sp.String())
}

// AppendSnapshotSpec is AppendSnapshot with b's canonical spec string
// (SnapshotSpec(b).String()) supplied by the caller, which resolves it
// once per backend: the state is encoded in place into dst, so a reused
// buffer makes the whole snapshot allocation-free.
func AppendSnapshotSpec(dst []byte, b Backend, spec string) ([]byte, error) {
	sn, ok := b.(Snapshotter)
	if !ok {
		return dst, fmt.Errorf("%w: backend %q does not support snapshots", ErrSnapshot, b.Label())
	}
	start := len(dst)
	dst = append(dst, SnapshotVersion)
	dst = statecodec.AppendString(dst, spec)
	state := len(dst)
	dst = statecodec.BeginBlob(dst)
	dst = sn.AppendState(dst)
	dst = statecodec.EndBlob(dst, state)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// DecodeSnapshot verifies blob's version and checksum and returns the
// recorded spec string and state payload (sub-slices of blob).
func DecodeSnapshot(blob []byte) (spec string, state []byte, err error) {
	if len(blob) < 5 {
		return "", nil, fmt.Errorf("%w: %d bytes", ErrSnapshot, len(blob))
	}
	body, sum := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sum); got != want {
		return "", nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrSnapshot, got, want)
	}
	r := statecodec.NewReader(body)
	if v := r.Byte(); r.Err() == nil && v != SnapshotVersion {
		return "", nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshot, v, SnapshotVersion)
	}
	specBytes := r.Blob()
	state = r.Blob()
	if err := r.Finish(); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if len(specBytes) > MaxSpecLen {
		return "", nil, fmt.Errorf("%w: spec length %d", ErrSnapshot, len(specBytes))
	}
	return string(specBytes), state, nil
}

// RestoreSnapshot rebuilds a backend from a blob written by
// AppendSnapshot: parse the recorded spec, build a fresh instance
// through the registry, then restore the serialized state into it.
func RestoreSnapshot(blob []byte) (Backend, error) {
	spec, state, err := DecodeSnapshot(blob)
	if err != nil {
		return nil, err
	}
	sp, err := Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	b, err := Build(sp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	sn, ok := b.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: backend %q does not support snapshots", ErrSnapshot, b.Label())
	}
	r := statecodec.NewReader(state)
	if err := sn.RestoreState(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return b, nil
}
