// Session snapshot codec: the durable form of one serve session — its
// key, labels, running tallies and the full predictor snapshot — sealed
// with a version byte and a CRC32 like the predictor envelope it wraps.
// A blob is self-contained: a restarted server resumes the session from
// its checkpoint, and the resumed session continues bit-identically to
// the snapshotted one, which is what makes crash recovery exact rather
// than approximate.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/statecodec"
)

// SessionSnapshotVersion is the current session snapshot format version.
const SessionSnapshotVersion = 1

// SessionSnapshot is the decoded durable form of one session.
type SessionSnapshot struct {
	// Key is the session's durable identity (never empty in a valid
	// snapshot — anonymous sessions are not checkpointed).
	Key string
	// Res carries the session's tallies and labels at the cut point.
	// Trace is always empty and FinalProbability zero: both are
	// recomputed from the live backend, not persisted.
	Res sim.Result
	// Predictor is the predictor.AppendSnapshot envelope of the backend.
	Predictor []byte
}

// AppendSessionSnapshot appends a versioned, checksummed session snapshot
// to dst:
//
//	version byte | key | label | mode byte | branches | instructions |
//	NumClasses × (preds, misps)            | predictor blob | CRC32 LE32
//
// where strings and the predictor blob are uvarint length-prefixed and
// the counters are the tally codec's (appendTallies, without the
// probability). Live sessions encode the
// same layout in place (Session.AppendSnapshot); this form wraps an
// already-encoded predictor blob.
func AppendSessionSnapshot(dst []byte, snap SessionSnapshot) []byte {
	start := len(dst)
	dst = appendSessionHead(dst, snap.Key, &snap.Res)
	dst = statecodec.AppendBytes(dst, snap.Predictor)
	return sealSessionSnapshot(dst, start)
}

// appendSessionHead appends every session-snapshot field before the
// predictor blob.
func appendSessionHead(dst []byte, key string, res *sim.Result) []byte {
	dst = append(dst, SessionSnapshotVersion)
	dst = statecodec.AppendString(dst, key)
	dst = statecodec.AppendString(dst, res.Config)
	dst = append(dst, byte(res.Mode))
	return appendTallies(dst, res, false)
}

// sealSessionSnapshot appends the CRC over the snapshot begun at start.
func sealSessionSnapshot(dst []byte, start int) []byte {
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeSessionSnapshot verifies and decodes a session snapshot blob.
// The predictor blob is cloned out of the input, so the snapshot stays
// valid after the caller's buffer is reused. Failures wrap
// predictor.ErrSnapshot — they are fatal, not retryable.
func DecodeSessionSnapshot(blob []byte) (SessionSnapshot, error) {
	var snap SessionSnapshot
	if len(blob) < 5 {
		return snap, fmt.Errorf("%w: session snapshot %d bytes", predictor.ErrSnapshot, len(blob))
	}
	body, sum := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sum); got != want {
		return snap, fmt.Errorf("%w: session snapshot checksum %08x, want %08x", predictor.ErrSnapshot, got, want)
	}
	r := statecodec.NewReader(body)
	if v := r.Byte(); r.Err() == nil && v != SessionSnapshotVersion {
		return snap, fmt.Errorf("%w: session snapshot version %d, want %d", predictor.ErrSnapshot, v, SessionSnapshotVersion)
	}
	key := r.Blob()
	label := r.Blob()
	mode := r.Byte()
	res, terr := readTallies(r, false)
	pb := r.Blob()
	if err := r.Finish(); err != nil {
		return snap, fmt.Errorf("%w: session snapshot: %v", predictor.ErrSnapshot, err)
	}
	if len(key) == 0 || len(key) > maxSessionKey {
		return snap, fmt.Errorf("%w: session snapshot key length %d", predictor.ErrSnapshot, len(key))
	}
	if len(label) > maxConfigName {
		return snap, fmt.Errorf("%w: session snapshot label length %d", predictor.ErrSnapshot, len(label))
	}
	if core.AutomatonMode(mode) > core.ModeAdaptive {
		return snap, fmt.Errorf("%w: session snapshot mode %d", predictor.ErrSnapshot, mode)
	}
	if terr != nil {
		return snap, fmt.Errorf("%w: session snapshot: %v", predictor.ErrSnapshot, terr)
	}
	snap.Key = string(key)
	snap.Res = res
	snap.Res.Config = string(label)
	snap.Res.Mode = core.AutomatonMode(mode)
	snap.Predictor = append([]byte(nil), pb...)
	return snap, nil
}
