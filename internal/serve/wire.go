// Package serve is the online prediction service: it hosts many
// concurrent predictor sessions — each owning one core.Estimator — behind
// a compact length-prefixed binary wire protocol, so the storage-free
// confidence estimate is available as a live, queryable signal instead of
// a post-hoc table.
//
// The protocol is request/response over one TCP connection:
//
//	frame  := length uint32 LE | type byte | payload | crc uint32 LE
//
// where length counts the type byte, the payload and the 4-byte CRC
// trailer. The trailer is CRC-32C (Castagnoli) over type byte + payload:
// CRC32 detects every single-bit and every sub-32-bit burst error, so a
// corrupted-in-flight frame is always rejected (ErrCorrupt, a protocol
// error) instead of silently decoding into wrong-but-valid varints. A
// client opens a session (FrameOpen → FrameOpened), streams branch
// batches (FrameBatch → FramePredictions) — the batch payload is
// trace.AppendRecords's output, the record codec the TBT1 trace file
// uses too — and closes the
// session (FrameClose → FrameStats), receiving the server's per-class
// tallies, which are bit-identical to an offline sim.Run over the same
// stream. Protocol violations answer with FrameError.
//
// Batching and backpressure are structural: a connection handler decodes
// and serves one frame at a time, responses to pipelined requests are
// coalesced into one write, and a client that stops reading eventually
// blocks the handler's write — the TCP window is the queue, so a slow
// consumer cannot make the server buffer unboundedly.
//
// # Overload and misbehaving peers
//
// On top of the structural backpressure the server sheds load
// explicitly: when the engine's global inflight-batch budget
// (EngineConfig.MaxInflight) is exhausted, FrameBatch answers with
// FrameBusy instead of serving — a retryable rejection the client backs
// off from with seeded jitter (ClientConfig.BusyRetries) — and a
// per-connection cap on buffered responses bounds what one pipelining
// connection can queue. Slow or stalled peers are evicted by deadline:
// Config.FrameTimeout bounds how long a peer may dawdle mid-frame once
// its first header byte arrives, and a fixed 30 s write deadline bounds
// a flush against a reader that stopped draining. Eviction closes the
// connection only — keyed sessions survive and fold their tallies
// exactly once through the usual retire/checkpoint path.
//
// # Durability
//
// Sessions opened with a key are durable. Give the server a
// Config.StateDir (a bare Engine takes a CheckpointStore through
// AttachStore) and the engine checkpoints dirty keyed sessions
// periodically, on eviction and on graceful shutdown; a restarted server
// restores every checkpoint before accepting traffic. The checkpoint is
// the versioned session snapshot — spec line, predictor state image,
// per-class tallies, CRC — which is also fetchable live over the wire
// (FrameSnapGet → FrameSnap).
//
// Recovery has one recipe. A client that lost its server mid-replay
// redials, reopens the key and calls ClientSession.Replay again. The
// reopen resumes the live session, or restores its checkpoint, and
// FrameOpened carries the session's tallies, read at the same instant
// as its branch cursor. Replay adopts those tallies and rewinds its
// trace to that cursor, so the final tallies stay bit-identical to an
// uninterrupted offline sim.Run even across a kill -9 (crash_test.go
// proves exactly that). Reopening a live key moves the session to a new
// id, so a batch still in flight on a connection the client abandoned
// cannot be served after the reopen handed out the cursor.
package serve

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/statecodec"
	"repro/internal/trace"
)

// Frame types. Client→server types are odd, server→client even.
const (
	// FrameOpen opens a session: a backend spec (uvarint length + bytes,
	// at most predictor.MaxSpecLen; empty selects the server's default
	// spec) followed by a session key (uvarint length + bytes; empty
	// means anonymous). The spec may name any registered backend family;
	// a non-empty key makes the session durable (see OpenRequest.Key).
	FrameOpen byte = 0x01
	// FrameOpened acknowledges FrameOpen with the session id (uvarint),
	// the session's automaton mode (one byte; standard for backends
	// without one), the resolved backend label (uvarint length + bytes) —
	// canonical even when the request named an alias or relied on the
	// server default — and then the session's tallies in FrameStats's
	// layout. The counts are zero for a fresh session; a keyed open that
	// resumed a live or checkpointed session carries its tallies, and
	// their branch count is the client's replay cursor. (Before the
	// tallies were added, the branch count sat alone after the id, so a
	// client of that layout rejects this frame.)
	FrameOpened byte = 0x02
	// FrameBatch streams branches into a session: session id uvarint,
	// record count uvarint, then count records in the TBT1 record codec
	// (trace.AppendRecords), PC deltas restarting from 0 each batch.
	FrameBatch byte = 0x03
	// FramePredictions answers FrameBatch: session id uvarint, count
	// uvarint, then one grade byte per branch (see EncodeGrade).
	FramePredictions byte = 0x04
	// FrameClose retires a session: session id uvarint.
	FrameClose byte = 0x05
	// FrameStats answers FrameClose with the session's final tallies:
	// session id uvarint, then the tallies (appendTallies): branches
	// uvarint, instructions uvarint, per class (NumClasses of them, in
	// class order) preds and misps uvarints, and the saturation
	// probability (float64 LE bits).
	FrameStats byte = 0x06
	// FrameError reports a request failure: code uvarint, message
	// (uvarint length + bytes). The connection stays usable unless the
	// failure was a framing error. Breaks the odd/even convention (odd
	// but server→client).
	FrameError byte = 0x07
	// FrameSnapGet requests a durable snapshot of a live session: session
	// id uvarint. Answered with FrameSnap.
	FrameSnapGet byte = 0x09
	// FrameSnap answers FrameSnapGet: session id uvarint, snapshot blob
	// (uvarint length + bytes). The blob is the session snapshot
	// (AppendSessionSnapshot) a checkpoint stores. 0x0B is unassigned: a
	// peer that sends it gets the unknown-frame close.
	FrameSnap byte = 0x0A
	// FrameBusy rejects a FrameBatch under overload: session id uvarint,
	// retry-after hint in milliseconds uvarint (0 = client's choice). The
	// batch was NOT applied — the session cursor did not move — so the
	// client must retry the same batch after backing off; the connection
	// stays usable.
	FrameBusy byte = 0x0C
)

// Protocol limits. Frames above MaxFrame or batches above MaxBatch are
// rejected as malformed — they bound what a corrupt or hostile length
// prefix can make either side allocate.
const (
	MaxFrame      = 1 << 20
	MaxBatch      = 1 << 16
	maxConfigName = 256
	maxSpecLen    = predictor.MaxSpecLen
	maxErrMsg     = 1 << 12
	maxSessionKey = 128
)

// Error codes carried by FrameError.
const (
	ErrCodeMalformed      uint64 = 1 // undecodable request payload
	ErrCodeUnknownSession uint64 = 2 // session id not live
	ErrCodeSessionLimit   uint64 = 3 // max-sessions cap reached
	ErrCodeBadConfig      uint64 = 4 // unknown predictor config/options
	ErrCodeSnapshot       uint64 = 5 // unusable snapshot blob or state
	ErrCodeCorrupt        uint64 = 6 // frame failed its CRC or length check — bytes mangled in flight
)

// ErrProtocol reports a malformed frame or payload: the stream's contents
// violate the protocol, so retrying the same bytes cannot succeed.
var ErrProtocol = fmt.Errorf("serve: protocol error")

// ErrCorrupt reports a frame whose CRC trailer does not match its
// contents, or whose length prefix (which the CRC does not cover) is out
// of range: the bytes were mangled in flight. It wraps ErrProtocol —
// fatal for the connection, and NOT blindly retryable (a corrupt
// *response* means the server may already have applied the request;
// resending would double-apply). A keyed session recovers from it
// anyway by reopening its key: the reopen returns the server's
// authoritative cursor and tallies, and Replay continues from them
// instead of retrying bytes.
var ErrCorrupt = fmt.Errorf("%w: frame checksum mismatch", ErrProtocol)

// ErrIO reports a transport-level failure (truncated read mid-frame, a
// reset connection). Unlike ErrProtocol it says nothing about the peer's
// correctness — a client may retry on a fresh connection (IsRetryable).
var ErrIO = fmt.Errorf("serve: io error")

// RemoteError is a server-reported request failure (FrameError).
type RemoteError struct {
	Code    uint64
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: remote error %d: %s", e.Code, e.Message)
}

// BusyError is a server load-shed rejection (FrameBusy): the batch was
// not applied and should be retried after backing off. IsRetryable
// reports true for it; Client.Predict retries it internally up to its
// busy-retry budget.
type BusyError struct {
	// Session is the session id the rejection names.
	Session uint64
	// RetryAfterMillis is the server's backoff hint (0 = client's choice).
	RetryAfterMillis uint64
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: server busy (session %d, retry-after %dms)", e.Session, e.RetryAfterMillis)
}

// crcTable is the Castagnoli polynomial table for the frame CRC trailer
// (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame appends a frame header (length placeholder + type byte) for
// an in-construction frame and returns the extended buffer. The caller
// appends the payload and finishes with EndFrame(dst, start) where start
// was len(dst) before BeginFrame.
//
//repro:hotpath
func BeginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ)
}

// EndFrame seals the frame whose header was appended at start: it
// appends the CRC-32C trailer over type byte + payload and patches the
// length prefix (which counts type + payload + trailer).
//
//repro:hotpath
func EndFrame(dst []byte, start int) []byte {
	sum := crc32.Checksum(dst[start+4:], crcTable)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// ReadFrame reads one frame from br into buf (grown as needed), returning
// the type, the payload (a sub-slice of the returned buffer, valid until
// the next ReadFrame with the same buffer) and the possibly-grown buffer.
// io.EOF is returned unwrapped when the stream ends cleanly between
// frames. The length prefix is bounds-checked (5..MaxFrame — a frame is
// at least type byte + CRC trailer) BEFORE the payload buffer is sized,
// so a corrupt or hostile prefix cannot force a huge allocation, and the
// CRC trailer is verified before any payload byte is interpreted
// (ErrCorrupt on mismatch).
func ReadFrame(br *bufio.Reader, buf []byte) (typ byte, payload, bufOut []byte, err error) {
	return readFrame(br, buf, nil)
}

// readFrame is ReadFrame plus an optional hook invoked after the first
// header byte arrives. The server uses the hook to arm its mid-frame
// read deadline: a peer may idle indefinitely *between* frames, but once
// it has started one it must finish within Config.FrameTimeout or be
// evicted as a slow reader.
func readFrame(br *bufio.Reader, buf []byte, started func()) (typ byte, payload, bufOut []byte, err error) {
	// The length prefix is read byte by byte: a header array passed to
	// io.ReadFull would escape through the io.Reader and cost a heap
	// allocation per frame.
	var length uint32
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i == 0 && err == io.EOF {
				return 0, nil, buf, io.EOF
			}
			if i > 1 && err == io.EOF {
				// Match io.ReadFull over the rest of the header, which
				// reports a partial read as io.ErrUnexpectedEOF.
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, buf, fmt.Errorf("%w: header: %w", ErrIO, err)
		}
		if i == 0 && started != nil {
			started()
		}
		length |= uint32(b) << (8 * i)
	}
	if length < 5 || length > MaxFrame {
		// The CRC does not cover the length prefix, so a mangled prefix
		// is corruption in flight exactly like a mangled body.
		return 0, nil, buf, fmt.Errorf("%w: frame length %d out of range", ErrCorrupt, length)
	}
	n := int(length)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: body: %w", ErrIO, err)
	}
	want := binary.LittleEndian.Uint32(buf[n-4:])
	if crc32.Checksum(buf[:n-4], crcTable) != want {
		return 0, nil, buf, ErrCorrupt
	}
	return buf[0], buf[1 : n-4], buf, nil
}

// uvarint decodes one uvarint with bounds checking.
//
//repro:hotpath
func uvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: truncated uvarint", ErrProtocol)
	}
	return v, n, nil
}

// OpenRequest is an open request. Only Spec and Key cross the wire:
// Config and Options are a typed builder for a TAGE spec, resolved by
// spec() before the request is encoded or served.
type OpenRequest struct {
	// Config names a TAGE configuration ("16K", "64K", "256K" or an
	// alias tage.ConfigByName accepts); empty with non-zero Options
	// selects 64K. Ignored when Spec is set.
	Config string
	// Options configures the TAGE estimator exactly as
	// core.NewEstimator. Ignored when Spec is set.
	Options core.Options
	// Spec selects any registered backend family (predictor.New), so
	// heterogeneous sessions (bimodal next to TAGE next to perceptron)
	// share one server. A request with no Spec, Config or Options gets
	// the server's default spec.
	Spec string
	// Key, when non-empty, names a durable session: an open with a key
	// held by a live session resumes that session (the request's spec is
	// ignored), an open whose key has a checkpoint on the server's state
	// dir restores it, and only keyed sessions are checkpointed. At most
	// maxSessionKey bytes.
	Key string
}

// spec resolves the request to the spec string FrameOpen carries: Spec
// when set, "" (the server default) for an all-empty request, and
// otherwise the TAGE spec for Config and Options. An unknown Config
// passes through unresolved, so the server answers it with
// ErrCodeBadConfig.
func (r OpenRequest) spec() string {
	if r.Spec != "" || r.Config == "" && r.Options == (core.Options{}) {
		return r.Spec
	}
	return predictor.TAGEVariantSpec(cmp.Or(r.Config, "64K"), r.Options)
}

// AppendOpen appends a complete FrameOpen to dst.
func AppendOpen(dst []byte, req OpenRequest) []byte {
	spec := req.spec()
	start := len(dst)
	dst = BeginFrame(dst, FrameOpen)
	dst = binary.AppendUvarint(dst, uint64(len(spec)))
	dst = append(dst, spec...)
	dst = binary.AppendUvarint(dst, uint64(len(req.Key)))
	dst = append(dst, req.Key...)
	return EndFrame(dst, start)
}

// DecodeOpen decodes a FrameOpen payload into a request carrying only
// Spec and Key. It checks lengths alone: whether the spec names a
// buildable backend is predictor.New's job on the serving side.
func DecodeOpen(payload []byte) (OpenRequest, error) {
	spec, payload, err := lenPrefixed(payload, maxSpecLen, "spec")
	if err != nil {
		return OpenRequest{}, err
	}
	key, payload, err := lenPrefixed(payload, maxSessionKey, "session key")
	if err != nil {
		return OpenRequest{}, err
	}
	if len(payload) != 0 {
		return OpenRequest{}, fmt.Errorf("%w: %d trailing bytes after open request", ErrProtocol, len(payload))
	}
	return OpenRequest{Spec: spec, Key: key}, nil
}

// lenPrefixed decodes one uvarint-length-prefixed string of at most
// limit bytes and returns it with the rest of src.
func lenPrefixed(src []byte, limit uint64, what string) (string, []byte, error) {
	n, k, err := uvarint(src)
	if err != nil {
		return "", nil, fmt.Errorf("%s length: %w", what, err)
	}
	src = src[k:]
	if n > limit || n > uint64(len(src)) {
		return "", nil, fmt.Errorf("%w: %s length %d", ErrProtocol, what, n)
	}
	return string(src[:n]), src[n:], nil
}

// Opened is the decoded FrameOpened payload.
type Opened struct {
	ID uint64
	// Res is the session as the open found it: its backend label
	// (Config), automaton mode and tallies, with the saturation
	// probability in FinalProbability. Res.Branches is the replay cursor.
	// Trace is never set.
	Res sim.Result
}

// AppendOpened appends a complete FrameOpened to dst.
func AppendOpened(dst []byte, o Opened) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameOpened)
	dst = binary.AppendUvarint(dst, o.ID)
	dst = append(dst, byte(o.Res.Mode))
	dst = statecodec.AppendString(dst, o.Res.Config)
	dst = appendTallies(dst, &o.Res, true)
	return EndFrame(dst, start)
}

// DecodeOpened decodes a FrameOpened payload.
func DecodeOpened(payload []byte) (Opened, error) {
	r := statecodec.NewReader(payload)
	id := r.Uvarint()
	mode := core.AutomatonMode(r.Byte())
	label := r.Blob()
	res, err := readTallies(r, true)
	if err == nil {
		err = r.Finish()
	}
	if err == nil && mode > core.ModeAdaptive {
		err = fmt.Errorf("mode %d", mode)
	}
	if err == nil && len(label) > maxConfigName {
		err = fmt.Errorf("label length %d", len(label))
	}
	if err != nil {
		return Opened{}, fmt.Errorf("%w: opened: %v", ErrProtocol, err)
	}
	res.Mode = mode
	res.Config = string(label)
	return Opened{ID: id, Res: res}, nil
}

// AppendSnapGet appends a complete FrameSnapGet to dst.
func AppendSnapGet(dst []byte, sessionID uint64) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameSnapGet)
	dst = binary.AppendUvarint(dst, sessionID)
	return EndFrame(dst, start)
}

// DecodeSnapGet decodes a FrameSnapGet payload.
func DecodeSnapGet(payload []byte) (uint64, error) {
	id, n, err := uvarint(payload)
	if err != nil || n != len(payload) {
		return 0, fmt.Errorf("%w: snapget payload", ErrProtocol)
	}
	return id, nil
}

// AppendSnap appends a complete FrameSnap to dst.
func AppendSnap(dst []byte, sessionID uint64, blob []byte) []byte {
	start := len(dst)
	return endSnap(append(beginSnap(dst, sessionID), blob...), start)
}

// beginSnap opens a FrameSnap whose blob the caller appends in place;
// endSnap(dst, start) seals it, start being len(dst) before beginSnap.
func beginSnap(dst []byte, sessionID uint64) []byte {
	dst = BeginFrame(dst, FrameSnap)
	dst = binary.AppendUvarint(dst, sessionID)
	return statecodec.BeginBlob(dst)
}

func endSnap(dst []byte, start int) []byte {
	_, n := binary.Uvarint(dst[start+5:]) // the session id beginSnap wrote
	return EndFrame(statecodec.EndBlob(dst, start+5+n), start)
}

// DecodeSnap decodes a FrameSnap payload. The returned blob is a
// sub-slice of payload, valid until the frame buffer is reused.
func DecodeSnap(payload []byte) (uint64, []byte, error) {
	id, n, err := uvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("snap session id: %w", err)
	}
	payload = payload[n:]
	blobLen, n, err := uvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("snap blob length: %w", err)
	}
	payload = payload[n:]
	if blobLen > MaxFrame || blobLen != uint64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: snap blob length %d", ErrProtocol, blobLen)
	}
	return id, payload, nil
}

// AppendBatch appends a complete FrameBatch to dst. PC deltas restart
// from 0 at the head of every batch, so batches are self-contained.
//
//repro:hotpath
func AppendBatch(dst []byte, sessionID uint64, records []trace.Branch) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameBatch)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = binary.AppendUvarint(dst, uint64(len(records)))
	return EndFrame(trace.AppendRecords(dst, records), start)
}

// DecodeBatch decodes a FrameBatch payload, appending the records into
// records[:0] (pass a reused slice to avoid allocation). A record count
// over MaxBatch, or one the payload's bytes cannot hold, is rejected
// before records is grown.
//
//repro:hotpath
func DecodeBatch(payload []byte, records []trace.Branch) (sessionID uint64, out []trace.Branch, err error) {
	sessionID, n, err := uvarint(payload)
	if err != nil {
		return 0, records, fmt.Errorf("session id: %w", err)
	}
	payload = payload[n:]
	count, n, err := uvarint(payload)
	if err != nil {
		return 0, records, fmt.Errorf("record count: %w", err)
	}
	payload = payload[n:]
	if count > MaxBatch {
		return 0, records, fmt.Errorf("%w: batch of %d records exceeds limit %d", ErrProtocol, count, MaxBatch)
	}
	out, n, err = trace.DecodeRecords(records[:0], payload, count)
	if err != nil {
		return 0, out, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if n != len(payload) {
		return 0, out, fmt.Errorf("%w: %d trailing bytes after batch", ErrProtocol, len(payload)-n)
	}
	return sessionID, out, nil
}

// Grade is one served prediction: the predicted direction plus the
// storage-free confidence class and its aggregate level.
type Grade struct {
	Pred  bool
	Class core.Class
	Level core.Level
}

// EncodeGrade packs a served prediction into one response byte: bit 0 is
// the predicted direction, bits 1-3 the class, bits 4-5 the level.
//
//repro:hotpath
func EncodeGrade(pred bool, class core.Class, level core.Level) byte {
	g := byte(class)<<1 | byte(level)<<4
	if pred {
		g |= 1
	}
	return g
}

// DecodeGrade unpacks a response byte, validating every field (including
// the class→level aggregation, which the wire cannot legally disagree
// with).
//
//repro:hotpath
func DecodeGrade(g byte) (Grade, error) {
	class := core.Class(g >> 1 & 0x7)
	level := core.Level(g >> 4 & 0x3)
	if g&0xC0 != 0 || class >= core.NumClasses || level >= core.NumLevels || class.Level() != level {
		return Grade{}, fmt.Errorf("%w: invalid grade byte %#02x", ErrProtocol, g)
	}
	return Grade{Pred: g&1 == 1, Class: class, Level: level}, nil
}

// AppendPredictions appends a complete FramePredictions to dst.
//
//repro:hotpath
func AppendPredictions(dst []byte, sessionID uint64, grades []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FramePredictions)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = binary.AppendUvarint(dst, uint64(len(grades)))
	dst = append(dst, grades...)
	return EndFrame(dst, start)
}

// gradeTable holds DecodeGrade's verdict on every byte, so decoding a
// FramePredictions payload is one table load per grade.
var gradeTable = func() (t [256]struct {
	grade Grade
	ok    bool
}) {
	for b := range t {
		g, err := DecodeGrade(byte(b))
		t[b].grade, t[b].ok = g, err == nil
	}
	return t
}()

// DecodePredictions decodes a FramePredictions payload, appending the
// validated grades into grades[:0].
//
//repro:hotpath
func DecodePredictions(payload []byte, grades []Grade) (sessionID uint64, out []Grade, err error) {
	sessionID, n, err := uvarint(payload)
	if err != nil {
		return 0, grades, fmt.Errorf("session id: %w", err)
	}
	payload = payload[n:]
	count, n, err := uvarint(payload)
	if err != nil {
		return 0, grades, fmt.Errorf("grade count: %w", err)
	}
	payload = payload[n:]
	if count > MaxBatch || count != uint64(len(payload)) {
		return 0, grades, fmt.Errorf("%w: grade count %d does not match payload %d", ErrProtocol, count, len(payload))
	}
	out = grades[:0]
	for _, g := range payload {
		e := &gradeTable[g]
		if !e.ok {
			_, err := DecodeGrade(g)
			return 0, out, err
		}
		out = append(out, e.grade)
	}
	return sessionID, out, nil
}

// AppendClose appends a complete FrameClose to dst.
func AppendClose(dst []byte, sessionID uint64) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameClose)
	dst = binary.AppendUvarint(dst, sessionID)
	return EndFrame(dst, start)
}

// DecodeClose decodes a FrameClose payload.
func DecodeClose(payload []byte) (uint64, error) {
	id, n, err := uvarint(payload)
	if err != nil || n != len(payload) {
		return 0, fmt.Errorf("%w: close payload", ErrProtocol)
	}
	return id, nil
}

// appendTallies is the tally codec: FrameStats, FrameOpened and the
// session-snapshot head all encode a session's tallies with it, as
//
//	branches | instructions | NumClasses × (preds, misps) [| probability]
//
// where counters are uvarints and the probability, appended when prob
// is set, is the saturation probability as float64 LE bits. The frames
// carry the probability; a snapshot does not, because a restored
// backend recomputes it. Only per-class tallies travel: Total is their
// exact sum and readTallies rebuilds it.
func appendTallies(dst []byte, res *sim.Result, prob bool) []byte {
	dst = binary.AppendUvarint(dst, res.Branches)
	dst = binary.AppendUvarint(dst, res.Instructions)
	for _, c := range res.Class {
		dst = binary.AppendUvarint(dst, c.Preds)
		dst = binary.AppendUvarint(dst, c.Misps)
	}
	if prob {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(res.FinalProbability))
	}
	return dst
}

// readTallies decodes appendTallies's layout from r and validates it:
// no class mispredicts more often than it predicts, the classes sum to
// the branch count (checked as they accumulate, so a hostile count
// cannot wrap the sum onto it), and the probability lies in [0,1]. It
// returns r's decode error or the first violation, unwrapped: the
// caller classifies it (ErrProtocol on the wire, predictor.ErrSnapshot
// in a snapshot).
func readTallies(r *statecodec.Reader, prob bool) (sim.Result, error) {
	var res sim.Result
	res.Branches = r.Uvarint()
	res.Instructions = r.Uvarint()
	for i := range res.Class {
		res.Class[i] = metrics.Counts{Preds: r.Uvarint(), Misps: r.Uvarint()}
	}
	if prob {
		res.FinalProbability = math.Float64frombits(r.Uint64())
	}
	if err := r.Err(); err != nil {
		return sim.Result{}, err
	}
	for i, c := range res.Class {
		if c.Misps > c.Preds {
			return sim.Result{}, fmt.Errorf("class %d misps %d exceed preds %d", i, c.Misps, c.Preds)
		}
		if c.Preds > res.Branches-res.Total.Preds {
			return sim.Result{}, fmt.Errorf("classes through %d sum past branches %d", i, res.Branches)
		}
		res.Total.Add(c)
	}
	if res.Total.Preds != res.Branches {
		return sim.Result{}, fmt.Errorf("class sum %d does not match branches %d", res.Total.Preds, res.Branches)
	}
	if p := res.FinalProbability; math.IsNaN(p) || p < 0 || p > 1 {
		return sim.Result{}, fmt.Errorf("saturation probability %v outside [0,1]", p)
	}
	return res, nil
}

// AppendStats appends a complete FrameStats to dst.
func AppendStats(dst []byte, sessionID uint64, res sim.Result) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameStats)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = appendTallies(dst, &res, true)
	return EndFrame(dst, start)
}

// DecodeStats decodes a FrameStats payload. The returned Result carries
// counts and FinalProbability only; Trace/Config/Mode labels are the
// caller's (the client knows what it opened).
func DecodeStats(payload []byte) (sessionID uint64, res sim.Result, err error) {
	r := statecodec.NewReader(payload)
	sessionID = r.Uvarint()
	res, err = readTallies(r, true)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return 0, sim.Result{}, fmt.Errorf("%w: stats: %v", ErrProtocol, err)
	}
	return sessionID, res, nil
}

// AppendBusy appends a complete FrameBusy to dst. retryAfterMillis is
// the server's backoff hint (0 = client's choice).
//
//repro:hotpath
func AppendBusy(dst []byte, sessionID, retryAfterMillis uint64) []byte {
	start := len(dst)
	dst = BeginFrame(dst, FrameBusy)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = binary.AppendUvarint(dst, retryAfterMillis)
	return EndFrame(dst, start)
}

// DecodeBusy decodes a FrameBusy payload.
func DecodeBusy(payload []byte) (*BusyError, error) {
	id, n, err := uvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("busy session id: %w", err)
	}
	payload = payload[n:]
	millis, n, err := uvarint(payload)
	if err != nil || n != len(payload) {
		return nil, fmt.Errorf("%w: busy payload", ErrProtocol)
	}
	return &BusyError{Session: id, RetryAfterMillis: millis}, nil
}

// AppendError appends a complete FrameError to dst.
func AppendError(dst []byte, code uint64, msg string) []byte {
	if len(msg) > maxErrMsg {
		msg = msg[:maxErrMsg]
	}
	start := len(dst)
	dst = BeginFrame(dst, FrameError)
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	return EndFrame(dst, start)
}

// DecodeError decodes a FrameError payload.
func DecodeError(payload []byte) (*RemoteError, error) {
	code, n, err := uvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("error code: %w", err)
	}
	payload = payload[n:]
	msgLen, n, err := uvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("error message length: %w", err)
	}
	payload = payload[n:]
	if msgLen > maxErrMsg || msgLen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: error message length %d", ErrProtocol, msgLen)
	}
	return &RemoteError{Code: code, Message: string(payload)}, nil
}
