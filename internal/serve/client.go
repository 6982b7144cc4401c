package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ClientConfig hardens a client against slow or failing peers with
// per-operation deadlines. Zero values disable the corresponding
// deadline (the pre-hardening behavior — prefer explicit timeouts;
// tageload sets all three to fixed constants).
type ClientConfig struct {
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// ReadTimeout bounds each response read (set per round trip).
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write (set per round trip).
	WriteTimeout time.Duration
	// BusyRetries caps how many times a load-shed batch (FrameBusy) is
	// retried internally — with jittered, capped, doubling backoff —
	// before the BusyError surfaces to the caller. 0 selects
	// DefaultBusyRetries; negative disables internal busy retries.
	BusyRetries int
	// BusyBackoff is the initial busy-retry backoff, doubled per attempt
	// and capped at 250ms. 0 selects DefaultBusyBackoff.
	BusyBackoff time.Duration
	// Seed keys the backoff-jitter stream (0 derives one from the
	// clock). Fixing it makes a chaos run's retry timing replayable.
	Seed uint64
}

// DefaultBusyRetries is the internal busy-retry budget when none is
// configured.
const DefaultBusyRetries = 8

// DefaultBusyBackoff is the initial busy-retry backoff when none is
// configured.
const DefaultBusyBackoff = 2 * time.Millisecond

// maxBusyBackoff caps the doubling busy-retry backoff.
const maxBusyBackoff = 250 * time.Millisecond

// Client speaks the wire protocol over one connection. It is not safe
// for concurrent use; a load generator opens one Client per goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cfg  ClientConfig

	frame  []byte
	out    []byte
	grades []Grade

	rng         *xrand.Rand // busy-retry jitter, lazily seeded from cfg.Seed
	busyRetries uint64
}

// Dial connects a client to a server's wire-protocol address.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects a client with deadlines.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.cfg = cfg
	return c, nil
}

// NewClient wraps an established connection (tests use net.Pipe-like
// transports; Dial is the common path).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64*1024),
		bw:    bufio.NewWriterSize(conn, 64*1024),
		frame: make([]byte, 4096),
	}
}

// Close closes the underlying connection. Open sessions it served are
// not closed — they remain addressable until FrameClose or idle
// eviction.
func (c *Client) Close() error { return c.conn.Close() }

// BusyRetries reports how many internal busy (load-shed) retries this
// client has performed.
func (c *Client) BusyRetries() uint64 { return c.busyRetries }

// backoff is the one retry schedule of the client side. Each wait is
// jittered uniformly over [d/2, 3d/2) from a seeded stream, so
// synchronized clients retrying the same fault spread out instead of
// stampeding in lockstep. The base d doubles per wait until it reaches
// max; a server's retry-after hint replaces it for one wait.
type backoff struct {
	rng       *xrand.Rand
	base, max time.Duration
}

// jitterRand seeds a backoff stream: replayable when seed is fixed (0
// derives one from the clock).
func jitterRand(seed uint64) *xrand.Rand {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return xrand.New(seed)
}

// next returns the wait before the next retry and advances the base.
func (b *backoff) next(hint time.Duration) time.Duration {
	d := b.base
	if hint > 0 {
		d = hint
	}
	if b.base < b.max {
		b.base = min(2*b.base, b.max)
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(b.rng.Uint64()%uint64(d))
}

// sleep waits out next(hint).
func (b *backoff) sleep(hint time.Duration) { time.Sleep(b.next(hint)) }

// roundTrip writes the frame already assembled in c.out and reads one
// response frame, translating FrameError into *RemoteError.
func (c *Client) roundTrip(want byte) ([]byte, error) {
	if c.cfg.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	if _, err := c.bw.Write(c.out); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if c.cfg.ReadTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	}
	typ, payload, frame, err := ReadFrame(c.br, c.frame)
	c.frame = frame
	if err != nil {
		return nil, err
	}
	// Not a frame dispatch: the client matches the one response type the
	// request contracts for; FrameError and FrameBusy are the two
	// out-of-band rejection legs every round trip may take instead.
	switch typ {
	case want:
		return payload, nil
	case FrameError:
		re, err := DecodeError(payload)
		if err != nil {
			return nil, err
		}
		return nil, re
	case FrameBusy:
		be, err := DecodeBusy(payload)
		if err != nil {
			return nil, err
		}
		return nil, be
	default:
		return nil, fmt.Errorf("%w: unexpected frame type %#02x (want %#02x)", ErrProtocol, typ, want)
	}
}

// ClientSession is one open session on a server, driven through a
// Client.
type ClientSession struct {
	c       *Client
	id      uint64
	key     string
	config  string
	mode    core.AutomatonMode
	resumed uint64
}

// Open is OpenSession for a TAGE configuration name (empty = 64K, or
// the server default when opts is zero too) and options.
func (c *Client) Open(config string, opts core.Options) (*ClientSession, error) {
	return c.OpenSession(OpenRequest{Config: config, Options: opts})
}

// OpenSession creates a session for the request: any registered backend
// spec ("tage-64K?mode=adaptive", "bimodal-64K", "perceptron", ...; see
// OpenRequest for the server default). A request with a Key resumes the
// live or checkpointed session holding it, and Resumed reports how many
// branches the session had already served. Results are labeled with the
// backend label and automaton mode the server reports, as offline
// sim.Run labels the same backend.
func (c *Client) OpenSession(req OpenRequest) (*ClientSession, error) {
	c.out = AppendOpen(c.out[:0], req)
	return c.opened(req.Key)
}

// OpenSnapshot opens (or resumes) a session from a snapshot blob — the
// migration path. The blob must decode locally so the session
// can carry its key client-side.
func (c *Client) OpenSnapshot(blob []byte) (*ClientSession, error) {
	snap, err := DecodeSessionSnapshot(blob)
	if err != nil {
		return nil, err
	}
	c.out = AppendOpenSnap(c.out[:0], blob)
	return c.opened(snap.Key)
}

// opened sends the open frame assembled in c.out and builds the session
// from the server's FrameOpened.
func (c *Client) opened(key string) (*ClientSession, error) {
	payload, err := c.roundTrip(FrameOpened)
	if err != nil {
		return nil, err
	}
	o, err := DecodeOpened(payload)
	if err != nil {
		return nil, err
	}
	return &ClientSession{c: c, id: o.ID, key: key, config: o.Config, mode: o.Mode, resumed: o.Branches}, nil
}

// ID returns the server-assigned session id.
func (s *ClientSession) ID() uint64 { return s.id }

// Key returns the session's durable key ("" for anonymous sessions).
func (s *ClientSession) Key() string { return s.key }

// Resumed returns how many branches the session had already served when
// this client opened it — non-zero when a keyed open resumed a live or
// checkpointed session. It is the replay cursor: a client streaming a
// known trace skips this many branches.
func (s *ClientSession) Resumed() uint64 { return s.resumed }

// Snapshot fetches the session's durable snapshot blob from the server.
// The blob is copied out of the frame buffer, so it stays valid across
// further client calls.
func (s *ClientSession) Snapshot() ([]byte, error) {
	c := s.c
	c.out = AppendSnapGet(c.out[:0], s.id)
	payload, err := c.roundTrip(FrameSnap)
	if err != nil {
		return nil, err
	}
	id, blob, err := DecodeSnap(payload)
	if err != nil {
		return nil, err
	}
	if id != s.id {
		return nil, fmt.Errorf("%w: snapshot for session %d, want %d", ErrProtocol, id, s.id)
	}
	return append([]byte(nil), blob...), nil
}

// Config returns the server-resolved backend label of the session: the
// canonical configuration name for TAGE sessions ("64Kbits"), the
// canonical spec string for spec-opened backends ("bimodal-64K").
func (s *ClientSession) Config() string { return s.config }

// Predict streams one branch batch through the session and returns the
// served grades (valid until the next call on the same client). Batches
// are capped at MaxBatch branches — enforced here so an oversized
// request fails before burning a round trip (or, past MaxFrame, the
// whole connection).
//
// A load-shed rejection (FrameBusy — the server did not apply the
// batch) is retried internally with jittered doubling backoff up to the
// client's BusyRetries budget; the server's retry-after hint, when
// given, overrides the computed backoff for that attempt. A budget
// exhausted surfaces the *BusyError, which IsRetryable classifies as
// retryable — the caller may keep backing off on its own schedule.
func (s *ClientSession) Predict(records []trace.Branch) ([]Grade, error) {
	c := s.c
	budget := c.cfg.BusyRetries
	if budget == 0 {
		budget = DefaultBusyRetries
	}
	var bo backoff
	for attempt := 0; ; attempt++ {
		grades, err := s.predictOnce(records)
		if err == nil {
			return grades, nil
		}
		var be *BusyError
		if !errors.As(err, &be) || attempt >= budget {
			return nil, err
		}
		if attempt == 0 {
			if c.rng == nil {
				c.rng = jitterRand(c.cfg.Seed)
			}
			bo = backoff{rng: c.rng, base: c.cfg.BusyBackoff, max: maxBusyBackoff}
			if bo.base <= 0 {
				bo.base = DefaultBusyBackoff
			}
		}
		c.busyRetries++
		bo.sleep(time.Duration(be.RetryAfterMillis) * time.Millisecond)
	}
}

func (s *ClientSession) predictOnce(records []trace.Branch) ([]Grade, error) {
	if len(records) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d records exceeds limit %d", ErrProtocol, len(records), MaxBatch)
	}
	c := s.c
	c.out = AppendBatch(c.out[:0], s.id, records)
	payload, err := c.roundTrip(FramePredictions)
	if err != nil {
		return nil, err
	}
	id, grades, err := DecodePredictions(payload, c.grades)
	c.grades = grades[:0]
	if err != nil {
		return nil, err
	}
	if id != s.id {
		return nil, fmt.Errorf("%w: response for session %d, want %d", ErrProtocol, id, s.id)
	}
	if len(grades) != len(records) {
		return nil, fmt.Errorf("%w: %d grades for %d branches", ErrProtocol, len(grades), len(records))
	}
	return grades, nil
}

// Close retires the session and returns the server's final tallies,
// labeled with the session's config and mode.
func (s *ClientSession) Close() (sim.Result, error) {
	c := s.c
	c.out = AppendClose(c.out[:0], s.id)
	payload, err := c.roundTrip(FrameStats)
	if err != nil {
		return sim.Result{}, err
	}
	id, res, err := DecodeStats(payload)
	if err != nil {
		return sim.Result{}, err
	}
	if id != s.id {
		return sim.Result{}, fmt.Errorf("%w: stats for session %d, want %d", ErrProtocol, id, s.id)
	}
	res.Config = s.config
	res.Mode = s.mode
	return res, nil
}

// Replay streams tr (truncated to limit records; 0 = full trace) through
// the session in batches of batchSize branches (out-of-range sizes select
// 1024), cross-checks the served grades against the known outcomes,
// closes the session, and returns the server's final tallies labeled
// with the trace name.
//
// The returned Result is bit-identical to sim.Run over the same (config,
// options, trace, limit) — the equivalence the tests pin — because the
// session applies the exact per-branch sequence of the offline driver to
// an identically-seeded estimator. Replay verifies this end to end: the
// client-side tally derived from the wire grades must equal the
// server-side stats, or an error is returned. A session that resumed
// server-side state (Resumed() > 0) first adopts the server's tallies
// and replays the trace from its cursor, so a client that lost its
// server mid-replay redials, reopens the key and calls Replay again.
// Trace read errors are properties of the input, which IsRetryable
// never classifies as transport failures.
//
// When lat is non-nil, one round-trip latency sample is recorded per
// batch.
func (s *ClientSession) Replay(tr trace.Trace, limit uint64, batchSize int, lat *obs.Histogram) (sim.Result, error) {
	local := sim.Result{Trace: tr.Name(), Config: s.config, Mode: s.mode}
	if s.resumed > 0 {
		if err := s.resync(&local); err != nil {
			return sim.Result{}, err
		}
	}
	if batchSize <= 0 || batchSize > MaxBatch {
		batchSize = 1024
	}
	batch := make([]trace.Branch, 0, batchSize)
	rd := trace.Limit(tr, limit).Open()
	for skip := local.Branches; skip > 0; skip-- {
		if _, err := rd.Next(); err != nil {
			// %v, not %w: a trace shorter than the server's cursor ends in
			// io.EOF, which must not read as a retryable transport error.
			return sim.Result{}, fmt.Errorf("serve: rewinding %s to branch %d: %v", tr.Name(), local.Branches, err)
		}
	}
	for {
		batch = batch[:0]
		for len(batch) < cap(batch) {
			b, err := rd.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					return sim.Result{}, err
				}
				break
			}
			batch = append(batch, b)
		}
		if len(batch) == 0 {
			break
		}
		start := time.Now()
		grades, err := s.Predict(batch)
		if err != nil {
			return sim.Result{}, err
		}
		if lat != nil {
			lat.Observe(time.Since(start))
		}
		for i, g := range grades {
			miss := g.Pred != batch[i].Taken
			local.Total.Record(miss)
			local.Class[g.Class].Record(miss)
			local.Branches++
			// Mirror the wire codec's clamp (Instr 0 is not representable
			// and travels as 1) so the cross-check below compares what the
			// server actually saw.
			local.Instructions += uint64(max(batch[i].Instr, 1))
		}
	}
	res, err := s.Close()
	if err != nil {
		return sim.Result{}, err
	}
	res.Trace = local.Trace
	local.FinalProbability = res.FinalProbability
	if local != res {
		return sim.Result{}, fmt.Errorf("serve: wire grades disagree with server stats for %s: client %+v server %+v",
			tr.Name(), local, res)
	}
	return res, nil
}

// resync overwrites local with the server's authoritative tallies for
// the session, which moves the replay cursor (local.Branches) to the
// server's branch count.
func (s *ClientSession) resync(local *sim.Result) error {
	blob, err := s.Snapshot()
	if err != nil {
		return err
	}
	snap, err := DecodeSessionSnapshot(blob)
	if err != nil {
		return err
	}
	name := local.Trace
	*local = snap.Res
	local.Trace = name
	return nil
}
