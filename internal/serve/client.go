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
// deadline (the pre-hardening behavior — prefer explicit timeouts; the
// CLIs default them and log when they are disabled).
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
// client has performed — the load generators roll it up per node.
func (c *Client) BusyRetries() uint64 { return c.busyRetries }

// backoff is the one retry schedule of the client side, shared by busy
// retries and router recovery. Each wait is jittered uniformly over
// [d/2, 3d/2) from a seeded stream, so synchronized clients retrying
// the same fault spread out instead of stampeding in lockstep. The base
// d doubles per wait until it reaches max; a server's retry-after hint
// replaces it for one wait.
type backoff struct {
	rng       *xrand.Rand
	base, max time.Duration
}

// jitterRand seeds a backoff stream: replayable when seed is fixed (0
// derives one from the clock), decorrelated across session keys.
func jitterRand(seed uint64, key string) *xrand.Rand {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return xrand.New(seed ^ ringHash(key))
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
	//repro:frames ignore single-expected-response match, not a dispatch over the response direction
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
	opts    core.Options
	resumed uint64
}

// Open creates a session with the named predictor configuration (empty
// = server default) and options.
func (c *Client) Open(config string, opts core.Options) (*ClientSession, error) {
	return c.open(OpenRequest{Config: config, Options: opts}, opts)
}

// OpenSpec creates a session for any registered backend spec
// ("tage-64K?mode=adaptive", "gshare-64K", "perceptron", ...; empty =
// server default). Results are labeled with the server-resolved backend
// label and, like offline sim.Run over a registry-built backend,
// ModeStandard for non-TAGE families; TAGE sessions that need a mode
// label on the client side should use Open.
func (c *Client) OpenSpec(spec string) (*ClientSession, error) {
	return c.open(OpenRequest{Spec: spec}, core.Options{})
}

// OpenSession creates a session from a full OpenRequest — the keyed
// (durable) path: a request with a Key resumes the live or checkpointed
// session holding it, and Resumed reports how many branches the session
// had already served.
func (c *Client) OpenSession(req OpenRequest) (*ClientSession, error) {
	return c.open(req, req.Options)
}

// OpenSnapshot opens (or resumes) a session from a snapshot blob — the
// migration/failover path. The blob must decode locally so the session
// can carry its key and labels client-side.
func (c *Client) OpenSnapshot(blob []byte) (*ClientSession, error) {
	snap, err := DecodeSessionSnapshot(blob)
	if err != nil {
		return nil, err
	}
	c.out = AppendOpenSnap(c.out[:0], blob)
	payload, err := c.roundTrip(FrameOpened)
	if err != nil {
		return nil, err
	}
	id, resolved, branches, err := DecodeOpened(payload)
	if err != nil {
		return nil, err
	}
	return &ClientSession{
		c: c, id: id, key: snap.Key, config: resolved,
		opts:    core.Options{Mode: snap.Res.Mode},
		resumed: branches,
	}, nil
}

func (c *Client) open(req OpenRequest, opts core.Options) (*ClientSession, error) {
	c.out = AppendOpen(c.out[:0], req)
	payload, err := c.roundTrip(FrameOpened)
	if err != nil {
		return nil, err
	}
	id, resolved, branches, err := DecodeOpened(payload)
	if err != nil {
		return nil, err
	}
	return &ClientSession{c: c, id: id, key: req.Key, config: resolved, opts: opts, resumed: branches}, nil
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
// further client calls — the failover token a router holds on to.
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
// canonical spec string for spec-opened backends ("gshare-64K").
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
				c.rng = jitterRand(c.cfg.Seed, "")
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
	res.Mode = s.opts.Mode
	return res, nil
}

// Replay streams tr (truncated to limit records; 0 = full trace) through
// the session in batches of batchSize branches, cross-checks the served
// grades against the known outcomes, closes the session, and returns the
// server's final tallies labeled with the trace name.
//
// The returned Result is bit-identical to sim.Run over the same (config,
// options, trace, limit) — the equivalence the tests pin — because the
// session applies the exact per-branch sequence of the offline driver to
// an identically-seeded estimator. Replay verifies this end to end: the
// client-side tally derived from the wire grades must equal the
// server-side stats, or an error is returned. A session that resumed
// server-side state (Resumed() > 0) first adopts the server's tallies
// and replays the trace from its cursor.
//
// When lat is non-nil, one round-trip latency sample is recorded per
// batch.
func (s *ClientSession) Replay(tr trace.Trace, limit uint64, batchSize int, lat *obs.Histogram) (sim.Result, error) {
	local := sim.Result{Trace: tr.Name(), Config: s.config, Mode: s.opts.Mode}
	if s.resumed > 0 {
		if _, err := s.resync(&local); err != nil {
			return sim.Result{}, err
		}
	}
	return s.stream(tr, limit, newBatch(batchSize), lat, &local, nil)
}

// newBatch allocates the replay batch buffer; its capacity is the batch
// size (out-of-range sizes select 1024).
func newBatch(batchSize int) []trace.Branch {
	if batchSize <= 0 || batchSize > MaxBatch {
		batchSize = 1024
	}
	return make([]trace.Branch, 0, batchSize)
}

// resync overwrites local with the server's authoritative tallies for
// the session, which moves the replay cursor (local.Branches) to the
// server's branch count, and returns the snapshot blob it read them
// from.
func (s *ClientSession) resync(local *sim.Result) ([]byte, error) {
	blob, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSessionSnapshot(blob)
	if err != nil {
		return nil, err
	}
	name := local.Trace
	*local = snap.Res
	local.Trace = name
	// Label like Close labels its result (OpenSession carries the
	// request's mode, OpenSnapshot the snapshot's), so the final
	// cross-check compares like with like.
	local.Mode = s.opts.Mode
	return blob, nil
}

// stream is the one client-side replay loop. It opens tr (truncated to
// limit) at the cursor local.Branches and streams it through the
// session in batches of cap(batch) branches. Each batch's wire grades
// are tallied into local, its round trip is sampled into lat (nil
// disables), and onBatch (nil skips) runs after it. At the end of the
// trace stream closes the session and returns the server's final stats,
// cross-checked against local. On error, local holds exactly the
// batches the server answered, so the router can resync and call stream
// again. Trace read errors are properties of the input, which
// IsRetryable never classifies as transport failures.
func (s *ClientSession) stream(tr trace.Trace, limit uint64, batch []trace.Branch, lat *obs.Histogram,
	local *sim.Result, onBatch func()) (sim.Result, error) {
	rd := trace.Limit(tr, limit).Open()
	// Release the reader's resources (open file, pooled decode or
	// generator state) if the stream aborts mid-trace — a server or
	// network error must not leak a file descriptor per failed replay.
	// Once the reader returns io.EOF or a decode error it must not be
	// touched again (it closes itself, and its state may already be
	// recycled into another Open), so the release only fires on the
	// not-yet-drained paths.
	drained := false
	defer func() {
		if c, ok := rd.(interface{ Close() }); ok && !drained {
			c.Close()
		}
	}()
	for skip := local.Branches; skip > 0; skip-- {
		if _, err := rd.Next(); err != nil {
			drained = true
			// %v, not %w: a trace shorter than the server's cursor ends in
			// io.EOF, which must not read as a retryable transport error.
			return sim.Result{}, fmt.Errorf("serve: rewinding %s to branch %d: %v", tr.Name(), local.Branches, err)
		}
	}
	for !drained {
		batch = batch[:0]
		for len(batch) < cap(batch) {
			b, err := rd.Next()
			if err != nil {
				drained = true
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
		if onBatch != nil {
			onBatch()
		}
	}
	res, err := s.Close()
	if err != nil {
		return sim.Result{}, err
	}
	res.Trace = local.Trace
	local.FinalProbability = res.FinalProbability
	if *local != res {
		return sim.Result{}, fmt.Errorf("serve: wire grades disagree with server stats for %s: client %+v server %+v",
			tr.Name(), *local, res)
	}
	return res, nil
}
