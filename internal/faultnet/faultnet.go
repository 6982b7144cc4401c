// Package faultnet is a deterministic fault-injection layer for
// net.Conn: it wraps a transport with seed-scheduled network misbehavior
// — short reads, chunked writes, byte corruption, mid-stream connection
// drops, resets and stalls — so the serve stack can be tested against
// the messy failure tail real networks produce, reproducibly.
//
// Determinism is the point. Every wrapped connection draws its fault
// decisions from its own xrand stream, derived from (Config.Seed,
// connection ordinal): the i-th connection accepted through a wrapped
// listener sees the same fault sequence for the same seed, operation by
// operation, on every run. A chaos test names its seed in the subtest,
// so a failure reruns with `go test -run 'TestChaosEndToEnd/seed=N'`.
//
// The fault taxonomy mirrors what a TCP peer can actually observe:
//
//   - Stall: an operation delivers part of its data, then goes quiet
//     long enough to trip peer deadlines.
//   - Short read / chunked write: data arrives, but fragmented — the
//     reassembly torture test for any length-prefixed codec.
//   - Corruption: a delivered byte is flipped. The bytes keep flowing;
//     only integrity checking (the wire CRC) can notice.
//   - Drop: the connection dies mid-stream, possibly mid-frame, after
//     delivering a prefix of the data.
//   - Reset: the operation fails immediately with a reset-flavored
//     error, without delivering anything.
//
// Wrap a single conn with Wrap, or every accepted conn of a listener
// with WrapListener.
package faultnet

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/xrand"
)

// Config schedules the faults. All rates are per-operation probabilities
// in [0, 1]; a zero Config injects nothing and is transparent.
type Config struct {
	// Seed keys every derived fault stream. Two runs with the same seed
	// and the same per-connection operation sequence inject the same
	// faults at the same points.
	Seed uint64

	// CorruptRate flips one byte of the data delivered by a read (or
	// submitted by a write), per operation.
	CorruptRate float64
	// DropRate kills the connection mid-operation: a read or write
	// delivers a strict prefix of its data and then the conn is closed.
	DropRate float64
	// ResetRate fails the operation immediately with a reset-flavored
	// retryable error, closing the conn without delivering anything.
	ResetRate float64
	// StallRate stalls the operation mid-delivery: a prefix of the data
	// moves, then nothing for StallFor, so the peer holds a partial
	// frame going quiet — long stalls are what slow-peer frame deadlines
	// exist to evict.
	StallRate float64
	// StallFor is the stall duration (default 1s when StallRate > 0).
	StallFor time.Duration
	// ShortReads delivers every read in small fragments: a Read returns
	// between 1 and 16 bytes regardless of buffer size.
	ShortReads bool
	// ChunkWrites splits every write into several small underlying
	// writes, so the peer's reads observe arbitrary fragmentation.
	ChunkWrites bool
}

// Stats tallies injected faults across every connection sharing it
// (atomic: connections are concurrent).
type Stats struct {
	Conns         atomic.Uint64
	Corrupted     atomic.Uint64
	Drops         atomic.Uint64
	Resets        atomic.Uint64
	Stalls        atomic.Uint64
	ShortReads    atomic.Uint64
	ChunkedWrites atomic.Uint64
}

// String renders the tally in a fixed order.
func (s *Stats) String() string {
	return fmt.Sprintf("conns=%d corrupted=%d drops=%d resets=%d stalls=%d short_reads=%d chunked_writes=%d",
		s.Conns.Load(), s.Corrupted.Load(), s.Drops.Load(), s.Resets.Load(),
		s.Stalls.Load(), s.ShortReads.Load(), s.ChunkedWrites.Load())
}

// Total returns the number of destructive faults injected (corruption,
// drops, resets, stalls) — the ones a hardened peer must survive.
func (s *Stats) Total() uint64 {
	return s.Corrupted.Load() + s.Drops.Load() + s.Resets.Load() + s.Stalls.Load()
}

// ErrInjected is the reset-flavored error injected connections fail
// with. It wraps syscall.ECONNRESET so transport-level retry classifiers
// (serve.IsRetryable) treat it exactly like a real peer reset.
var ErrInjected = fmt.Errorf("faultnet: injected fault: %w", syscall.ECONNRESET)

// Conn wraps a net.Conn with scheduled faults. It implements net.Conn.
type Conn struct {
	net.Conn
	cfg   Config
	rng   xrand.Rand
	stats *Stats
	// stallPending marks that the previous read cut its delivery short
	// and the next read must go quiet for StallFor before progressing.
	stallPending bool
}

// Wrap returns conn with the fault schedule derived from (cfg.Seed, id)
// applied to it. Connections with distinct ids draw decorrelated fault
// streams; the same (seed, id) pair reproduces the same stream. stats
// may be nil.
func Wrap(conn net.Conn, cfg Config, id uint64, stats *Stats) *Conn {
	if cfg.StallFor <= 0 {
		cfg.StallFor = time.Second
	}
	if stats == nil {
		stats = &Stats{}
	}
	c := &Conn{Conn: conn, cfg: cfg, stats: stats}
	xrand.New(cfg.Seed).DeriveInto(id, &c.rng)
	stats.Conns.Add(1)
	return c
}

// stalled decides whether this operation stalls. The stall is applied
// mid-operation (a prefix of the data moves, then nothing for StallFor)
// so the peer observes a partial frame going quiet — the shape
// slow-peer frame deadlines exist to evict. A stall before the
// operation would usually land on a frame boundary and look like mere
// idleness.
func (c *Conn) stalled() bool {
	if c.cfg.StallRate > 0 && c.rng.WithProbability(c.cfg.StallRate) {
		c.stats.Stalls.Add(1)
		return true
	}
	return false
}

// abort decides reset-vs-continue for one operation. It reports true
// after closing the conn when the schedule injects a reset.
func (c *Conn) abort() bool {
	if c.cfg.ResetRate > 0 && c.rng.WithProbability(c.cfg.ResetRate) {
		c.stats.Resets.Add(1)
		c.Conn.Close()
		return true
	}
	return false
}

func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Read(p)
	}
	if c.stallPending {
		// The previous read delivered a truncated prefix; go quiet now, so
		// the downstream peer sees a partial frame stop making progress.
		c.stallPending = false
		time.Sleep(c.cfg.StallFor)
	}
	if c.abort() {
		return 0, ErrInjected
	}
	limit := len(p)
	drop := c.cfg.DropRate > 0 && c.rng.WithProbability(c.cfg.DropRate)
	if c.cfg.ShortReads && limit > 1 {
		c.stats.ShortReads.Add(1)
		limit = 1 + c.rng.Intn(min(16, limit))
	}
	if c.stalled() && limit > 1 {
		limit = 1 + c.rng.Intn(limit-1)
		c.stallPending = true
	}
	if drop && limit > 1 {
		// Deliver a strict prefix, then die: the peer sees a connection
		// cut mid-frame.
		limit = 1 + c.rng.Intn(limit-1)
	}
	n, err := c.Conn.Read(p[:limit])
	if n > 0 && c.cfg.CorruptRate > 0 && c.rng.WithProbability(c.cfg.CorruptRate) {
		c.stats.Corrupted.Add(1)
		i := c.rng.Intn(n)
		p[i] ^= 1 << uint(c.rng.Intn(8))
	}
	if drop {
		c.stats.Drops.Add(1)
		c.Conn.Close()
		if err == nil && n > 0 {
			return n, nil // the prefix was delivered; the next op fails
		}
		return n, ErrInjected
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	if c.abort() {
		return 0, ErrInjected
	}
	if c.cfg.DropRate > 0 && c.rng.WithProbability(c.cfg.DropRate) {
		// Write a strict prefix, then die mid-frame.
		c.stats.Drops.Add(1)
		cut := c.rng.Intn(len(p))
		if cut > 0 {
			c.Conn.Write(p[:cut])
		}
		c.Conn.Close()
		return cut, ErrInjected
	}
	if c.cfg.CorruptRate > 0 && c.rng.WithProbability(c.cfg.CorruptRate) {
		// Corrupt a copy: a Write must not scribble on the caller's
		// buffer (the serve client reuses and re-sends it on retry).
		c.stats.Corrupted.Add(1)
		dup := append([]byte(nil), p...)
		dup[c.rng.Intn(len(dup))] ^= 1 << uint(c.rng.Intn(8))
		p = dup
	}
	if c.stalled() && len(p) > 1 {
		// Mid-operation stall: a prefix moves, then nothing for StallFor —
		// the receiving server holds a partial frame past its FrameTimeout
		// and must evict this conn as a slow reader.
		cut := 1 + c.rng.Intn(len(p)-1)
		n, err := c.Conn.Write(p[:cut])
		if err != nil {
			return n, err
		}
		time.Sleep(c.cfg.StallFor)
		m, err := c.Conn.Write(p[cut:])
		return n + m, err
	}
	if !c.cfg.ChunkWrites {
		return c.Conn.Write(p)
	}
	c.stats.ChunkedWrites.Add(1)
	written := 0
	for written < len(p) {
		chunk := 1 + c.rng.Intn(min(16, len(p)-written))
		n, err := c.Conn.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Listener wraps a net.Listener so every accepted connection is fault
// injected, each with its own derived stream (accept ordinal = stream
// id).
type Listener struct {
	net.Listener
	cfg   Config
	next  atomic.Uint64
	stats *Stats
}

// WrapListener wraps ln. stats may be nil (a fresh tally is created);
// Stats() returns whichever is in use.
func WrapListener(ln net.Listener, cfg Config, stats *Stats) *Listener {
	if stats == nil {
		stats = &Stats{}
	}
	return &Listener{Listener: ln, cfg: cfg, stats: stats}
}

// Stats returns the shared fault tally.
func (l *Listener) Stats() *Stats { return l.stats }

func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(conn, l.cfg, l.next.Add(1)-1, l.stats), nil
}
