package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// memConn is a deterministic in-memory net.Conn: reads drain a fixed
// byte pattern, writes are discarded. It gives faultnet determinism
// tests an underlying transport with no scheduling noise of its own.
type memConn struct {
	pos    int
	closed bool
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.closed {
		return 0, io.EOF
	}
	for i := range p {
		p[i] = byte(m.pos + i)
	}
	m.pos += len(p)
	return len(p), nil
}

func (m *memConn) Write(p []byte) (int, error) {
	if m.closed {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func (m *memConn) Close() error                     { m.closed = true; return nil }
func (m *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// faultTrace runs a fixed read/write schedule through a wrapped conn
// and records every outcome — the replayable fingerprint of the fault
// stream.
func faultTrace(cfg faultnet.Config, id uint64) string {
	c := faultnet.Wrap(&memConn{}, cfg, id, nil)
	var sb bytes.Buffer
	buf := make([]byte, 48)
	for op := 0; op < 200; op++ {
		var n int
		var err error
		if op%3 == 2 {
			n, err = c.Write(buf[:32])
			fmt.Fprintf(&sb, "w%d/%v;", n, err)
		} else {
			n, err = c.Read(buf)
			fmt.Fprintf(&sb, "r%d/%v/%x;", n, err, buf[:n])
		}
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestFaultnetDeterminism pins the property the chaos soak leans on: a
// fault schedule is a pure function of (seed, connection id). The same
// pair replays the same faults at the same operations; a different id
// draws a decorrelated stream.
func TestFaultnetDeterminism(t *testing.T) {
	cfg := faultnet.Config{
		Seed:        42,
		CorruptRate: 0.2,
		DropRate:    0.05,
		ResetRate:   0.05,
		ShortReads:  true,
		ChunkWrites: true,
	}
	a, b := faultTrace(cfg, 3), faultTrace(cfg, 3)
	if a != b {
		t.Fatalf("same (seed, id) diverged:\n%s\nvs\n%s", a, b)
	}
	if c := faultTrace(cfg, 4); c == a {
		t.Fatal("distinct connection ids drew identical fault streams")
	}
	other := cfg
	other.Seed = 43
	if c := faultTrace(other, 3); c == a {
		t.Fatal("distinct seeds drew identical fault streams")
	}
}

// tortureFrames builds one valid frame of every type.
func tortureFrames(t *testing.T) [][]byte {
	t.Helper()
	res := sim.Result{FinalProbability: 0.0078125}
	for i := range res.Class {
		res.Class[i].Preds = uint64(i) * 10
		res.Class[i].Misps = uint64(i)
		res.Total.Add(res.Class[i])
	}
	res.Branches = res.Total.Preds
	resumed := res
	resumed.Config = "64Kbits"
	var grades []byte
	for _, cl := range core.Classes() {
		grades = append(grades, EncodeGrade(true, cl, cl.Level()))
	}
	return [][]byte{
		AppendOpen(nil, OpenRequest{Spec: "tage-16K?mkp=4&mode=adaptive", Key: "torture/1"}),
		AppendOpened(nil, Opened{ID: 7, Res: resumed}),
		AppendBatch(nil, 7, sampleBranches(100, 5)),
		AppendPredictions(nil, 7, grades),
		AppendClose(nil, 7),
		AppendStats(nil, 7, res),
		AppendError(nil, ErrCodeMalformed, "bad"),
		AppendSnapGet(nil, 7),
		AppendSnap(nil, 7, []byte("not a real snapshot blob")),
		AppendBusy(nil, 7, 25),
	}
}

// TestWireTortureFragmentation streams every frame type through a
// faultnet transport that fragments pathologically in both directions —
// chunked writes on the sender, short reads on the receiver — and
// requires every frame to arrive intact. Framing must never depend on
// read/write boundaries.
func TestWireTortureFragmentation(t *testing.T) {
	frames := tortureFrames(t)
	cw, sr := net.Pipe()
	writer := faultnet.Wrap(cw, faultnet.Config{Seed: 7, ChunkWrites: true}, 0, nil)
	reader := faultnet.Wrap(sr, faultnet.Config{Seed: 11, ShortReads: true}, 1, nil)
	go func() {
		for _, f := range frames {
			if _, err := writer.Write(f); err != nil {
				return
			}
		}
		writer.Close()
	}()
	br := bufio.NewReader(reader)
	var buf []byte
	for i, f := range frames {
		typ, payload, b, err := ReadFrame(br, buf)
		buf = b
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != f[4] {
			t.Fatalf("frame %d: type %#02x, want %#02x", i, typ, f[4])
		}
		if want := f[5 : len(f)-4]; !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload %x, want %x", i, payload, want)
		}
	}
	if _, _, _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestWireTortureBitFlips is the corruption acceptance pin: for every
// frame type, every single-bit flip anywhere in the frame must surface
// as an error — a flip that preserves the length prefix must be caught
// by the CRC as ErrCorrupt specifically. CRC-32 detects all single-bit
// errors, so there is no flip the reader may silently accept.
func TestWireTortureBitFlips(t *testing.T) {
	for _, frame := range tortureFrames(t) {
		for byteIdx := range frame {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[byteIdx] ^= 1 << bit
				br := bufio.NewReader(bytes.NewReader(mut))
				_, _, _, err := ReadFrame(br, nil)
				if err == nil {
					t.Fatalf("type %#02x: flip of byte %d bit %d accepted", frame[4], byteIdx, bit)
				}
				if byteIdx >= 4 && !errors.Is(err, ErrCorrupt) {
					// Length prefix intact: the frame body arrives whole and
					// only the checksum can (and must) convict it.
					t.Fatalf("type %#02x: flip of byte %d bit %d: err = %v, want ErrCorrupt", frame[4], byteIdx, bit, err)
				}
				if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrIO) {
					t.Fatalf("type %#02x: flip of byte %d bit %d: unclassified err %v", frame[4], byteIdx, bit, err)
				}
			}
		}
	}
}

// TestServerAnswersBadLengthAsCorrupt pins the server side of a mangled
// length prefix: the frame is answered with ErrCodeCorrupt, counted as a
// corrupt frame, and the connection is dropped. Only the 4-byte prefix
// is sent, so the server decides on it alone and closes with nothing
// unread.
func TestServerAnswersBadLengthAsCorrupt(t *testing.T) {
	srv := startServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte{3, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, payload, _, err := ReadFrame(br, nil)
	if err != nil || typ != FrameError {
		t.Fatalf("reply: type %#02x err %v, want FrameError", typ, err)
	}
	re, err := DecodeError(payload)
	if err != nil || re.Code != ErrCodeCorrupt {
		t.Fatalf("reply %+v (err %v), want code ErrCodeCorrupt", re, err)
	}
	if _, _, _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the error frame: err = %v, want io.EOF (connection dropped)", err)
	}
	resp, err := http.Get("http://" + srv.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "tage_serve_corrupt_frames_total 1\n") {
		t.Errorf("corrupt frame not counted:\n%s", body)
	}
}

// TestEngineAdmission pins the admission-control contract: a full
// server sheds rather than queues, sheds are counted, and release
// restores capacity.
func TestEngineAdmission(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInflight: 2})
	if !eng.AcquireBatch() || !eng.AcquireBatch() {
		t.Fatal("admission rejected batches under the limit")
	}
	if eng.AcquireBatch() {
		t.Fatal("admission exceeded MaxInflight")
	}
	if got := eng.Snapshot().ShedBatches; got != 1 {
		t.Fatalf("ShedBatches = %d, want 1", got)
	}
	eng.ReleaseBatch()
	if !eng.AcquireBatch() {
		t.Fatal("released capacity not reusable")
	}
	eng.ReleaseBatch()
	eng.ReleaseBatch()

	// Negative limit admits nothing — the drain-for-tests configuration.
	closed := NewEngine(EngineConfig{MaxInflight: -1})
	if closed.AcquireBatch() {
		t.Fatal("negative MaxInflight admitted a batch")
	}
	// Zero is unlimited and keeps no inflight tally.
	open := NewEngine(EngineConfig{})
	for i := 0; i < 100; i++ {
		if !open.AcquireBatch() {
			t.Fatal("unlimited engine shed a batch")
		}
	}
	if snap := open.Snapshot(); snap.ShedBatches != 0 || snap.InflightBatches != 0 {
		t.Fatalf("unlimited engine tallied %+v", snap)
	}
}

// TestClientBusyRetry drives a client against a scripted server that
// sheds a few times before serving: the retry loop must absorb the
// sheds (honoring the server's retry-after hint), count them, and stop
// burning budget the moment the server accepts.
func TestClientBusyRetry(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	const sheds = 3
	go func() {
		defer sc.Close()
		br := bufio.NewReader(sc)
		var out []byte
		// Open.
		if _, _, _, err := ReadFrame(br, nil); err != nil {
			return
		}
		out = AppendOpened(out[:0], Opened{ID: 9, Res: sim.Result{Config: "16K"}})
		sc.Write(out)
		// Shed the first batches, then serve.
		for i := 0; ; i++ {
			_, payload, _, err := ReadFrame(br, nil)
			if err != nil {
				return
			}
			if i < sheds {
				out = AppendBusy(out[:0], 9, 1)
				sc.Write(out)
				continue
			}
			_, records, err := DecodeBatch(payload, nil)
			if err != nil {
				return
			}
			cls := core.Classes()[0]
			grades := make([]byte, len(records))
			for j := range grades {
				grades[j] = EncodeGrade(true, cls, cls.Level())
			}
			out = AppendPredictions(out[:0], 9, grades)
			sc.Write(out)
			return
		}
	}()
	c := NewClient(cc)
	c.cfg = ClientConfig{BusyRetries: 8, BusyBackoff: time.Millisecond, Seed: 1}
	sess, err := c.OpenSession(OpenRequest{Spec: "tage-16K"})
	if err != nil {
		t.Fatal(err)
	}
	grades, err := sess.Predict(sampleBranches(4, 1))
	if err != nil {
		t.Fatalf("Predict after %d sheds: %v", sheds, err)
	}
	if len(grades) != 4 {
		t.Fatalf("%d grades, want 4", len(grades))
	}
	if got := c.BusyRetries(); got != sheds {
		t.Fatalf("BusyRetries = %d, want %d", got, sheds)
	}
}

// TestClientBusyBudgetExhausted pins the give-up leg: a server that
// never stops shedding must surface *BusyError (retryable) to the
// caller once the internal budget is spent — not loop forever.
func TestClientBusyBudgetExhausted(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	go func() {
		defer sc.Close()
		br := bufio.NewReader(sc)
		var out []byte
		if _, _, _, err := ReadFrame(br, nil); err != nil {
			return
		}
		out = AppendOpened(out[:0], Opened{ID: 9, Res: sim.Result{Config: "16K"}})
		sc.Write(out)
		for {
			if _, _, _, err := ReadFrame(br, nil); err != nil {
				return
			}
			out = AppendBusy(out[:0], 9, 0)
			sc.Write(out)
		}
	}()
	c := NewClient(cc)
	c.cfg = ClientConfig{BusyRetries: 2, BusyBackoff: time.Microsecond, Seed: 1}
	sess, err := c.OpenSession(OpenRequest{Spec: "tage-16K"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Predict(sampleBranches(4, 1))
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BusyError", err)
	}
	if !IsRetryable(err) {
		t.Fatal("exhausted busy budget must stay caller-retryable")
	}
	if got := c.BusyRetries(); got != 2 {
		t.Fatalf("BusyRetries = %d, want the budget of 2", got)
	}
}

// TestBackoff pins the one retry schedule of the client side,
// computing the waits without sleeping: jitter replays from a fixed seed
// and decorrelates across seeds, every wait lies in [d/2, 3d/2),
// doubling stops at the cap, and a retry-after hint replaces the
// computed base.
func TestBackoff(t *testing.T) {
	const base, limit = time.Millisecond, 8 * time.Millisecond
	waits := func(seed uint64) []time.Duration {
		bo := backoff{rng: jitterRand(seed), base: base, max: limit}
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = bo.next(0)
		}
		return out
	}
	if a, b := waits(42), waits(42); !slices.Equal(a, b) {
		t.Fatalf("same seed, different waits:\n%v\n%v", a, b)
	}
	if a, b := waits(42), waits(43); slices.Equal(a, b) {
		t.Fatalf("seeds 42 and 43 share a wait sequence: %v", a)
	}
	bo := backoff{rng: jitterRand(7), base: base, max: limit}
	for i := 0; i < 1000; i++ {
		d := min(base<<min(i, 8), limit)
		if w := bo.next(0); w < d/2 || w >= d+d/2 {
			t.Fatalf("wait %d = %v outside [%v, %v)", i, w, d/2, d+d/2)
		}
	}
	const hint = 100 * time.Millisecond
	bo = backoff{rng: jitterRand(8), base: base, max: limit}
	for i := 0; i < 1000; i++ {
		if w := bo.next(hint); w < hint/2 || w >= hint+hint/2 {
			t.Fatalf("hinted wait %d = %v outside [%v, %v)", i, w, hint/2, hint+hint/2)
		}
	}
}

// TestServerShedsUnderOverload saturates a MaxInflight=0-equivalent
// choke point: with admission closed (negative limit) every batch must
// come back FrameBusy without moving the session cursor, be counted as
// shed, and leave a shed event naming the session in the flight
// recorder.
func TestServerShedsUnderOverload(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{MaxInflight: -1}})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.cfg.BusyRetries = -1 // surface the first shed, no internal retry
	sess, err := c.OpenSession(OpenRequest{Spec: "tage-16K"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Predict(sampleBranches(8, 3))
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BusyError", err)
	}
	if be.Session != sess.ID() {
		t.Fatalf("busy for session %d, want %d", be.Session, sess.ID())
	}
	snap := srv.Engine().Snapshot()
	if snap.ShedBatches != 1 {
		t.Fatalf("ShedBatches = %d, want 1", snap.ShedBatches)
	}
	var metrics strings.Builder
	srv.Registry().WriteText(&metrics)
	if !strings.Contains(metrics.String(), "tage_serve_shed_total 1\n") {
		t.Errorf("shed not exposed:\n%s", metrics.String())
	}
	if snap.Branches != 0 {
		t.Fatalf("shed batch moved the cursor: %d branches served", snap.Branches)
	}
	var sheds []obs.Event
	for _, ev := range srv.Events().Snapshot() {
		if ev.Kind == obs.EvShed {
			sheds = append(sheds, ev)
		}
	}
	if len(sheds) != 1 || sheds[0].Session != sess.ID() || sheds[0].Batch != 8 {
		t.Fatalf("flight recorder shed events %+v, want one for session %d with 8 records", sheds, sess.ID())
	}
}

// TestServerEvictsSlowReader pins the mid-frame deadline: a peer that
// sends half a frame and stalls is evicted (connection closed, eviction
// counted) instead of parking a server goroutine forever, and the
// flight recorder holds the eviction after the batch the peer was last
// served, so the eviction arrives with its context. An idle connection
// with no partial frame in flight survives the same window.
func TestServerEvictsSlowReader(t *testing.T) {
	srv := startServer(t, Config{FrameTimeout: 50 * time.Millisecond})
	// Idle conn: no bytes at all — must NOT be evicted by FrameTimeout.
	idle, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Slow conn: one served batch, then half a frame, then silence.
	slow, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	sess, err := NewClient(slow).OpenSession(OpenRequest{Spec: "tage-16K", Key: "slow/peer"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predict(sampleBranches(8, 3)); err != nil {
		t.Fatal(err)
	}
	frame := AppendClose(nil, 1)
	if _, err := slow.Write(frame[:len(frame)-2]); err != nil {
		t.Fatal(err)
	}
	// The server must hang up on the slow conn: the next read returns EOF
	// (or a reset) within a few deadline windows.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := slow.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow peer not evicted: read err = %v", err)
	}
	if got := srv.slowEvicted.Load(); got != 1 {
		t.Fatalf("slowEvicted = %d, want 1", got)
	}
	var metrics strings.Builder
	srv.Registry().WriteText(&metrics)
	if !strings.Contains(metrics.String(), "tage_serve_slow_peer_evictions_total 1\n") {
		t.Errorf("eviction not exposed:\n%s", metrics.String())
	}
	var kinds []obs.EventKind
	for _, ev := range srv.Events().Snapshot() {
		if ev.Session == sess.ID() {
			kinds = append(kinds, ev.Kind)
		}
	}
	if want := []obs.EventKind{obs.EvBatch, obs.EvSlowPeerEvict}; !slices.Equal(kinds, want) {
		t.Fatalf("flight recorder events for the evicted session: %v, want %v", kinds, want)
	}
	// The idle conn is still serviceable.
	ic := NewClient(idle)
	if _, err := ic.OpenSession(OpenRequest{Spec: "tage-16K"}); err != nil {
		t.Fatalf("idle connection died with the slow one: %v", err)
	}
}

// chaosSeeds are the fault schedules TestChaosEndToEnd runs, one
// subtest each.
var chaosSeeds = []uint64{1337, 7, 2024}

// TestChaosEndToEnd drives four concurrent keyed sessions through a
// real server behind a fault-injecting listener: corruption, drops,
// resets and stalls that outlast the server's FrameTimeout on every
// server-side conn, and one admission slot for all four sessions. Each
// session recovers as a single-node client does (replayKeyed): redial,
// reopen the key, Replay again. Online must still equal offline bit for
// bit, because every fault either reopens at the authoritative cursor
// or retries a batch the server never applied. No session and no
// admission slot may leak.
//
// Each seed is a subtest. The seed fixes every connection's fault
// schedule (goroutine timing still varies), so a failing seed reruns
// with -run 'TestChaosEndToEnd/seed=N'.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosRun(t, seed) })
	}
}

// recoverable classifies an error for a keyed session's reopen loop:
// transport-level failures retry, and so does an unknown-session
// rejection — after a server restart or idle eviction the keyed re-open
// restores the session from its checkpoint.
//
// A corrupt frame (ErrCorrupt locally, ErrCodeCorrupt from the peer) is
// fatal for a plain client — the mangled exchange's fate is unknown, so
// resending the same bytes could double-apply — but recoverable here:
// the loop drops the connection and reopens the key, whose FrameOpened
// carries the server's authoritative cursor and tallies, instead of
// retrying bytes, preserving exactly-once.
func recoverable(err error) bool {
	if IsRetryable(err) {
		return true
	}
	if errors.Is(err, ErrCorrupt) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && (re.Code == ErrCodeUnknownSession || re.Code == ErrCodeCorrupt)
}

// replayKeyed replays tr through the keyed session req.Key on addr, and
// on every error recoverable accepts redials, reopens the key and calls
// Replay again, which resumes from the server's cursor. Failed attempts
// in a row wait out a jittered doubling backoff; an attempt that opened
// the session restarts it. It returns the result and the number of
// reopens.
func replayKeyed(addr string, cfg ClientConfig, req OpenRequest, tr trace.Trace, limit uint64, batchSize int) (sim.Result, int, error) {
	const maxFailsInRow = 100
	rng := jitterRand(cfg.Seed)
	var bo backoff
	for reopens, fails := 0, 0; ; reopens++ {
		res, opened, err := replayOnce(addr, cfg, req, tr, limit, batchSize)
		if err == nil {
			return res, reopens, nil
		}
		if !recoverable(err) {
			return sim.Result{}, reopens, err
		}
		if opened {
			fails = 0
		}
		if fails == 0 {
			bo = backoff{rng: rng, base: time.Millisecond, max: 2 * time.Second}
		}
		if fails++; fails > maxFailsInRow {
			return sim.Result{}, reopens, fmt.Errorf("key %q: %d failed reopens in a row: %w", req.Key, fails-1, err)
		}
		bo.sleep(0)
	}
}

// replayOnce is one attempt of replayKeyed: dial, open the key, Replay.
// opened reports whether the open succeeded.
func replayOnce(addr string, cfg ClientConfig, req OpenRequest, tr trace.Trace, limit uint64, batchSize int) (res sim.Result, opened bool, err error) {
	c, err := DialConfig(addr, cfg)
	if err != nil {
		return sim.Result{}, false, err
	}
	defer c.Close()
	sess, err := c.OpenSession(req)
	if err != nil {
		return sim.Result{}, false, err
	}
	res, err = sess.Replay(tr, limit, batchSize, nil)
	return res, true, err
}

func chaosRun(t *testing.T, seed uint64) {
	srv := NewServer(Config{
		Engine:       EngineConfig{MaxInflight: 1},
		FrameTimeout: 20 * time.Millisecond,
	})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fcfg := faultnet.Config{
		Seed:        seed,
		CorruptRate: 0.002,
		DropRate:    0.002,
		ResetRate:   0.002,
		StallRate:   0.004,
		StallFor:    40 * time.Millisecond,
	}
	ln := faultnet.WrapListener(raw, fcfg, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	for deadline := time.Now().Add(5 * time.Second); srv.Addr() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("server never published its address")
		}
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()
	specs := []struct {
		trace string
		spec  string
	}{
		{"INT-1", "tage-16K?mode=probabilistic"},
		{"MM-1", "bimodal-64K"},
		{"SERV-1", "tage-16K"},
		{"FP-1", "bimodal-16K"},
	}
	const (
		limit     = 50_000
		batchSize = 256
	)
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	reopens := make([]int, len(specs))
	for i, sc := range specs {
		wg.Add(1)
		go func(i int, traceName, spec string) {
			defer wg.Done()
			tr, err := workload.ByName(traceName)
			if err != nil {
				errs[i] = err
				return
			}
			// A corrupted length prefix in a response can promise bytes
			// the server never sends; the read deadline turns that hang
			// into one more recovered fault. Each session gets its own
			// jitter seed, so sessions hit by one fault do not retry in
			// lockstep.
			cfg := ClientConfig{Seed: seed + uint64(i), ReadTimeout: 250 * time.Millisecond}
			req := OpenRequest{Spec: spec, Key: "chaos/" + traceName}
			res, n, err := replayKeyed(addr, cfg, req, tr, limit, batchSize)
			reopens[i] = n
			if err != nil {
				errs[i] = fmt.Errorf("replay %s: %w", traceName, err)
				return
			}
			sp, err := predictor.Parse(spec)
			if err != nil {
				errs[i] = err
				return
			}
			offline, err := sim.RunSpec(sp, tr, limit)
			if err != nil {
				errs[i] = err
				return
			}
			if res != offline {
				errs[i] = fmt.Errorf("%s: chaos replay %+v != offline %+v", traceName, res, offline)
			}
		}(i, sc.trace, sc.spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if total := ln.Stats().Total(); total == 0 {
		t.Fatal("fault injector injected nothing — the run proved nothing")
	} else {
		t.Logf("survived %d injected faults (%s) with %v reopens", total, ln.Stats(), reopens)
	}
	if slices.Max(reopens) == 0 {
		t.Error("no session reopened its key despite injected faults")
	}

	// Every session was retired by its Replay. (The engine's service-wide
	// branch count is not exact: when a close's reply is lost, the reopen
	// loop above finds the key retired, opens it fresh and replays the
	// whole trace again, so the server counts that session twice while
	// the client result stays exact.)
	snap := srv.Engine().Snapshot()
	t.Logf("server: %d sheds, %d slow-peer evictions, %d corrupt frames, %d branches served",
		snap.ShedBatches, srv.slowEvicted.Load(), srv.corruptFrames.Load(), snap.Branches)
	if snap.LiveSessions != 0 {
		t.Fatalf("%d sessions still live after every replay finished", snap.LiveSessions)
	}
	// No leaked admission slot: a handler may still be finishing a
	// stalled write to a conn the client already gave up on, so the
	// count must drain to zero rather than be zero at once.
	for deadline := time.Now().Add(5 * time.Second); srv.Engine().Snapshot().InflightBatches != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d admission slots still held after every replay finished", srv.Engine().Snapshot().InflightBatches)
		}
		time.Sleep(time.Millisecond)
	}
}
