package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/statecodec"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamSlice pushes a branch slice through a session in fixed batches.
func streamSlice(t *testing.T, sess *ClientSession, branches []trace.Branch, batchSize int) {
	t.Helper()
	for start := 0; start < len(branches); start += batchSize {
		end := start + batchSize
		if end > len(branches) {
			end = len(branches)
		}
		if _, err := sess.Predict(branches[start:end]); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
}

// TestSnapshotCutEquivalence pins that a checkpoint cut is exact at any
// branch index, for every backend family: replaying the head of a trace
// on one server, draining it at the cut, and finishing the replay
// through a keyed reopen on a second server booted on the same state
// directory yields final tallies bit-identical to an uninterrupted
// offline run. (The full config×mode×trace matrix is pinned at the
// predictor layer by TestSnapshotRestoreBitIdentity; this covers the
// session envelope, the checkpoint store and the wire path.)
func TestSnapshotCutEquivalence(t *testing.T) {
	dir := t.TempDir()
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 20_000
	branches := collectBranches(t, tr, limit)
	// Arbitrary, deliberately batch-unaligned cut points.
	cases := []struct {
		spec string
		cut  int
	}{
		{"tage-16K?mode=probabilistic", 7_333},
		{"tage-64K?mkp=8&mode=adaptive", 13_001},
		{"bimodal-64K?log=13", 1},
		{"jrs-16K?enhanced=true", 19_999},
		{"perceptron", 9_876},
	}
	srcSrv := startServer(t, Config{StateDir: dir, CheckpointInterval: -1})
	src := dial(t, srcSrv)
	labels := make([]string, len(cases))
	for i, tc := range cases {
		sess, err := src.OpenSession(OpenRequest{Spec: tc.spec, Key: "cut/" + tc.spec})
		if err != nil {
			t.Fatalf("OpenSession(%q): %v", tc.spec, err)
		}
		if sess.Resumed() != 0 {
			t.Fatalf("%s: fresh session resumed at %d", tc.spec, sess.Resumed())
		}
		streamSlice(t, sess, branches[:tc.cut], 777)
		labels[i] = sess.Config()
	}
	// The drain writes every session's checkpoint at its cut.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srcSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()

	dstSrv := startServer(t, Config{StateDir: dir, CheckpointInterval: -1})
	dst := dial(t, dstSrv)
	for i, tc := range cases {
		sp, err := predictor.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := sim.RunSpec(sp, tr, limit)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dst.OpenSession(OpenRequest{Key: "cut/" + tc.spec})
		if err != nil {
			t.Fatalf("reopen %q: %v", tc.spec, err)
		}
		if got := sess.Resumed(); got != uint64(tc.cut) {
			t.Fatalf("%s: restored session resumed at %d, want %d", tc.spec, got, tc.cut)
		}
		if sess.Config() != labels[i] {
			t.Fatalf("%s: restore changed the label: %q -> %q", tc.spec, labels[i], sess.Config())
		}
		streamSlice(t, sess, branches[tc.cut:], 777)
		res, err := sess.Close()
		if err != nil {
			t.Fatalf("Close(%q): %v", tc.spec, err)
		}
		res.Trace = tr.Name()
		if res != offline {
			t.Errorf("%s cut %d: restored %+v != offline %+v", tc.spec, tc.cut, res, offline)
		}
	}
}

// frameLog is a net.Conn that records the type of every frame written
// through it, reassembling frames across Write boundaries.
type frameLog struct {
	net.Conn
	pending []byte
	types   []byte
}

func (l *frameLog) Write(p []byte) (int, error) {
	l.pending = append(l.pending, p...)
	for len(l.pending) >= 5 {
		n := 4 + int(binary.LittleEndian.Uint32(l.pending))
		if len(l.pending) < n {
			break
		}
		l.types = append(l.types, l.pending[4])
		l.pending = l.pending[n:]
	}
	return l.Conn.Write(p)
}

// TestReopenCarriesTallies pins that a keyed reopen is the whole
// recovery: FrameOpened carries the session's tallies, equal to the
// FrameStats a close at the same cursor returns, and a resumed Replay
// sends no FrameSnapGet.
func TestReopenCarriesTallies(t *testing.T) {
	srv := startServer(t, Config{})
	tr, err := workload.ByName("SERV-2")
	if err != nil {
		t.Fatal(err)
	}
	const cut, limit = 3_001, 8_000
	const spec = "tage-16K?mkp=4&mode=adaptive"
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	head := collectBranches(t, tr, cut)
	for _, key := range []string{"tallies/stats", "tallies/replay"} {
		sess, err := dial(t, srv).OpenSession(OpenRequest{Spec: spec, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		streamSlice(t, sess, head, 1000)
	}

	reopened, err := dial(t, srv).OpenSession(OpenRequest{Key: "tallies/stats"})
	if err != nil {
		t.Fatal(err)
	}
	opened := reopened.opened
	stats, err := reopened.Close()
	if err != nil {
		t.Fatal(err)
	}
	if opened.Branches != cut || opened != stats {
		t.Fatalf("reopen tallies %+v, close at the same cursor %+v (want branches %d)", opened, stats, cut)
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	written := &frameLog{Conn: conn}
	c := NewClient(written)
	defer c.Close()
	sess, err := c.OpenSession(OpenRequest{Key: "tallies/replay"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Replay(tr, limit, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != offline {
		t.Errorf("resumed replay %+v != offline %+v", res, offline)
	}
	if types := written.types; bytes.IndexByte(types, FrameSnapGet) >= 0 || types[0] != FrameOpen || types[len(types)-1] != FrameClose {
		t.Errorf("resumed replay wrote frame types %x, want FrameOpen, batches, FrameClose and no FrameSnapGet", types)
	}
}

// TestUnknownFrameCloses pins the unknown-frame path: a frame type the
// server does not know — 0x0B, which no frame holds — is answered with
// ErrCodeMalformed and the connection closes.
func TestUnknownFrameCloses(t *testing.T) {
	srv := startServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	frame := BeginFrame(nil, 0x0B)
	frame = EndFrame(statecodec.AppendString(frame, "blob"), 0)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, payload, _, err := ReadFrame(br, nil)
	if err != nil || typ != FrameError {
		t.Fatalf("reply: type %#02x err %v, want FrameError", typ, err)
	}
	if re, err := DecodeError(payload); err != nil || re.Code != ErrCodeMalformed {
		t.Fatalf("reply %+v (err %v), want code ErrCodeMalformed", re, err)
	}
	if _, _, _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the error frame: err = %v, want io.EOF (connection closed)", err)
	}
}

// TestReplayResumedKeyedSession pins Replay's resume path: a keyed
// session resumed on a new connection adopts the server's tallies and
// replays the trace from the server's cursor, so the result still equals
// an uninterrupted offline run.
func TestReplayResumedKeyedSession(t *testing.T) {
	srv := startServer(t, Config{})
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	const cut, limit = 2000, 6000
	req := OpenRequest{
		Config:  "16K",
		Options: core.Options{Mode: core.ModeProbabilistic},
		Key:     "resume/replay",
	}
	c1 := dial(t, srv)
	sess, err := c1.OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	streamSlice(t, sess, collectBranches(t, tr, cut), 500)
	// The keyed session outlives its connection.
	c1.Close()
	sess2, err := dial(t, srv).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.Resumed(); got != cut {
		t.Fatalf("resumed at %d, want %d", got, cut)
	}
	got, err := sess2.Replay(tr, limit, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tage.ConfigByName("16K")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunConfig(cfg, req.Options, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed replay %+v != offline %+v", got, want)
	}
}

// TestKeyedReopenFencesOldID pins the exactly-once fence of a keyed
// reopen: reopening a live key moves the session to a new id, so a batch
// that arrives late on the connection the client abandoned, addressed to
// the old id, is rejected as an unknown session instead of being served
// a second time after the reopen handed out the cursor. The moved session
// keeps the cursor, and the live-session count does not change.
func TestKeyedReopenFencesOldID(t *testing.T) {
	srv := startServer(t, Config{})
	req := OpenRequest{Spec: "tage-16K", Key: "fence/stale"}
	stale, err := dial(t, srv).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	branches := sampleBranches(1000, 9)
	streamSlice(t, stale, branches[:500], 250)
	fresh, err := dial(t, srv).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() == stale.ID() || fresh.Resumed() != 500 {
		t.Fatalf("reopen: id %d (old %d), resumed at %d; want a new id resumed at 500",
			fresh.ID(), stale.ID(), fresh.Resumed())
	}
	_, err = stale.Predict(branches[500:750])
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeUnknownSession {
		t.Fatalf("late batch on the old id: err = %v, want ErrCodeUnknownSession", err)
	}
	streamSlice(t, fresh, branches[500:], 250)
	if snap := srv.Engine().Snapshot(); snap.Branches != 1000 || snap.LiveSessions != 1 || snap.OpenedSessions != 1 {
		t.Fatalf("engine: %d branches, %d live, %d opened; want 1000, 1, 1",
			snap.Branches, snap.LiveSessions, snap.OpenedSessions)
	}
}

// gatedTrace wraps a trace so that every reader blocks before returning
// branch at until release is closed; the first reader to get there
// closes reached. Readers opened after the release pass straight
// through.
type gatedTrace struct {
	trace.Trace
	at      uint64
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedTrace) Open() trace.Reader { return &gatedReader{g: g, rd: g.Trace.Open()} }

type gatedReader struct {
	g  *gatedTrace
	rd trace.Reader
	n  uint64
}

func (r *gatedReader) Next() (trace.Branch, error) {
	if r.n == r.g.at {
		r.g.once.Do(func() { close(r.g.reached) })
		<-r.g.release
	}
	r.n++
	return r.rd.Next()
}

// TestKeyedResumeAfterRestart pins the single-node recovery recipe: a
// keyed replay whose server shuts down mid-stream fails, and once a
// replacement server boots on the same address and state directory the
// client redials, reopens the key, resumes exactly at the drain
// checkpoint's cursor, and the replay still matches offline bit for
// bit. This is the in-process twin of the kill-9 test in crash_test.go.
func TestKeyedResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srvA := startServer(t, Config{StateDir: dir, CheckpointInterval: 5 * time.Millisecond})
	addr := srvA.Addr().String()
	const (
		limit     = 300_000
		batchSize = 512
		stop      = 16 * batchSize
	)
	req := OpenRequest{Spec: "bimodal-64K", Key: "restart/FP-2"}
	tr, err := workload.ByName("FP-2")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dial(t, srvA).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	// The replay's reader blocks before branch stop until the server is
	// down, so the shutdown lands at the same point of the stream on
	// every run, never after the replay finished.
	gate := &gatedTrace{Trace: tr, at: stop, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Replay(gate, limit, batchSize, nil)
		done <- err
	}()
	select {
	case <-gate.reached:
	case err := <-done:
		t.Fatalf("replay finished before the induced restart (err=%v)", err)
	case <-time.After(30 * time.Second):
		t.Fatal("replay never reached the restart point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	close(gate.release)
	if err := <-done; err == nil {
		t.Fatal("replay finished although its server shut down mid-stream")
	}

	// A replacement on the same address and state directory — the
	// in-process twin of a restart.
	srvB := NewServer(Config{StateDir: dir, CheckpointInterval: 5 * time.Millisecond})
	lnB, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srvB.Serve(lnB) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srvB.Shutdown(ctx); err != nil {
			t.Errorf("shutdown replacement: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("replacement serve returned: %v", err)
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess2, err := c.OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.Resumed(); got != stop {
		t.Fatalf("reopened key resumed at %d, want the drain cursor %d", got, stop)
	}
	res, err := sess2.Replay(tr, limit, batchSize, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := srvB.Engine().Snapshot().CheckpointRestores; got != 1 {
		t.Errorf("restarted server restored %d sessions, want 1", got)
	}
	sp, err := predictor.Parse(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	if res != offline {
		t.Errorf("restart replay %+v != offline %+v", res, offline)
	}
}

// TestReplayCursorPastTrace pins that a resumed session whose server
// cursor lies beyond the requested trace length fails the replay with an
// error a reopen loop must not retry: the short trace is a property of
// the request, not a transport fault.
func TestReplayCursorPastTrace(t *testing.T) {
	srv := startServer(t, Config{})
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	req := OpenRequest{Spec: "tage-16K", Key: "resume/past-end"}
	sess, err := dial(t, srv).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	streamSlice(t, sess, collectBranches(t, tr, 3000), 1000)
	sess2, err := dial(t, srv).OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Replay(tr, 2000, 500, nil); err == nil || IsRetryable(err) {
		t.Fatalf("replay to 2000 of a session at 3000: err = %v, want a non-retryable error", err)
	}
}

// TestCheckpointWarmStart pins the WAL-free restart path end to end: a
// keyed session's state survives a graceful shutdown via the drain
// checkpoint, a second server booting on the same state directory
// restores it before accepting traffic, and the resumed replay finishes
// bit-identical to an uninterrupted offline run. It also pins that an
// explicit Close consumes the checkpoint.
func TestCheckpointWarmStart(t *testing.T) {
	dir := t.TempDir()
	tr, err := workload.ByName("SERV-2")
	if err != nil {
		t.Fatal(err)
	}
	const (
		limit = 24_000
		cut   = 9_413
		key   = "warm/SERV-2"
		spec  = "tage-16K?mkp=4&mode=adaptive"
	)
	branches := collectBranches(t, tr, limit)
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}

	srv1 := startServer(t, Config{StateDir: dir, CheckpointInterval: -1})
	c1 := dial(t, srv1)
	sess1, err := c1.OpenSession(OpenRequest{Spec: spec, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	label := sess1.Config()
	streamSlice(t, sess1, branches[:cut], 500)
	// Graceful shutdown: the drain must write the final checkpoint even
	// though the periodic loop is disabled.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("state dir holds %d checkpoints after drain, want 1", ckpts)
	}

	srv2 := startServer(t, Config{StateDir: dir, CheckpointInterval: -1})
	snap := srv2.Engine().Snapshot()
	if snap.CheckpointRestores != 1 || snap.LiveSessions != 1 {
		t.Fatalf("warm start restored %d sessions (%d live), want 1",
			snap.CheckpointRestores, snap.LiveSessions)
	}
	c2 := dial(t, srv2)
	// The key is the identity: the resume ignores the request's predictor
	// fields entirely (a deliberately different spec proves it).
	sess2, err := c2.OpenSession(OpenRequest{Spec: "bimodal-64K", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.Resumed(); got != cut {
		t.Fatalf("resumed cursor %d, want %d", got, cut)
	}
	if sess2.Config() != label {
		t.Fatalf("resumed session labeled %q, want %q", sess2.Config(), label)
	}
	streamSlice(t, sess2, branches[cut:], 500)
	res, err := sess2.Close()
	if err != nil {
		t.Fatal(err)
	}
	res.Trace = tr.Name()
	if res != offline {
		t.Errorf("warm-started replay %+v != offline %+v", res, offline)
	}
	// The explicit close consumed the session: its checkpoint is gone and
	// the key now opens fresh.
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := cs.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("checkpoints after close: %v (err %v), want none", keys, err)
	}
	sess3, err := c2.OpenSession(OpenRequest{Spec: spec, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if sess3.Resumed() != 0 {
		t.Fatalf("closed key resumed at %d, want fresh", sess3.Resumed())
	}
}

// TestServeRestoresBeforeAddr pins the boot order: Serve publishes its
// listener, which turns Addr non-nil, only after every checkpoint is
// restored. A caller that waits on Addr, as startServer does, must find
// the restored sessions already in the engine. Many sessions make the
// restore long enough that a listener published first is always seen
// before the restore ends.
func TestServeRestoresBeforeAddr(t *testing.T) {
	dir := t.TempDir()
	const sessions = 64
	eng := NewEngine(EngineConfig{})
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AttachStore(cs, 0); err != nil {
		t.Fatal(err)
	}
	branches := sampleBranches(500, 1)
	for i := 0; i < sessions; i++ {
		s, err := eng.Open(OpenRequest{Spec: "tage-64K", Key: fmt.Sprintf("boot/%d", i)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Serve(branches, nil, 1); !ok {
			t.Fatal("session refused to serve")
		}
	}
	if n := eng.CheckpointDirty(2, true); n != sessions {
		t.Fatalf("checkpointed %d sessions, want %d", n, sessions)
	}

	srv := NewServer(Config{StateDir: dir, CheckpointInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	for deadline := time.Now().Add(10 * time.Second); srv.Addr() == nil; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("server never published its address")
		}
	}
	if got := srv.Engine().Snapshot().CheckpointRestores; got != sessions {
		t.Fatalf("Addr published with %d of %d checkpoints restored", got, sessions)
	}
}

// TestEvictRestoreExactlyOnce pins the parked-tally accounting: a keyed
// session that bounces through idle eviction and checkpoint restore
// keeps the service-wide counters exact (every branch counted exactly
// once) and still closes with tallies bit-identical to an uninterrupted
// offline run.
func TestEvictRestoreExactlyOnce(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	cs, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.AttachStore(cs, 0); err != nil || n != 0 {
		t.Fatalf("AttachStore on empty dir: n=%d err=%v", n, err)
	}
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	const limit, cut = 30_000, 20_000
	branches := collectBranches(t, tr, limit)
	cfg, err := tage.ConfigByName("16K")
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunConfig(cfg, core.Options{}, tr, limit)
	if err != nil {
		t.Fatal(err)
	}

	s, err := eng.Open(OpenRequest{Config: "16K", Key: "once/INT-3"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var grades []byte
	grades, _ = s.Serve(branches[:cut], grades, 1)
	if got := eng.Snapshot().Branches; got != cut {
		t.Fatalf("live branches %d, want %d", got, cut)
	}
	if n := eng.SweepIdle(2); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	snap := eng.Snapshot()
	if snap.Branches != cut || snap.EvictedSessions != 1 || snap.CheckpointsWritten != 1 {
		t.Fatalf("post-evict snapshot %+v", snap)
	}

	s2, err := eng.Open(OpenRequest{Key: "once/INT-3"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Branches() != cut {
		t.Fatalf("restored cursor %d, want %d", s2.Branches(), cut)
	}
	// The restore must unpark the folded tallies: the total stays exactly
	// cut, not 2×cut.
	snap = eng.Snapshot()
	if snap.Branches != cut || snap.CheckpointRestores != 1 {
		t.Fatalf("post-restore snapshot counts branches=%d restores=%d, want %d/1",
			snap.Branches, snap.CheckpointRestores, cut)
	}
	if _, ok := s2.Serve(branches[cut:], grades, 3); !ok {
		t.Fatal("restored session refused to serve")
	}
	if got := eng.Snapshot().Branches; got != limit {
		t.Fatalf("final live branches %d, want %d", got, limit)
	}
	res, err := eng.Close(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	res.Trace = tr.Name()
	if res != offline {
		t.Errorf("evict/restore replay %+v != offline %+v", res, offline)
	}
	if got := eng.Snapshot().Branches; got != limit {
		t.Fatalf("post-close branches %d, want %d", got, limit)
	}
	if _, err := cs.Read("once/INT-3"); err == nil {
		t.Fatal("checkpoint survived explicit close")
	}
}

// TestCheckpointMetrics pins the /metrics roll-up of the checkpoint
// subsystem.
func TestCheckpointMetrics(t *testing.T) {
	srv := startServer(t, Config{
		StateDir:           t.TempDir(),
		CheckpointInterval: -1,
		MetricsAddr:        "127.0.0.1:0",
	})
	c := dial(t, srv)
	sess, err := c.OpenSession(OpenRequest{Config: "16K", Key: "metrics/k"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	streamSlice(t, sess, collectBranches(t, tr, 2_000), 400)
	if n := srv.Engine().CheckpointDirty(time.Now().UnixNano(), false); n != 1 {
		t.Fatalf("CheckpointDirty wrote %d, want 1", n)
	}
	resp, err := http.Get("http://" + srv.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tage_serve_checkpoints_written_total 1",
		"tage_serve_checkpoint_restores_total 0",
		"tage_serve_checkpoint_restore_failures_total 0",
		"tage_serve_checkpoint_write_failures_total 0",
		"tage_serve_checkpoint_last_age_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Bytes are config-dependent; just pin non-zero.
	if strings.Contains(text, "tage_serve_checkpoint_bytes_total 0\n") {
		t.Error("checkpoint bytes counter stayed zero")
	}
	// A clean pass leaves nothing dirty.
	if n := srv.Engine().CheckpointDirty(time.Now().UnixNano(), false); n != 0 {
		t.Fatalf("second CheckpointDirty wrote %d, want 0 (dirty tracking)", n)
	}
}

// TestSnapshotRejections pins the failure envelope of FrameSnapGet: an
// anonymous session cannot be snapshotted, and the rejection is
// ErrCodeSnapshot, answered in-band on a connection that stays usable.
func TestSnapshotRejections(t *testing.T) {
	srv := startServer(t, Config{})
	c := dial(t, srv)
	sess, err := c.Open("16K", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := sess.Snapshot(); !errors.As(err, &re) || re.Code != ErrCodeSnapshot {
		t.Fatalf("anonymous snapshot: err = %v, want ErrCodeSnapshot", err)
	}
	if _, err := sess.Predict(sampleBranches(10, 3)); err != nil {
		t.Fatalf("connection dead after the snapshot rejection: %v", err)
	}
}

// TestCheckpointRestoreRejections pins AttachStore's promise for
// checkpoints that cannot be restored — corrupt ones, junk, and a valid
// blob stored under another key: at AttachStore and again on a keyed
// open, each is counted in CheckpointRestoreFailures, recorded as
// EvRestoreFail and skipped, and the key then opens fresh. A valid
// checkpoint beside them still restores.
func TestCheckpointRestoreRejections(t *testing.T) {
	dir := t.TempDir()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(EngineConfig{})
	if _, err := warm.AttachStore(cs, 0); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"good", "other"} {
		s, err := warm.Open(OpenRequest{Spec: "tage-16K", Key: key}, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Serve(sampleBranches(500, 4), nil, 1)
	}
	if n := warm.CheckpointDirty(2, true); n != 2 {
		t.Fatalf("checkpointed %d sessions, want 2", n)
	}
	good, err := cs.Read("good")
	if err != nil {
		t.Fatal(err)
	}
	other, err := cs.Read("other")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Delete("other"); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/2] ^= 0x40
	bad := map[string][]byte{
		"bad/corrupt":   corrupt,
		"bad/junk":      []byte("definitely not a snapshot"),
		"bad/wrong-key": other,
	}
	for key, blob := range bad {
		if err := cs.Write(key, blob); err != nil {
			t.Fatal(err)
		}
	}

	eng := NewEngine(EngineConfig{})
	rec := obs.NewFlightRecorder(16)
	eng.SetEvents(rec)
	if n, err := eng.AttachStore(cs, 3); err != nil || n != 1 {
		t.Fatalf("AttachStore restored %d (err %v), want only the valid checkpoint", n, err)
	}
	failed := func() []string {
		var keys []string
		for _, ev := range rec.Snapshot() {
			if ev.Kind == obs.EvRestoreFail {
				keys = append(keys, ev.Key)
			}
		}
		slices.Sort(keys)
		return keys
	}
	want := []string{"bad/corrupt", "bad/junk", "bad/wrong-key"}
	if got := eng.Snapshot().CheckpointRestoreFailures; got != 3 || !slices.Equal(failed(), want) {
		t.Fatalf("after AttachStore: %d restore failures, events for %v; want 3 for %v", got, failed(), want)
	}
	for key := range bad {
		s, err := eng.Open(OpenRequest{Spec: "bimodal-64K", Key: key}, 4)
		if err != nil {
			t.Fatalf("open %q: %v", key, err)
		}
		if s.Branches() != 0 || s.ConfigName() != "bimodal-64K" {
			t.Errorf("open %q: %s at branch %d, want a fresh bimodal-64K session", key, s.ConfigName(), s.Branches())
		}
	}
	want = []string{"bad/corrupt", "bad/corrupt", "bad/junk", "bad/junk", "bad/wrong-key", "bad/wrong-key"}
	if got := eng.Snapshot().CheckpointRestoreFailures; got != 6 || !slices.Equal(failed(), want) {
		t.Fatalf("after keyed opens: %d restore failures, events for %v; want 6 for %v", got, failed(), want)
	}
	if s, err := eng.Open(OpenRequest{Key: "good"}, 5); err != nil || s.Branches() != 500 {
		t.Fatalf("valid checkpoint: %v, want restored at 500", err)
	}
}

// TestSessionSnapshotBytesPinned pins the session snapshot byte format
// for warmed sessions of several backend families: the SHA-256 of each
// blob was recorded when the format was introduced (version 1), so a
// stored checkpoint keeps restoring. The in-place encoder must also
// equal the blob-wrapping form, AppendSessionSnapshot over
// predictor.AppendSnapshot, and leave a non-empty dst prefix alone.
func TestSessionSnapshotBytesPinned(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req    OpenRequest
		size   int
		sha256 string
	}{
		{OpenRequest{Config: "64K", Options: core.Options{Mode: core.ModeProbabilistic}}, 15577, "3d4be9a57130c766f7f26cb333036d40d857e9ade3eb0923578c0f97db1fc838"},
		{OpenRequest{Config: "16K"}, 4505, "1f0ef197bfeb6ee79f22515fb932e4b02b7aae2e82f7bf908c1a12f138a7aac4"},
		{OpenRequest{Spec: "tage-256K?mode=adaptive"}, 67862, "8aea084e94b659b86d5106567567501451b4c8af9609f18b73479f1c622cf0d3"},
		{OpenRequest{Spec: "perceptron"}, 65625, "955ccfe9ae9f998e50f97e14a8243b747c9fcc9d72d7dd7e6ee10d756ed26ad9"},
		{OpenRequest{Spec: "ogehl?tables=4&log=8&maxhist=60"}, 1185, "a8873aae784cb6ee7652bd6cb4f923985112f942b6f036f7f54910317abf29b2"},
		{OpenRequest{Spec: "ltage-16K"}, 4872, "01840f6c8f3891a8c99d7f29cfbf68e897497186e8660382224a4d5e82c012fd"},
	} {
		c.req.Key = "golden/" + c.req.Config + c.req.Spec
		s, err := NewEngine(EngineConfig{}).Open(c.req, 0)
		if err != nil {
			t.Fatal(err)
		}
		var grades []byte
		for off := 0; off < len(branches); off += 1000 {
			grades, _ = s.Serve(branches[off:off+1000], grades, 0)
		}
		blob, err := s.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != c.size || sum != c.sha256 {
			t.Errorf("%s: session snapshot is %d bytes sha256 %s, want %d bytes %s", c.req.Key, len(blob), sum, c.size, c.sha256)
		}
		s.mu.Lock()
		pb, err := predictor.AppendSnapshot(nil, s.bk)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if wrapped := AppendSessionSnapshot(nil, SessionSnapshot{Key: s.key, Res: s.Stats(), Predictor: pb}); !bytes.Equal(blob, wrapped) {
			t.Errorf("%s: in-place encoding differs from AppendSessionSnapshot", c.req.Key)
		}
		prefix := []byte("prefix")
		got, err := s.AppendSnapshot(bytes.Clone(prefix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(prefix, blob...)) {
			t.Errorf("%s: snapshot appended after a prefix differs", c.req.Key)
		}
	}
}

// TestOpenRequestResolverLossless pins that Config/Options is only a
// typed builder for a TAGE spec: for every standard configuration, mode
// and non-default option, a Config/Options open and an open by the
// equivalent TAGESpec string build sessions whose snapshots are
// byte-identical after the same trace prefix. An empty Config is 64K.
func TestOpenRequestResolverLossless(t *testing.T) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 3000))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(req OpenRequest) []byte {
		t.Helper()
		req.Key = "lossless"
		s, err := NewEngine(EngineConfig{}).Open(req, 0)
		if err != nil {
			t.Fatalf("open %+v: %v", req, err)
		}
		s.Serve(branches, nil, 0)
		blob, err := s.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, name := range []string{"16K", "64K", "256K", ""} {
		cfg := tage.Medium64K()
		if name != "" {
			cfg, _ = tage.ConfigByName(name)
		}
		for _, mode := range []core.AutomatonMode{core.ModeStandard, core.ModeProbabilistic, core.ModeAdaptive} {
			for _, opts := range []core.Options{
				{},
				{DenomLog: 9},
				{BimWindow: -1},
				{TargetMKP: 12.5},
				{AdaptiveWindow: 8192},
			} {
				opts.Mode = mode
				spec := predictor.TAGESpec(cfg, opts).String()
				typed := snapshot(OpenRequest{Config: name, Options: opts})
				if byspec := snapshot(OpenRequest{Spec: spec}); !bytes.Equal(typed, byspec) {
					t.Errorf("config %q options %+v: snapshot differs from spec %q", name, opts, spec)
				}
			}
		}
	}
}
