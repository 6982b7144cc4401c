package serve

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRouterRing pins the consistent-hash placement properties the
// cluster depends on: determinism, full coverage, distinct failover
// order, and placement stability when a node leaves the ring.
func TestRouterRing(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("router with no nodes accepted")
	}
	nodes := []string{"10.0.0.1:7", "10.0.0.2:7", "10.0.0.3:7"}
	r1, err := NewRouter(RouterConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRouter(RouterConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	placed := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session/%d", i)
		if r1.NodeFor(key) != r2.NodeFor(key) {
			t.Fatalf("placement of %q not deterministic", key)
		}
		order := r1.nodesFor(key)
		if len(order) != len(nodes) {
			t.Fatalf("failover order for %q covers %d nodes, want %d", key, len(order), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("failover order for %q repeats %q", key, n)
			}
			seen[n] = true
		}
		placed[order[0]]++
	}
	for _, n := range nodes {
		if placed[n] == 0 {
			t.Errorf("node %s received no sessions out of 1000", n)
		}
	}
	// Consistent-hashing stability: removing one node must not move keys
	// placed on the surviving nodes.
	r3, err := NewRouter(RouterConfig{Nodes: nodes[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session/%d", i)
		if primary := r1.NodeFor(key); primary != nodes[2] {
			if got := r3.NodeFor(key); got != primary {
				t.Fatalf("key %q moved %s -> %s when %s left", key, primary, got, nodes[2])
			}
		}
	}
}

// keyOn finds a session key whose primary placement is the given node.
func keyOn(t *testing.T, r *Router, node string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("failover/key-%d", i)
		if r.NodeFor(key) == node {
			return key
		}
	}
	t.Fatal("no key maps to node")
	return ""
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

// Close forwards an early release to the wrapped reader.
func (r *gatedReader) Close() {
	if c, ok := r.rd.(interface{ Close() }); ok {
		c.Close()
	}
}

// TestRouterFailover is the cluster acceptance pin: a routed replay
// survives its primary node dying mid-stream — the session fails over to
// the next ring node carrying the client-held snapshot, the cursor
// resyncs, and the final tallies still match an uninterrupted offline
// run bit for bit. Node roll-ups record the failover as one recovery.
func TestRouterFailover(t *testing.T) {
	srv1 := startServer(t, Config{})
	srv2 := startServer(t, Config{})
	addr1, addr2 := srv1.Addr().String(), srv2.Addr().String()
	r, err := NewRouter(RouterConfig{
		Nodes:        []string{addr1, addr2},
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOn(t, r, addr1)

	const (
		limit     = 400_000
		batchSize = 512
		spec      = "tage-16K?mode=probabilistic"
	)
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Open(key, OpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Node() != addr1 {
		t.Fatalf("session placed on %s, want primary %s", rs.Node(), addr1)
	}
	type outcome struct {
		res sim.Result
		err error
	}
	// Kill the primary once the replay is far enough in to have refreshed
	// its failover snapshot at least once (every snapshotEvery = 8
	// batches), but nowhere near done: the replay's reader blocks before
	// branch 16*batchSize until the primary is down, so the kill lands at
	// the same point of the stream on every run.
	gate := &gatedTrace{Trace: tr, at: 16 * batchSize, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan outcome, 1)
	go func() {
		res, err := rs.Replay(gate, limit, batchSize, nil)
		done <- outcome{res, err}
	}()
	select {
	case <-gate.reached:
	case o := <-done:
		t.Fatalf("replay finished before the induced failure (err=%v)", o.err)
	case <-time.After(30 * time.Second):
		t.Fatal("replay never reached the failure point")
	}
	if got := srv1.Engine().Snapshot().Branches; got != 16*batchSize {
		t.Fatalf("primary served %d branches at the failure point, want %d", got, 16*batchSize)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown primary: %v", err)
	}
	cancel()
	close(gate.release)

	var o outcome
	select {
	case o = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("routed replay did not finish after failover")
	}
	if o.err != nil {
		t.Fatalf("routed replay: %v", o.err)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	// Router sessions label results with the request's (zero) mode.
	offline.Mode = o.res.Mode
	if o.res != offline {
		t.Errorf("failover replay %+v != offline %+v", o.res, offline)
	}
	stats := r.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats cover %d nodes, want 2", len(stats))
	}
	byAddr := map[string]NodeStats{}
	for _, ns := range stats {
		byAddr[ns.Addr] = ns
	}
	if byAddr[addr2].Failovers != 1 || byAddr[addr2].Recoveries != 1 {
		t.Errorf("node %s records %d failovers and %d recoveries, want 1 and 1",
			addr2, byAddr[addr2].Failovers, byAddr[addr2].Recoveries)
	}
	if byAddr[addr1].Retries == 0 {
		t.Errorf("node %s records no retries despite dying mid-replay", addr1)
	}
	if byAddr[addr1].Sessions != 0 || byAddr[addr2].Sessions != 0 {
		t.Errorf("sessions still placed after completed replay: %+v", stats)
	}
}

// TestRouterResumeAfterRestart pins the same-node recovery path: when
// the session's node comes back (same address, state restored from its
// checkpoint directory), the router reconnects to it rather than failing
// over, resumes from the checkpoint cursor, and the replay still matches
// offline bit for bit. This is the in-process twin of the kill-9 test in
// crash_test.go.
func TestRouterResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srvA := startServer(t, Config{StateDir: dir, CheckpointInterval: 5 * time.Millisecond})
	addr := srvA.Addr().String()
	r, err := NewRouter(RouterConfig{
		Nodes:        []string{addr},
		MaxRetries:   10,
		RetryBackoff: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		limit     = 300_000
		batchSize = 512
		spec      = "bimodal-64K"
		key       = "restart/FP-2"
	)
	tr, err := workload.ByName("FP-2")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Open(key, OpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res sim.Result
		err error
	}
	// The replay's reader blocks before branch 16*batchSize until the
	// node is down, so the restart lands at the same point of the stream
	// on every run, never after the replay finished.
	gate := &gatedTrace{Trace: tr, at: 16 * batchSize, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan outcome, 1)
	go func() {
		res, err := rs.Replay(gate, limit, batchSize, nil)
		done <- outcome{res, err}
	}()
	select {
	case <-gate.reached:
	case o := <-done:
		t.Fatalf("replay finished before the induced restart (err=%v)", o.err)
	case <-time.After(30 * time.Second):
		t.Fatal("replay never reached the restart point")
	}

	// Let the checkpoint loop write the session, then take the node down
	// and bring a replacement up on the same address and state directory
	// — the in-process twin of a node restart.
	for deadline := time.Now().Add(30 * time.Second); srvA.Engine().Snapshot().CheckpointsWritten == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written in time")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	close(gate.release)
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

	var o outcome
	select {
	case o = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish after restart")
	}
	if o.err != nil {
		t.Fatalf("replay: %v", o.err)
	}
	if got := srvB.Engine().Snapshot().CheckpointRestores; got != 1 {
		t.Errorf("restarted node restored %d sessions, want 1", got)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	offline.Mode = o.res.Mode
	if o.res != offline {
		t.Errorf("restart replay %+v != offline %+v", o.res, offline)
	}
}

// TestRouterReplayCursorPastTrace pins that a routed session whose
// server cursor lies beyond the requested trace length fails the replay
// instead of recovering forever: the short trace is a property of the
// request, not a transport fault.
func TestRouterReplayCursorPastTrace(t *testing.T) {
	srv := startServer(t, Config{})
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	const key, spec = "router/past-end", "tage-16K"
	sess, err := dial(t, srv).OpenSession(OpenRequest{Spec: spec, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	streamSlice(t, sess, collectBranches(t, tr, 3000), 1000)
	r, err := NewRouter(RouterConfig{Nodes: []string{srv.Addr().String()}, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Open(key, OpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Replay(tr, 2000, 500, nil); err == nil || recoverable(err) {
		t.Fatalf("replay to 2000 of a session at 3000: err = %v, want a fatal error", err)
	}
}

// TestRouterBusyRollup pins the busy-retry roll-up: every batch the node
// sheds, and the client retries internally, is folded into that node's
// NodeStats.BusyRetries, one for one with the server's shed count, and
// the replay still matches offline.
func TestRouterBusyRollup(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{MaxInflight: 1}})
	eng := srv.Engine()
	// Hold the node's only admission slot, so every batch is shed until
	// the test lets go of it.
	if !eng.AcquireBatch() {
		t.Fatal("admission refused the first slot")
	}
	r, err := NewRouter(RouterConfig{
		Nodes: []string{srv.Addr().String()},
		// A budget the test never exhausts: every shed stays an internal
		// busy retry instead of surfacing as a recovery.
		Client: ClientConfig{BusyRetries: 1000, BusyBackoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		limit     = 20_000
		batchSize = 256
		spec      = "tage-16K"
	)
	tr, err := workload.ByName("SERV-3")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Open("busy/SERV-3", OpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res sim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rs.Replay(tr, limit, batchSize, nil)
		done <- outcome{res, err}
	}()
	for deadline := time.Now().Add(30 * time.Second); eng.Snapshot().ShedBatches < 3; {
		if time.Now().After(deadline) {
			t.Fatal("the node never shed three batches")
		}
		time.Sleep(100 * time.Microsecond)
	}
	eng.ReleaseBatch()
	o := <-done
	if o.err != nil {
		t.Fatalf("replay: %v", o.err)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	offline.Mode = o.res.Mode
	if o.res != offline {
		t.Errorf("replay %+v != offline %+v", o.res, offline)
	}
	sheds := eng.Snapshot().ShedBatches
	if stats := r.Stats(); len(stats) != 1 || stats[0].BusyRetries != sheds {
		t.Errorf("router roll-up %+v, want BusyRetries = %d (the node's sheds)", stats, sheds)
	}
}

// TestRouterBreakerOpensAndCloses pins the circuit breaker's life cycle
// on a one-node cluster with a threshold of one: the node dying
// mid-replay opens its breaker, the restarted node's first successful
// probe closes it, both transitions are counted once and recorded in
// order, and the replay still matches offline.
func TestRouterBreakerOpensAndCloses(t *testing.T) {
	dir := t.TempDir()
	srvA := startServer(t, Config{StateDir: dir, CheckpointInterval: -1})
	addr := srvA.Addr().String()
	r, err := NewRouter(RouterConfig{
		Nodes:            []string{addr},
		MaxRetries:       12,
		RetryBackoff:     5 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		limit     = 40_000
		batchSize = 512
		spec      = "tage-16K?mode=probabilistic"
	)
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Open("breaker/INT-3", OpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res sim.Result
		err error
	}
	gate := &gatedTrace{Trace: tr, at: 8 * batchSize, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan outcome, 1)
	go func() {
		res, err := rs.Replay(gate, limit, batchSize, nil)
		done <- outcome{res, err}
	}()
	select {
	case <-gate.reached:
	case o := <-done:
		t.Fatalf("replay finished before the induced failure (err=%v)", o.err)
	case <-time.After(30 * time.Second):
		t.Fatal("replay never reached the failure point")
	}
	// The graceful shutdown checkpoints the session for the restart.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	close(gate.release)
	// Restart only once a reconnect has failed: the breaker is open then.
	for deadline := time.Now().Add(30 * time.Second); r.Stats()[0].Retries == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the router never retried the dead node")
		}
		time.Sleep(100 * time.Microsecond)
	}
	srvB := NewServer(Config{StateDir: dir, CheckpointInterval: -1})
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

	var o outcome
	select {
	case o = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish after restart")
	}
	if o.err != nil {
		t.Fatalf("replay: %v", o.err)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	offline.Mode = o.res.Mode
	if o.res != offline {
		t.Errorf("replay %+v != offline %+v", o.res, offline)
	}
	if ns := r.Stats()[0]; ns.BreakerOpens != 1 || ns.BreakerCloses != 1 {
		t.Errorf("breaker opened %d and closed %d times, want 1 and 1", ns.BreakerOpens, ns.BreakerCloses)
	}
	var kinds []obs.EventKind
	for _, ev := range r.Events().Snapshot() {
		if ev.Kind == obs.EvBreakerOpen || ev.Kind == obs.EvBreakerClose {
			kinds = append(kinds, ev.Kind)
		}
	}
	if want := []obs.EventKind{obs.EvBreakerOpen, obs.EvBreakerClose}; !slices.Equal(kinds, want) {
		t.Errorf("router breaker events %v, want %v", kinds, want)
	}
}
