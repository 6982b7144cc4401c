// Serving: run the online prediction service in-process, stream a short
// synthetic session through it over loopback TCP, and read back the
// live confidence-level breakdown — the storage-free estimate as a
// queryable signal rather than a post-hoc table. The second half is the
// durability story: predictor state snapshot/restore, and a keyed
// session surviving the death of its node through the failover-aware
// session router. The example exits non-zero unless that session fails
// over exactly once and still matches the offline run.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// gatedTrace wraps a trace so that its first reader blocks before
// returning branch `at` until release is closed, closing reached when
// it gets there. Readers opened later (the router reopens the trace to
// rewind after a failover) pass straight through.
type gatedTrace struct {
	repro.Trace
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

func (r *gatedReader) Next() (repro.Branch, error) {
	if r.n == r.g.at {
		r.g.once.Do(func() { close(r.g.reached) })
		<-r.g.release
	}
	r.n++
	return r.rd.Next()
}

func main() {
	// An in-process server: ephemeral loopback port, default predictor
	// 64K/probabilistic for minimal clients. Production deployments run
	// cmd/tageserved instead; the engine is the same.
	srv := repro.NewServer(repro.ServeConfig{
		Engine: repro.ServeEngineConfig{DefaultSpec: "tage-64K?mode=probabilistic"},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	// A client session: open, stream branch batches, read grades.
	c, err := repro.DialServer(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sess, err := c.OpenSession(repro.ServeOpenRequest{Spec: "tage-16K?mode=probabilistic"})
	if err != nil {
		log.Fatal(err)
	}

	// Drive a short synthetic session: 50k branches of a CBP-style
	// trace, batched 1000 at a time, with round-trip latency samples.
	tr, err := repro.TraceByName("186.crafty")
	if err != nil {
		log.Fatal(err)
	}
	var lat obs.Histogram
	res, err := sess.Replay(tr, 50_000, 1000, &lat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d branches of %s over the wire (%d batches, p99 %v)\n",
		res.Branches, res.Trace, lat.Count(), lat.Quantile(0.99))
	fmt.Printf("overall: %.2f misp/KI\n", res.MPKI())
	fmt.Println("confidence-level breakdown (server-side tallies, bit-identical to offline repro.Run):")
	for _, l := range repro.Levels() {
		cnt := res.Level(l)
		fmt.Printf("  %-6s  %5.1f%% of predictions, %6.1f MKP\n",
			l, 100*metrics.Pcov(cnt, res.Total), cnt.MKP())
	}

	// Sessions are heterogeneous: the same server hosts any registered
	// backend by spec. Open a bimodal session next to the TAGE one and
	// compare — /metrics reports the two under separate backend labels.
	bs, err := c.OpenSession(repro.ServeOpenRequest{Spec: "bimodal-64K"})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := bs.Replay(tr, 50_000, 1000, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame stream on %s: %.2f misp/KI (TAGE: %.2f)\n",
		bres.Config, bres.MPKI(), res.MPKI())

	// Durability, layer one: any registered backend's complete state
	// serializes into a self-describing versioned blob and restores
	// bit-identically — the primitive session checkpoints are built on.
	b, err := repro.New("tage-16K?mode=adaptive")
	if err != nil {
		log.Fatal(err)
	}
	warm, err := repro.TraceByName("MM-4")
	if err != nil {
		log.Fatal(err)
	}
	rd := warm.Open()
	for i := 0; i < 50_000; i++ {
		br, err := rd.Next()
		if err != nil {
			log.Fatal(err)
		}
		b.Predict(br.PC)
		b.Update(br.PC, br.Taken)
	}
	blob, err := repro.SnapshotBackend(b)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := repro.RestoreBackend(blob)
	if err != nil {
		log.Fatal(err)
	}
	agree := true
	for i := 0; i < 10_000; i++ {
		br, err := rd.Next()
		if err != nil {
			log.Fatal(err)
		}
		p1, c1, l1 := b.Predict(br.PC)
		p2, c2, l2 := restored.Predict(br.PC)
		if p1 != p2 || c1 != c2 || l1 != l2 {
			agree = false
		}
		b.Update(br.PC, br.Taken)
		restored.Update(br.PC, br.Taken)
	}
	fmt.Printf("\nsnapshot: %d-byte blob; restored predictor agrees on the next 10k branches: %v\n",
		len(blob), agree)

	// Durability, layer two: a 2-node cluster behind the session router.
	// Keyed sessions are placed by consistent hashing; when their node
	// dies mid-stream the router fails over to the survivor, reseeds it
	// from the last fetched snapshot, rewinds the replay cursor to the
	// server's authoritative branch count, and the final tallies are
	// STILL bit-identical to an uninterrupted offline run. (Give each
	// node a ServeConfig.StateDir and sessions additionally survive node
	// restarts via on-disk checkpoints — see cmd/tageserved -state-dir.)
	srvA := repro.NewServer(repro.ServeConfig{})
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srvA.Serve(lnA)
	srvB := repro.NewServer(repro.ServeConfig{})
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srvB.Serve(lnB)
	defer srvB.Shutdown(context.Background())

	router, err := repro.NewSessionRouter(repro.RouterConfig{
		Nodes:        []string{lnA.Addr().String(), lnB.Addr().String()},
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Find a key the ring places on node A — the node we will kill.
	key := "session/demo"
	for i := 0; router.NodeFor(key) != lnA.Addr().String(); i++ {
		key = fmt.Sprintf("session/demo-%d", i)
	}
	rs, err := router.Open(key, repro.ServeOpenRequest{Spec: "tage-16K"})
	if err != nil {
		log.Fatal(err)
	}
	type outcome struct {
		res repro.Result
		err error
	}
	// Kill node A at a fixed point of the stream: the replay's reader
	// blocks before branch 16*1024 until node A is down. By then the
	// session has served 16 batches and refreshed its failover snapshot
	// (every 8 batches), and most of the 200k-branch replay is still
	// ahead.
	gate := &gatedTrace{Trace: tr, at: 16 * 1024, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan outcome, 1)
	go func() {
		res, err := rs.Replay(gate, 200_000, 1024, nil)
		done <- outcome{res, err}
	}()
	select {
	case <-gate.reached:
	case o := <-done:
		log.Fatalf("replay finished before node A was killed (err=%v)", o.err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srvA.Shutdown(ctx)
	cancel()
	close(gate.release)
	o := <-done
	if o.err != nil {
		log.Fatal(o.err)
	}
	offline, err := repro.RunSpec("tage-16K", tr, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrouted session %q survived its node dying mid-stream on %s\n", key, rs.Node())
	fmt.Printf("failover replay bit-identical to offline run: %v (%.2f misp/KI over %d branches)\n",
		o.res == offline, o.res.MPKI(), o.res.Branches)
	failovers := uint64(0)
	for _, ns := range router.Stats() {
		fmt.Printf("  node %-21s sessions=%d retries=%d failovers=%d\n",
			ns.Addr, ns.Sessions, ns.Retries, ns.Failovers)
		failovers += ns.Failovers
	}
	if failovers != 1 || o.res != offline {
		log.Fatalf("want exactly one failover and a result equal to the offline run; got %d failovers, equal=%v",
			failovers, o.res == offline)
	}
}
