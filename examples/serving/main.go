// Serving: run the online prediction service in-process, stream a short
// synthetic session through it over loopback TCP, and read back the
// live confidence-level breakdown — the storage-free estimate as a
// queryable signal rather than a post-hoc table. The second half is the
// durability story: predictor state snapshot/restore, and a keyed
// session surviving a restart of its server through the server's
// checkpoints. The example exits non-zero unless that session resumes
// exactly where the first server stopped and still matches the offline
// run.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// gatedTrace wraps a trace so that its first reader blocks before
// returning branch `at` until release is closed, closing reached when
// it gets there. Readers opened later pass straight through.
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

// serve starts an in-process server on an ephemeral loopback port and
// returns it with its address.
func serve(cfg repro.ServeConfig) (*repro.Server, string) {
	srv := repro.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

func main() {
	// An in-process server, default predictor 64K/probabilistic for
	// minimal clients. Production deployments run cmd/tageserved
	// instead; the engine is the same.
	srv, addr := serve(repro.ServeConfig{
		Engine: repro.ServeEngineConfig{DefaultSpec: "tage-64K?mode=probabilistic"},
	})
	defer srv.Shutdown(context.Background())

	// A client session: open, stream branch batches, read grades.
	c, err := repro.DialServer(addr)
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

	// Durability, layer two: a keyed session survives a restart of its
	// server. Server A checkpoints keyed sessions into a state directory,
	// and its graceful shutdown writes a final checkpoint for every live
	// one. Server B boots on the same directory and restores them. A
	// client that reopens the key resumes at the checkpointed cursor:
	// Replay adopts the server's tallies, rewinds the trace to that
	// branch, and the final tallies are STILL bit-identical to an
	// uninterrupted offline run.
	stateDir, err := os.MkdirTemp("", "tage-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	const (
		key   = "session/demo"
		limit = 200_000
		stop  = 16 * 1024 // branch at which server A goes down
	)
	open := repro.ServeOpenRequest{Spec: "tage-16K", Key: key}
	srvA, addrA := serve(repro.ServeConfig{StateDir: stateDir})
	ca, err := repro.DialServer(addrA)
	if err != nil {
		log.Fatal(err)
	}
	sa, err := ca.OpenSession(open)
	if err != nil {
		log.Fatal(err)
	}
	// Shut server A down at a fixed point of the stream: the replay's
	// reader blocks before branch 16*1024 until A is down, so the session
	// has served exactly 16 batches and most of the 200k-branch replay is
	// still ahead.
	gate := &gatedTrace{Trace: tr, at: stop, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := sa.Replay(gate, limit, 1024, nil)
		done <- err
	}()
	select {
	case <-gate.reached:
	case err := <-done:
		log.Fatalf("replay finished before server A went down (err=%v)", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srvA.Shutdown(ctx)
	cancel()
	close(gate.release)
	if err := <-done; err == nil {
		log.Fatal("replay finished although server A went down mid-stream")
	}
	ca.Close()

	srvB, addrB := serve(repro.ServeConfig{StateDir: stateDir})
	defer srvB.Shutdown(context.Background())
	cb, err := repro.DialServer(addrB)
	if err != nil {
		log.Fatal(err)
	}
	defer cb.Close()
	sb, err := cb.OpenSession(open)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := sb.Replay(tr, limit, 1024, nil)
	if err != nil {
		log.Fatal(err)
	}
	offline, err := repro.RunSpec("tage-16K", tr, limit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkeyed session %q survived a server restart: resumed at %d, equal offline: %v (%.2f misp/KI over %d branches)\n",
		key, sb.Resumed(), resumed == offline, resumed.MPKI(), resumed.Branches)
	if sb.Resumed() != stop || resumed != offline {
		log.Fatalf("want a resume at branch %d and a result equal to the offline run; got a resume at %d, equal=%v",
			stop, sb.Resumed(), resumed == offline)
	}
}
