package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// servedOpts is the estimator every served session runs.
var servedOpts = core.Options{Mode: core.ModeProbabilistic}

// sessionPlan is one trace replay through one session.
type sessionPlan struct {
	trace trace.Trace
	cfg   tage.Config
	spec  string
	key   string // durable key prefix; empty for anonymous sessions
}

// serving replays traces through an in-process serve.Server over
// loopback TCP, one closed-loop client per connection: each client waits
// for a batch's grades before it sends the next batch.
type serving struct {
	c         *config
	g         *goldens
	batch     int
	durable   bool
	plan      []sessionPlan // connections claim sessions in this order
	stateDir  string
	server    *liveServer
	clients   []*serve.Client
	passCount int
}

// servingConfigs are the predictor configurations a serving workload
// replays every trace through: all three for serve-stream, 64K for
// serve-durable.
func servingConfigs(durable bool) []tage.Config {
	if durable {
		return []tage.Config{tage.Medium64K()}
	}
	return tage.StandardConfigs()
}

func setupServeStream(c *config, g *goldens) (instance, error) {
	return setupServing(c, g, 1024, false)
}

func setupServeDurable(c *config, g *goldens) (instance, error) {
	return setupServing(c, g, 64, true)
}

func setupServing(c *config, g *goldens, batch int, durable bool) (instance, error) {
	s := &serving{c: c, g: g, batch: batch, durable: durable}
	// The seed decides the order sessions are claimed in, and so which
	// connection replays which trace, and (durable) the session key names.
	salt := rand.New(rand.NewPCG(c.seed, 3)).Uint64()
	for _, tr := range shuffled(c.seed, 4, workload.All()) {
		for _, cfg := range servingConfigs(durable) {
			p := sessionPlan{trace: tr, cfg: cfg, spec: specName(cfg, servedOpts.Mode)}
			if durable {
				p.key = fmt.Sprintf("tb%016x/%s", salt, tr.Name())
			}
			s.plan = append(s.plan, p)
		}
	}
	cfg := serve.Config{}
	if durable {
		dir, err := os.MkdirTemp(c.workdir, "state-")
		if err != nil {
			return nil, err
		}
		s.stateDir = dir
		cfg.StateDir = dir
		cfg.CheckpointInterval = 250 * time.Millisecond
	}
	var err error
	if s.server, err = startServer(cfg); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < c.workers; i++ {
		cl, err := s.server.dial(c.seed + uint64(i))
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// liveServer is an in-process server accepting on a loopback port.
type liveServer struct {
	srv    *serve.Server
	addr   string
	served chan error
}

// startServer boots a server on 127.0.0.1:0 and returns once it has
// restored its durable state and accepts connections, so set-up time
// covers the whole boot.
func startServer(cfg serve.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: serve.NewServer(cfg), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- ls.srv.Serve(ln) }()
	for !ls.srv.Ready() {
		select {
		case err := <-ls.served:
			return nil, fmt.Errorf("server stopped while booting: %w", err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	return ls, nil
}

// dial connects a client with tageload's deadlines; seed keys its
// busy-retry jitter.
func (ls *liveServer) dial(seed uint64) (*serve.Client, error) {
	return serve.DialConfig(ls.addr, serve.ClientConfig{
		DialTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, Seed: seed,
	})
}

// stop shuts the server down and waits for its accept loop to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(ls.srv.Shutdown(ctx), <-ls.served)
}

// connRecord is what one connection did in a pass.
type connRecord struct {
	branches  uint64
	latencies []int64
	attempted uint64
	tallies   []tally
	err       error
}

// pass has every connection claim the next unreplayed session until none
// is left, so the connections finish within one session of each other.
func (s *serving) pass(tr *tracer, rec *passRecord) error {
	s.passCount++
	recs := make([]connRecord, len(s.clients))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := &recs[i]
			batch := make([]trace.Branch, 0, s.batch)
			for !failed.Load() {
				k := int(next.Add(1)) - 1
				if k >= len(s.plan) {
					return
				}
				if cr.err = s.replay(tr, s.clients[i], s.plan[k], batch, cr); cr.err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var errs []error
	for _, cr := range recs {
		rec.branches += cr.branches
		rec.latencies = append(rec.latencies, cr.latencies...)
		rec.attempted += cr.attempted
		rec.tallies = append(rec.tallies, cr.tallies...)
		if cr.err != nil {
			rec.failed++
			errs = append(errs, cr.err)
		}
	}
	return errors.Join(errs...)
}

// replay streams one trace through a fresh session and checks the
// server's final tallies against both the grades the client saw and the
// offline golden.
func (s *serving) replay(tr *tracer, c *serve.Client, p sessionPlan, batch []trace.Branch, cr *connRecord) error {
	sess := tr.begin("serve.session", 0)
	defer sess.end()
	op := tr.begin("serve.open", sess.id)
	var cs *serve.ClientSession
	var err error
	if s.durable {
		key := fmt.Sprintf("%s/%d", p.key, s.passCount)
		cs, err = c.OpenSession(serve.OpenRequest{Config: p.cfg.Name, Options: servedOpts, Key: key})
		if err == nil && cs.Resumed() != 0 {
			err = fmt.Errorf("fresh key %s resumed at branch %d", key, cs.Resumed())
		}
	} else {
		cs, err = c.Open(p.cfg.Name, servedOpts)
	}
	op.end()
	cr.attempted++
	if err != nil {
		return fmt.Errorf("open %s for %s: %w", p.spec, p.trace.Name(), err)
	}

	local := sim.Result{Trace: p.trace.Name()}
	r := trace.Limit(p.trace, s.c.limit).Open()
	// A reader is not touched again once it has returned io.EOF.
	for n, eof := 1, false; !eof; n++ {
		batch = batch[:0]
		for len(batch) < cap(batch) {
			b, err := r.Next()
			if errors.Is(err, io.EOF) {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			batch = append(batch, b)
		}
		if len(batch) == 0 {
			break
		}
		sp := tr.begin("serve.batch", sess.id)
		grades, err := cs.Predict(batch)
		cr.latencies = append(cr.latencies, sp.end().Nanoseconds())
		cr.attempted++
		if err != nil {
			return fmt.Errorf("batch %d of %s: %w", n, p.trace.Name(), err)
		}
		for i, g := range grades {
			miss := g.Pred != batch[i].Taken
			local.Total.Record(miss)
			local.Class[g.Class].Record(miss)
			local.Branches++
			local.Instructions += uint64(batch[i].Instr)
		}
		if s.durable && n%8 == 0 {
			// The router's failover-token cadence.
			sp := tr.begin("serve.snapshot", sess.id)
			_, err := cs.Snapshot()
			sp.end()
			cr.attempted++
			if err != nil {
				return fmt.Errorf("snapshot of %s: %w", p.trace.Name(), err)
			}
		}
	}

	cl := tr.begin("serve.close", sess.id)
	res, err := cs.Close()
	cl.end()
	cr.attempted++
	if err != nil {
		return fmt.Errorf("close %s: %w", p.trace.Name(), err)
	}
	res.Trace = p.trace.Name()
	served := tallyOf(p.spec, res)
	if seen := tallyOf(p.spec, local); seen != served {
		return fmt.Errorf("%s: grades on the wire %+v disagree with server tallies %+v", p.trace.Name(), seen, served)
	}
	if err := s.g.check(p.spec, res); err != nil {
		return err
	}
	cr.tallies = append(cr.tallies, served)
	cr.branches += res.Branches
	return nil
}

func (s *serving) layers(spans []span, totalPasses int) map[string]float64 {
	us := func(name string) []float64 {
		var out []float64
		for _, sp := range byName(spans, name) {
			out = append(out, float64(sp.dur())/1e3)
		}
		return out
	}
	batches := us("serve.batch")
	sessions := byName(spans, "serve.session")
	self := selfTimes(spans)
	var selfSum, total int64
	for _, sp := range sessions {
		selfSum += self[sp.ID]
		total += sp.dur()
	}
	snap := s.server.srv.Engine().Snapshot()
	var retries uint64
	for _, c := range s.clients {
		retries += c.BusyRetries()
	}
	perPass := func(v uint64) float64 { return float64(v) / float64(totalPasses) }
	return map[string]float64{
		"serve.batch_p99_us":        quantile(batches, 0.99),
		"serve.batch_samples":       float64(len(batches)),
		"serve.open_us_p50":         median(us("serve.open")),
		"serve.close_us_p50":        median(us("serve.close")),
		"serve.snapshot_rtt_us_p50": median(us("serve.snapshot")),
		"serve.client_self_frac":    float64(selfSum) / float64(max(total, 1)),
		"serve.checkpoints_written": perPass(snap.CheckpointsWritten),
		"serve.checkpoint_bytes":    perPass(snap.CheckpointBytes),
		"serve.busy_retries":        perPass(retries),
		"serve.shed":                perPass(snap.ShedBatches),
	}
}

// close hangs up the clients, shuts the server down, waits for its accept
// loop to return and removes the durable state.
func (s *serving) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	var errs []error
	if s.server != nil {
		errs = append(errs, s.server.stop())
		s.server = nil
	}
	if s.stateDir != "" {
		errs = append(errs, os.RemoveAll(s.stateDir))
		s.stateDir = ""
	}
	return errors.Join(errs...)
}
