package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// startServer binds a server on an ephemeral loopback port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := NewServer(cfg)
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
	// Serve publishes the listener under the server mutex; wait for it
	// so tests can Dial(srv.Addr()) race-free.
	for deadline := time.Now().Add(5 * time.Second); srv.Addr() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("server never published its address")
		}
		time.Sleep(time.Millisecond)
	}
	return srv
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOnlineOfflineEquivalence is the acceptance pin: replaying a trace
// through a live server yields a sim.Result bit-identical to the offline
// driver for the same (config, options, trace, limit) — every count,
// every class, the final saturation probability. Replay additionally
// cross-checks the client-side tally derived from the wire grades
// against the server-side stats, so the equivalence holds at both ends
// of the wire.
func TestOnlineOfflineEquivalence(t *testing.T) {
	srv := startServer(t, Config{})
	const limit = 25_000
	traces := []string{"INT-1", "SERV-2"}
	modes := []core.Options{
		{Mode: core.ModeStandard},
		{Mode: core.ModeProbabilistic},
		{Mode: core.ModeAdaptive, TargetMKP: 8, AdaptiveWindow: 4096},
	}
	for _, cfgName := range []string{"16K", "64K"} {
		for _, opts := range modes {
			for _, trName := range traces {
				tr, err := workload.ByName(trName)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := tage.ConfigByName(cfgName)
				if err != nil {
					t.Fatal(err)
				}
				offline, err := sim.RunConfig(cfg, opts, tr, limit)
				if err != nil {
					t.Fatal(err)
				}
				c := dial(t, srv)
				sess, err := c.Open(cfgName, opts)
				if err != nil {
					t.Fatal(err)
				}
				online, err := sess.Replay(tr, limit, 777, nil)
				if err != nil {
					t.Fatal(err)
				}
				if online != offline {
					t.Errorf("%s/%s/%s: online %+v != offline %+v",
						cfgName, opts.Mode, trName, online, offline)
				}
				c.Close()
			}
		}
	}
}

// TestServerDefaults pins the default-predictor rule: an open request
// with no config name and all-zero options gets the operator-configured
// predictor and options.
func TestServerDefaults(t *testing.T) {
	eng := NewEngine(EngineConfig{DefaultSpec: "tage-16K?mode=probabilistic"})
	s, err := eng.Open(OpenRequest{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ConfigName() != "16Kbits" {
		t.Fatalf("default config %q, want 16Kbits", s.ConfigName())
	}
	if got := s.Stats().Mode; got != core.ModeProbabilistic {
		t.Fatalf("default mode %v, want probabilistic", got)
	}
	// Explicit options suppress the default options even with the
	// default config.
	s, err = eng.Open(OpenRequest{Options: core.Options{Mode: core.ModeAdaptive}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Mode; got != core.ModeAdaptive {
		t.Fatalf("explicit mode %v, want adaptive", got)
	}
	// A named config never inherits default options.
	s, err = eng.Open(OpenRequest{Config: "64K"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Mode; got != core.ModeStandard {
		t.Fatalf("named-config mode %v, want standard", got)
	}
}

// TestReplayBatchSizeInvariance pins that the batch size is a transport
// detail: any chunking yields the identical result.
func TestReplayBatchSizeInvariance(t *testing.T) {
	srv := startServer(t, Config{})
	tr, err := workload.ByName("FP-2")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 10_000
	var want sim.Result
	for i, batch := range []int{1, 63, 1024, limit + 1} {
		c := dial(t, srv)
		sess, err := c.Open("16K", core.Options{Mode: core.ModeProbabilistic})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Replay(tr, limit, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("batch size %d changed the result", batch)
		}
		c.Close()
	}
}

// TestServerErrors exercises the in-band error paths: unknown config,
// unknown session, and the session cap. The connection survives payload
// errors.
func TestServerErrors(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{MaxSessions: 2}})
	c := dial(t, srv)

	if _, err := c.Open("1024K", core.Options{}); err == nil {
		t.Fatal("unknown config accepted")
	} else if re, ok := err.(*RemoteError); !ok || re.Code != ErrCodeBadConfig {
		t.Fatalf("unknown config: %v", err)
	}

	// The connection remains usable after an in-band error.
	sess, err := c.Open("16K", core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Batch for a session id that never existed.
	c.out = AppendBatch(c.out[:0], sess.ID()+100, sampleBranches(4, 1))
	if _, err := c.roundTrip(FramePredictions); err == nil {
		t.Fatal("unknown session accepted")
	} else if re, ok := err.(*RemoteError); !ok || re.Code != ErrCodeUnknownSession {
		t.Fatalf("unknown session: %v", err)
	}

	// Session cap: the engine holds 1 live session; open 1 more, then
	// the third must be refused.
	if _, err := c.Open("16K", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("16K", core.Options{}); err == nil {
		t.Fatal("session above cap accepted")
	} else if re, ok := err.(*RemoteError); !ok || re.Code != ErrCodeSessionLimit {
		t.Fatalf("session cap: %v", err)
	}

	// Oversized batches fail client-side, before any round trip, and
	// leave the connection usable.
	if _, err := sess.Predict(make([]trace.Branch, MaxBatch+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized batch: err = %v, want ErrProtocol", err)
	}
	if _, err := sess.Predict(sampleBranches(4, 2)); err != nil {
		t.Fatalf("predict after oversized batch: %v", err)
	}

	// Closing frees a slot.
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("16K", core.Options{}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	// Double close reports unknown session.
	if _, err := sess.Close(); err == nil {
		t.Fatal("double close accepted")
	}
}

// TestIdleEviction pins the evictor: idle sessions are retired, their
// tallies fold into the service aggregate, and later batches for them
// answer unknown-session.
func TestIdleEviction(t *testing.T) {
	srv := startServer(t, Config{IdleTimeout: 20 * time.Millisecond})
	c := dial(t, srv)
	sess, err := c.Open("16K", core.Options{Mode: core.ModeProbabilistic})
	if err != nil {
		t.Fatal(err)
	}
	branches := sampleBranches(1000, 3)
	if _, err := sess.Predict(branches); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Engine().Snapshot().EvictedSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := srv.Engine().Snapshot()
	if snap.LiveSessions != 0 || snap.Branches != 1000 {
		t.Fatalf("post-eviction snapshot: %+v", snap)
	}
	if _, err := sess.Predict(branches); err == nil {
		t.Fatal("batch for evicted session accepted")
	} else if re, ok := err.(*RemoteError); !ok || re.Code != ErrCodeUnknownSession {
		t.Fatalf("evicted session batch: %v", err)
	}
}

// TestEngineSweepVsCloseRace drives Close and SweepIdle concurrently:
// every session's tallies must fold exactly once (no double counting, no
// loss), whichever side wins.
func TestEngineSweepVsCloseRace(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	const sessions = 64
	branches := sampleBranches(100, 9)
	ids := make([]uint64, sessions)
	for i := range ids {
		s, err := eng.Open(OpenRequest{Config: "16K", Options: core.Options{Mode: core.ModeProbabilistic}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Serve(branches, nil, 0)
		ids[i] = s.ID()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			eng.Close(id) // losing the race to the evictor is fine
		}
	}()
	go func() {
		defer wg.Done()
		eng.SweepIdle(1) // everything is idle before cutoff 1
	}()
	wg.Wait()
	snap := eng.Snapshot()
	if want := uint64(sessions * len(branches)); snap.Branches != want {
		t.Fatalf("folded %d branches, want %d (lost or double-counted a session)", snap.Branches, want)
	}
	if snap.LiveSessions != 0 {
		t.Fatalf("%d live sessions after close+sweep", snap.LiveSessions)
	}
}

// TestConcurrentSessions runs 12 concurrent connections, each with its
// own session over its own trace, and checks every served result against
// the offline driver. Under -race this is the acceptance criterion's
// concurrency check.
func TestConcurrentSessions(t *testing.T) {
	srv := startServer(t, Config{})
	const (
		conns = 12
		limit = 8_000
	)
	traces := workload.All()
	opts := core.Options{Mode: core.ModeProbabilistic}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := traces[i%len(traces)]
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.Open("16K", opts)
			if err != nil {
				errs <- err
				return
			}
			got, err := sess.Replay(tr, limit, 512, nil)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", tr.Name(), err)
				return
			}
			want, err := sim.RunConfig(tage.Small16K(), opts, tr, limit)
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- fmt.Errorf("%s: online != offline under concurrency", tr.Name())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Engine().Snapshot()
	if snap.OpenedSessions != conns || snap.Branches != conns*limit {
		t.Fatalf("snapshot after %d sessions: %+v", conns, snap)
	}
}

// TestSharedSessionAcrossConnections pins that a session id is
// addressable from any connection (sessions belong to the server, not
// the socket) and that concurrent batches for one session serialize
// without losing counts.
func TestSharedSessionAcrossConnections(t *testing.T) {
	srv := startServer(t, Config{})
	c1 := dial(t, srv)
	sess, err := c1.Open("16K", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, srv)
	shared := &ClientSession{c: c2, id: sess.ID(), config: sess.config, mode: sess.mode}

	const per = 2000
	var wg sync.WaitGroup
	for _, s := range []*ClientSession{sess, shared} {
		wg.Add(1)
		go func(s *ClientSession, seed uint64) {
			defer wg.Done()
			branches := sampleBranches(per, seed)
			for i := 0; i < per; i += 100 {
				if _, err := s.Predict(branches[i : i+100]); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}(s, uint64(len(s.config)))
		// distinct seeds irrelevant; interleaving is the point
	}
	wg.Wait()
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 2*per {
		t.Fatalf("interleaved session counted %d branches, want %d", res.Branches, 2*per)
	}
}

// TestMetricsEndpoint scrapes /livez and /metrics and checks the
// counters reflect served traffic, including the per-level breakdown.
func TestMetricsEndpoint(t *testing.T) {
	srv := startServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	c := dial(t, srv)
	sess, err := c.Open("64K", core.Options{Mode: core.ModeProbabilistic})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ByName("FP-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Replay(tr, 5000, 500, nil); err != nil {
		t.Fatal(err)
	}

	base := "http://" + srv.MetricsAddr().String()
	resp, err := http.Get(base + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("livez: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tage_serve_sessions_opened_total 1",
		"tage_serve_branches_total 5000",
		`tage_serve_level_predictions_total{level="high"}`,
		`tage_serve_level_mispredictions_total{level="low"}`,
		`tage_serve_class_predictions_total{class="Stag"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// The level counters must equal the engine snapshot's aggregation.
	snap := srv.Engine().Snapshot()
	var levelPreds uint64
	for _, l := range core.Levels() {
		levelPreds += snap.Level(l).Preds
	}
	if levelPreds != snap.Total.Preds {
		t.Fatalf("levels sum to %d preds, want %d", levelPreds, snap.Total.Preds)
	}
}

// TestLatencyRecording pins that Replay feeds the latency histogram one
// sample per batch.
func TestLatencyRecording(t *testing.T) {
	srv := startServer(t, Config{})
	c := dial(t, srv)
	sess, err := c.Open("16K", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ByName("MM-1")
	if err != nil {
		t.Fatal(err)
	}
	var lat obs.Histogram
	if _, err := sess.Replay(tr, 4000, 1000, &lat); err != nil {
		t.Fatal(err)
	}
	if lat.Count() != 4 {
		t.Fatalf("recorded %d latency samples, want 4", lat.Count())
	}
	if lat.Quantile(0.99) <= 0 {
		t.Fatal("p99 latency not positive")
	}
}

// TestRegistryOrderAndCap covers the registry directly: forEach visits
// every live session in ascending id order, and the cap accounting
// returns to zero under churn.
func TestRegistryOrderAndCap(t *testing.T) {
	r := newRegistry(0)
	var ids []uint64
	for i := 0; i < 100; i++ {
		id, ok := r.reserve()
		if !ok {
			t.Fatal("unlimited registry refused a session")
		}
		s := &Session{id: id}
		r.insert(s)
		ids = append(ids, id)
	}
	if r.count() != 100 {
		t.Fatalf("count %d, want 100", r.count())
	}
	for _, id := range ids {
		if _, ok := r.get(id); !ok {
			t.Fatalf("session %d not found", id)
		}
	}
	var visited []uint64
	r.forEach(func(s *Session) { visited = append(visited, s.id) })
	if !slices.Equal(visited, ids) {
		t.Fatalf("forEach visited %v, want ascending %v", visited, ids)
	}
	for _, id := range ids {
		if _, ok := r.remove(id); !ok {
			t.Fatalf("session %d not removed", id)
		}
		r.release()
	}
	if r.count() != 0 {
		t.Fatalf("count %d after removing all, want 0", r.count())
	}
}

// TestShutdownClosesConnections pins that Shutdown unblocks handlers on
// live connections.
func TestShutdownClosesConnections(t *testing.T) {
	srv := NewServer(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("16K", core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with live connection: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	c.Close()
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineOfflineEquivalenceBackends is the non-TAGE acceptance pin:
// sessions opened by backend spec — bimodal, perceptron, jrs, ogehl and a
// parameterized TAGE spec — replay to results bit-identical to the
// offline driver over the identical spec-built backend, on one shared
// server hosting all of them (the heterogeneous path).
func TestOnlineOfflineEquivalenceBackends(t *testing.T) {
	srv := startServer(t, Config{})
	const limit = 20_000
	specs := []string{
		"bimodal-64K",
		"bimodal-16K?log=12",
		"perceptron",
		"jrs-16K?enhanced=true",
		"ogehl",
		"bimodal-16K",
		"tage-16K?mode=probabilistic",
	}
	tr, err := workload.ByName("INT-1")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv)
	for _, spec := range specs {
		sp, err := predictor.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := sim.RunSpec(sp, tr, limit)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.OpenSession(OpenRequest{Spec: spec})
		if err != nil {
			t.Fatalf("OpenSession(%q): %v", spec, err)
		}
		online, err := sess.Replay(tr, limit, 999, nil)
		if err != nil {
			t.Fatalf("Replay(%q): %v", spec, err)
		}
		if online != offline {
			t.Errorf("%s: online %+v != offline %+v", spec, online, offline)
		}
	}
	// A bad spec answers ErrCodeBadConfig and names the valid families.
	var re *RemoteError
	if _, err := c.OpenSession(OpenRequest{Spec: "nosuch-64K"}); !errors.As(err, &re) || re.Code != ErrCodeBadConfig ||
		!strings.Contains(re.Message, "bimodal") {
		t.Fatalf("bad spec error = %v", err)
	}
}

// TestEngineDefaultSpec pins EngineConfig.DefaultSpec: an open request
// naming neither spec nor config gets the default-spec backend; explicit
// requests still win.
func TestEngineDefaultSpec(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{DefaultSpec: "bimodal-16K"}})
	c := dial(t, srv)
	sess, err := c.Open("", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Config(); got != "bimodal-16K" {
		t.Fatalf("default-spec session labeled %q, want bimodal-16K", got)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err = c.Open("64K", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Config(); got != "64Kbits" {
		t.Fatalf("explicit config session labeled %q, want 64Kbits", got)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// A client that sends explicit options (but no config) still
	// gets the default TAGE configuration with those options — the
	// default spec serves only fully default requests, it never
	// silently swallows a client's options.
	sess, err = c.Open("", core.Options{Mode: core.ModeProbabilistic})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Config(); got != "64Kbits" {
		t.Fatalf("options-only session labeled %q, want 64Kbits (default TAGE config)", got)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendLabelCardinalityCap pins the bound on per-backend counter
// cardinality: spec strings are client-controlled, so distinct labels
// beyond the cap must aggregate under the overflow bucket instead of
// growing the maps and /metrics output without bound.
func TestBackendLabelCardinalityCap(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	const distinct = maxBackendLabels + 10
	for i := 0; i < distinct; i++ {
		spec := fmt.Sprintf("jrs-16K?threshold=%d", i+1)
		s, err := eng.Open(OpenRequest{Spec: spec}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Close(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	if len(snap.Backends) > maxBackendLabels+1 {
		t.Fatalf("%d distinct specs produced %d backend buckets, cap is %d+overflow",
			distinct, len(snap.Backends), maxBackendLabels)
	}
	var overflow *BackendCounts
	var opened uint64
	for i := range snap.Backends {
		opened += snap.Backends[i].Opened
		if snap.Backends[i].Label == labelOverflow {
			overflow = &snap.Backends[i]
		}
	}
	if overflow == nil || overflow.Opened == 0 {
		t.Fatalf("no overflow bucket after %d distinct labels: %+v", distinct, snap.Backends)
	}
	if opened != distinct {
		t.Fatalf("buckets account for %d opens, want %d", opened, distinct)
	}
}

// TestPerBackendMetrics drives one TAGE and one bimodal session through a
// shared server and asserts the /metrics per-backend counters split the
// traffic by backend label.
func TestPerBackendMetrics(t *testing.T) {
	srv := startServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	c := dial(t, srv)
	tr, err := workload.ByName("FP-2")
	if err != nil {
		t.Fatal(err)
	}
	tage1, err := c.Open("64K", core.Options{Mode: core.ModeProbabilistic})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tage1.Replay(tr, 4000, 512, nil); err != nil {
		t.Fatal(err)
	}
	bs, err := c.OpenSession(OpenRequest{Spec: "bimodal-64K"})
	if err != nil {
		t.Fatal(err)
	}
	// Leave the bimodal session live: per-backend counters must span live
	// and retired sessions exactly like the service totals.
	if _, err := bs.Predict(collectBranches(t, tr, 3000)); err != nil {
		t.Fatal(err)
	}

	snap := srv.Engine().Snapshot()
	byLabel := make(map[string]BackendCounts)
	var sumBranches uint64
	for _, bc := range snap.Backends {
		byLabel[bc.Label] = bc
		sumBranches += bc.Branches
	}
	if sumBranches != snap.Branches {
		t.Fatalf("per-backend branches sum to %d, service total %d", sumBranches, snap.Branches)
	}
	if bc := byLabel["64Kbits"]; bc.Opened != 1 || bc.Branches != 4000 {
		t.Fatalf("TAGE backend counters = %+v", bc)
	}
	if bc := byLabel["bimodal-64K"]; bc.Opened != 1 || bc.Branches != 3000 {
		t.Fatalf("bimodal backend counters = %+v", bc)
	}

	resp, err := http.Get("http://" + srv.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`tage_serve_backend_sessions_opened_total{backend="64Kbits"} 1`,
		`tage_serve_backend_branches_total{backend="64Kbits"} 4000`,
		`tage_serve_backend_sessions_opened_total{backend="bimodal-64K"} 1`,
		`tage_serve_backend_branches_total{backend="bimodal-64K"} 3000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsScrapeWellFormed scrapes a live server that has served
// sessions of two backend families and requires a well-formed
// exposition: WriteText reports no writer error, every family header
// appears exactly once, and each backend has its own series.
func TestMetricsScrapeWellFormed(t *testing.T) {
	srv := startServer(t, Config{})
	c := dial(t, srv)
	tr, err := workload.ByName("INT-2")
	if err != nil {
		t.Fatal(err)
	}
	branches := collectBranches(t, tr, 3000)
	for _, spec := range []string{"tage-64K", "bimodal-16K"} {
		sess, err := c.OpenSession(OpenRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(branches); off += 1000 {
			if _, err := sess.Predict(branches[off : off+1000]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sb strings.Builder
	if err := srv.Registry().WriteText(&sb); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	text := sb.String()
	headers := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			headers[strings.Fields(rest)[0]]++
		}
	}
	if len(headers) == 0 {
		t.Fatalf("no families in:\n%s", text)
	}
	for name, n := range headers {
		if n != 1 || strings.Count(text, "# HELP "+name+" ") != 1 {
			t.Errorf("family %s: %d TYPE headers, %d HELP headers", name, n, strings.Count(text, "# HELP "+name+" "))
		}
	}
	for _, label := range []string{"64Kbits", "bimodal-16K"} {
		for _, family := range []string{"sessions_opened", "branches", "predictions", "mispredictions"} {
			series := "tage_serve_backend_" + family + `_total{backend="` + label + `"} `
			if !strings.Contains(text, series) {
				t.Errorf("missing series %q in:\n%s", series, text)
			}
		}
	}
}

// collectBranches reads n branches of tr into a slice.
func collectBranches(t *testing.T, tr trace.Trace, n uint64) []trace.Branch {
	t.Helper()
	branches, err := trace.Collect(trace.Limit(tr, n))
	if err != nil {
		t.Fatal(err)
	}
	return branches
}
