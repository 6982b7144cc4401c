// Command tageserved is the online prediction server: it hosts predictor
// sessions behind the internal/serve wire protocol, so clients stream
// branch outcomes in and get (prediction, class, level) grades back
// live. Sessions are heterogeneous: each open request may name any
// registered backend spec, and /metrics reports per-backend counters.
//
// Usage:
//
//	tageserved -addr :7421 -metrics :7422
//	tageserved -backend "tage-16K?mode=adaptive" -max-sessions 10000 -max-inflight 64
//	tageserved -backend bimodal-64K
//
// The -backend flag sets the default spec: the predictor a session gets
// when its open request names no backend. Clients may request any
// registered backend per session.
//
// With -state-dir, keyed sessions are durable: their state is
// checkpointed to the directory every 10 s (and on shutdown), and a
// restarted server restores every checkpoint before accepting traffic
// and logs how many — clients resume exactly where they left off, even
// across a crash:
//
//	tageserved -addr :7421 -state-dir /var/lib/tageserved
//
// The -metrics listener serves Prometheus text exposition at /metrics,
// liveness at /livez, readiness at /readyz (503 while
// draining), and the flight-recorder event ring at /debug/events.
// -debug-addr opts into a separate pprof listener.
//
// The serving limits are the serve package defaults: sessions idle for
// 5 minutes are evicted, and a peer that stalls mid-frame or stops
// draining responses for 30 s is evicted as a slow peer.
//
// SIGINT/SIGTERM shut the server down gracefully: readiness flips to
// draining, live connections are closed, handlers drained, and a final
// checkpoint written for every live keyed session.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/predictor"
	"repro/internal/serve"
)

func main() {
	var (
		defaultSpec = flag.String("backend", "tage-64K?mode=probabilistic", "default backend spec for sessions whose open request names none, e.g. tage-16K?mode=adaptive, bimodal-64K")
		addr        = flag.String("addr", ":7421", "wire-protocol TCP listen address")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for /metrics, /livez, /readyz and /debug/events (empty = disabled)")
		debugAddr   = flag.String("debug-addr", "", "HTTP listen address for pprof profiling endpoints (empty = disabled)")
		maxSessions = flag.Int("max-sessions", 0, "live-session cap (0 = unlimited)")
		stateDir    = flag.String("state-dir", "", "checkpoint directory for durable keyed sessions (empty = sessions are in-memory only)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: batches served concurrently before load-shedding FrameBusy (0 = unlimited)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error("tageserved: fatal", "err", err)
		os.Exit(1)
	}

	if *maxInflight == 0 {
		logger.Warn("tageserved: -max-inflight 0: admission control disabled, overload will queue instead of shedding")
	}

	// Validate the default spec up front so a typo fails at startup, not
	// on the first open request.
	if _, _, err := predictor.New(*defaultSpec); err != nil {
		fatal(err)
	}

	srv := serve.NewServer(serve.Config{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		DebugAddr:   *debugAddr,
		StateDir:    *stateDir,
		Engine: serve.EngineConfig{
			MaxSessions: *maxSessions,
			MaxInflight: *maxInflight,
			DefaultSpec: *defaultSpec,
		},
	})

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	// Wait for the listener so the startup log line carries the bound
	// address (":0" resolves to a real port).
	for srv.Addr() == nil {
		select {
		case err := <-done:
			fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	logger.Info("tageserved: serving",
		"addr", srv.Addr().String(), "default_backend", *defaultSpec,
		"max_sessions", *maxSessions, "max_inflight", *maxInflight)
	if ma := srv.MetricsAddr(); ma != nil {
		logger.Info("tageserved: metrics listener up", "url", "http://"+ma.String()+"/metrics")
	}
	if da := srv.DebugAddr(); da != nil {
		logger.Info("tageserved: pprof listener up", "url", "http://"+da.String()+"/debug/pprof/")
	}

	select {
	case err := <-done:
		fatal(err)
	case sig := <-sigc:
		logger.Info("tageserved: shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("tageserved: shutdown failed", "err", err)
			os.Exit(1)
		}
		snap := srv.Engine().Snapshot()
		logger.Info("tageserved: served, bye",
			"branches", snap.Branches, "sessions", snap.OpenedSessions,
			"mispredict_pct", fmt.Sprintf("%.2f", 100*snap.Total.Rate()))
		if snap.ShedBatches > 0 {
			logger.Info("tageserved: load shed under admission control", "batches", snap.ShedBatches)
		}
		if snap.CheckpointsWritten > 0 || snap.CheckpointRestores > 0 {
			logger.Info("tageserved: checkpoint totals",
				"written", snap.CheckpointsWritten, "bytes", snap.CheckpointBytes,
				"restores", snap.CheckpointRestores, "write_failures", snap.CheckpointWriteFailures)
		}
	}
}
