// Command tageserved is the online prediction server: it hosts predictor
// sessions behind the internal/serve wire protocol, so clients stream
// branch outcomes in and get (prediction, class, level) grades back
// live. Sessions are heterogeneous: each open request may name any
// registered backend spec, and /metrics reports per-backend counters.
//
// Usage:
//
//	tageserved -addr :7421 -metrics :7422
//	tageserved -backend "tage-16K?mode=adaptive" -shards 32 -max-sessions 10000
//	tageserved -backend gshare-64K
//
// The -backend flag sets the default spec: the predictor a session gets
// when its open request names no backend. Clients may request any
// registered backend per session.
//
// With -state-dir, keyed sessions are durable: their state is
// checkpointed to the directory every -checkpoint-interval (and on
// shutdown), and a restarted server restores every checkpoint before
// accepting traffic — clients resume exactly where they left off, even
// across a crash:
//
//	tageserved -addr :7421 -state-dir /var/lib/tageserved
//
// The -metrics listener serves Prometheus text exposition at /metrics,
// liveness at /livez, readiness at /readyz (503 while
// draining), and the flight-recorder event ring at /debug/events.
// -debug-addr opts into a separate pprof listener.
//
// SIGINT/SIGTERM shut the server down gracefully: readiness flips to
// draining first (so load balancers stop routing), -drain-grace elapses,
// then live connections are closed, handlers drained, and a final
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
		defaultSpec = flag.String("backend", "tage-64K?mode=probabilistic", "default backend spec for sessions whose open request names none, e.g. tage-16K?mode=adaptive, gshare-64K")
		addr        = flag.String("addr", ":7421", "wire-protocol TCP listen address")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for /metrics, /livez, /readyz and /debug/events (empty = disabled)")
		debugAddr   = flag.String("debug-addr", "", "HTTP listen address for pprof profiling endpoints (empty = disabled)")
		eventBuffer = flag.Int("event-buffer", 0, "flight-recorder ring size in events (0 = default, <0 disables the recorder)")
		shards      = flag.Int("shards", serve.DefaultShards, "session-registry lock stripes (rounded up to a power of two)")
		maxSessions = flag.Int("max-sessions", 0, "live-session cap (0 = unlimited)")
		idleTimeout = flag.Duration("idle-timeout", serve.DefaultIdleTimeout, "evict sessions idle this long (<0 disables eviction)")
		stateDir    = flag.String("state-dir", "", "checkpoint directory for durable keyed sessions (empty = sessions are in-memory only)")
		ckptEvery   = flag.Duration("checkpoint-interval", serve.DefaultCheckpointInterval, "checkpoint dirty keyed sessions this often (<0 disables the loop; eviction and shutdown still checkpoint)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: batches served concurrently before load-shedding FrameBusy (0 = unlimited)")
		frameTO     = flag.Duration("frame-timeout", serve.DefaultFrameTimeout, "evict a peer that stalls mid-frame for this long (<0 disables slow-reader eviction)")
		writeTO     = flag.Duration("write-timeout", serve.DefaultWriteTimeout, "evict a peer that stops draining responses for this long (<0 disables slow-writer eviction)")
		drainGrace  = flag.Duration("drain-grace", 0, "on SIGINT/SIGTERM, fail readiness this long before closing connections (lets load balancers drain)")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "tageserved: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error("tageserved: fatal", "err", err)
		os.Exit(1)
	}

	if *maxInflight == 0 {
		logger.Warn("tageserved: -max-inflight 0: admission control disabled, overload will queue instead of shedding")
	}
	if *frameTO < 0 {
		logger.Warn("tageserved: -frame-timeout < 0: slow-reader eviction disabled, a stalled peer can park a handler forever")
	}
	if *writeTO < 0 {
		logger.Warn("tageserved: -write-timeout < 0: slow-writer eviction disabled, an undrained peer can park a handler forever")
	}

	// Validate the default spec up front so a typo fails at startup, not
	// on the first open request.
	if _, _, err := predictor.New(*defaultSpec); err != nil {
		fatal(err)
	}

	srv := serve.NewServer(serve.Config{
		Addr:               *addr,
		MetricsAddr:        *metricsAddr,
		DebugAddr:          *debugAddr,
		EventBuffer:        *eventBuffer,
		IdleTimeout:        *idleTimeout,
		CheckpointInterval: *ckptEvery,
		FrameTimeout:       *frameTO,
		WriteTimeout:       *writeTO,
		Engine: serve.EngineConfig{
			Shards:      *shards,
			MaxSessions: *maxSessions,
			MaxInflight: *maxInflight,
			DefaultSpec: *defaultSpec,
		},
	})
	if *stateDir != "" {
		// Attach the store here rather than through Config.StateDir so the
		// warm-start restore count makes the startup log (Serve skips its
		// own attach when one is already wired in).
		cs, err := serve.OpenCheckpointStore(*stateDir)
		if err != nil {
			fatal(err)
		}
		restored, err := srv.Engine().AttachStore(cs, time.Now().UnixNano())
		if err != nil {
			fatal(err)
		}
		// Keep the "restored N checkpointed sessions" phrase verbatim in
		// the message: the crash-recovery soak greps for it.
		logger.Info(fmt.Sprintf("tageserved: state dir %s (restored %d checkpointed sessions, checkpoint interval %v)",
			*stateDir, restored, *ckptEvery))
	}

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
		"addr", srv.Addr().String(), "default_backend", defaultSpec,
		"shards", *shards, "max_sessions", *maxSessions, "idle_timeout", *idleTimeout)
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
		logger.Info("tageserved: shutting down", "signal", sig.String(), "drain_grace", *drainGrace)
		if *drainGrace > 0 {
			// Fail readiness first so load balancers route around this
			// instance while existing streams finish naturally.
			srv.BeginDrain()
			time.Sleep(*drainGrace)
		}
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
