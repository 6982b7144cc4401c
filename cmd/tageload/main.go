// Command tageload is the load generator for tageserved: it replays the
// synthetic workload suites over N concurrent connections and reports
// throughput, tail latency and the per-level confidence breakdown.
// Sessions open the registered backend the -backend spec names.
//
// Usage:
//
//	tageload -addr localhost:7421 -suite cbp1 -conns 8
//	tageload -addr localhost:7421 -trace 300.twolf -backend "tage-16K?mode=adaptive"
//	tageload -addr localhost:7421 -backend gshare-64K -suite cbp2
//	tageload -addr localhost:7421 -duration 2s -conns 4
//
// In pass mode (the default) every connection replays its share of the
// suite exactly once and the per-level counts are exact: they match an
// offline sim.Run over the same traces bit for bit (the repository's
// equivalence tests pin this; -verify recomputes the comparison inline).
// Every replay also cross-checks the grades it received against the
// server's final tallies and fails on any disagreement. The batch
// latency line reads one histogram shared by all connections; its
// quantiles can read up to 12.5% high.
// In duration mode (-duration > 0) the connections loop over their
// traces until the deadline — the throughput-soak configuration the CI
// smoke job uses. Every round trip has a 30 s read/write deadline.
//
// With -nodes, tageload drives a cluster through the failover-aware
// router: sessions are keyed (tageload/<conn>/<trace>, so durable),
// placed by consistent hashing, and survive node restarts and crashes —
// transient failures are retried with the router's default budget and
// breaker and reported in the final cluster roll-up instead of aborting
// the run:
//
//	tageload -nodes localhost:7421,localhost:7431 -suite cbp1 -verify
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		spec      = flag.String("backend", "tage-64K?mode=probabilistic", "backend spec each session opens, e.g. tage-16K?mode=adaptive, gshare-64K, perceptron")
		addr      = flag.String("addr", "localhost:7421", "tageserved wire-protocol address")
		suiteName = flag.String("suite", "cbp1", "suite to replay: cbp1, cbp2 or all")
		traceName = flag.String("trace", "", "replay a single trace instead of a suite")
		conns     = flag.Int("conns", 4, "concurrent connections (one session each at a time)")
		batch     = flag.Int("batch", 1024, "branches per request batch")
		branches  = flag.Uint64("branches", 0, "branch records per trace (0 = full trace)")
		duration  = flag.Duration("duration", 0, "soak: loop replays until this deadline (0 = one exact pass)")
		nodes     = flag.String("nodes", "", "comma-separated cluster addresses; enables the failover-aware router with durable keyed sessions (overrides -addr)")
		verify    = flag.Bool("verify", false, "pass mode: recompute every trace offline and require bit-identical tallies")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	clientCfg := serve.ClientConfig{
		DialTimeout:  5 * time.Second,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}

	sp, err := predictor.Parse(*spec)
	if err != nil {
		fatal("tageload: bad backend spec", "err", err)
	}
	req := serve.OpenRequest{Spec: *spec}
	var traces []trace.Trace
	if *traceName != "" {
		tr, err := workload.ByName(*traceName)
		if err != nil {
			fatal("tageload: unknown trace", "err", err)
		}
		traces = []trace.Trace{tr}
	} else {
		traces, err = workload.Suite(*suiteName)
		if err != nil {
			fatal("tageload: unknown suite", "err", err)
		}
	}

	var router *serve.Router
	if *nodes != "" {
		router, err = serve.NewRouter(serve.RouterConfig{
			Nodes:  strings.Split(*nodes, ","),
			Client: clientCfg,
		})
		if err != nil {
			fatal("tageload: router setup failed", "err", err)
		}
	}

	n := *conns
	if n < 1 {
		n = 1
	}
	var deadline time.Time
	if *duration > 0 {
		if *verify {
			fatal("tageload: -verify needs an exact pass; drop -duration")
		}
		deadline = time.Now().Add(*duration)
		if *branches == 0 {
			// The deadline is only checked between replays, so a full
			// 600k-branch suite trace could overshoot a short -duration
			// several times over. Cap the per-replay length to bound the
			// overshoot (~tens of ms at observed serving rates); exact
			// full-trace passes are pass mode's job, not the soak's.
			*branches = 50_000
		}
	}

	// Round-robin the traces over the connections. In pass mode each
	// trace is replayed exactly once, so the aggregate equals an offline
	// suite run.
	type workerOut struct {
		results []sim.Result
		busy    uint64
		err     error
	}
	outs := make([]workerOut, n)
	// One batch-latency histogram for every worker: Observe is wait-free,
	// so the workers share it instead of merging per-worker copies.
	var lat obs.Histogram
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			var replay func(i int) bool
			if router != nil {
				// Router mode: keyed durable sessions, transient node
				// failures retried inside Replay (reported in the cluster
				// roll-up) instead of aborting the worker.
				replay = func(i int) bool {
					key := fmt.Sprintf("tageload/%d/%s", w, traces[i].Name())
					rs, err := router.Open(key, req)
					if err != nil {
						out.err = err
						return false
					}
					res, err := rs.Replay(traces[i], *branches, *batch, &lat)
					if err != nil {
						out.err = fmt.Errorf("%s: %w", traces[i].Name(), err)
						return false
					}
					out.results = append(out.results, res)
					return true
				}
			} else {
				c, err := serve.DialConfig(*addr, clientCfg)
				if err != nil {
					out.err = err
					return
				}
				defer c.Close()
				defer func() { out.busy = c.BusyRetries() }()
				replay = func(i int) bool {
					sess, err := c.OpenSession(req)
					if err != nil {
						out.err = err
						return false
					}
					res, err := sess.Replay(traces[i], *branches, *batch, &lat)
					if err != nil {
						out.err = fmt.Errorf("%s: %w", traces[i].Name(), err)
						return false
					}
					out.results = append(out.results, res)
					return true
				}
			}
			if deadline.IsZero() {
				// Pass mode: strided exact shares, each trace replayed
				// exactly once across all connections.
				for i := w; i < len(traces); i += n {
					if !replay(i) {
						return
					}
				}
				return
			}
			// Soak mode: every connection loops the whole trace list from
			// a rotated start until the deadline (several connections may
			// replay the same trace through separate sessions — that is
			// the load pattern, and it keeps every worker busy even with
			// more connections than traces).
			for i := w % len(traces); !time.Now().After(deadline); i = (i + 1) % len(traces) {
				if !replay(i) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sim.Result
	var busy uint64
	for i := range outs {
		if outs[i].err != nil {
			if router != nil {
				// The router's flight recorder holds the retries, breaker
				// transitions and failovers leading up to the failure.
				var tail strings.Builder
				router.Events().WriteText(&tail)
				logger.Error("tageload: router events at failure", "events", tail.String())
			}
			fatal("tageload: connection failed", "conn", i, "err", outs[i].err)
		}
		all = append(all, outs[i].results...)
		busy += outs[i].busy
	}
	if len(all) == 0 {
		fatal("tageload: no trace replay completed within the duration")
	}

	var agg sim.Result
	for _, res := range all {
		agg.Add(res)
	}
	fmt.Printf("tageload: %d connections, %d trace replays, %s\n", n, len(all), elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %.0f branches/sec (%d branches)\n",
		float64(agg.Branches)/elapsed.Seconds(), agg.Branches)
	fmt.Printf("  batch latency (%d branches/batch): p50=%v p90=%v p99=%v max=%v\n", *batch,
		lat.Quantile(0.5), lat.Quantile(0.9), lat.Quantile(0.99), lat.Quantile(1))
	fmt.Printf("  accuracy: %.2f misp/KI, %.2f%% mispredicted\n", agg.MPKI(), 100*agg.Total.Rate())
	fmt.Println("  per-level breakdown:")
	for _, l := range core.Levels() {
		c := agg.Level(l)
		fmt.Printf("    %-6s  Pcov=%5.1f%%  MKP=%6.1f  (%d/%d)\n",
			l, 100*metrics.Pcov(c, agg.Total), c.MKP(), c.Misps, c.Preds)
	}
	if deadline.IsZero() {
		fmt.Println("  (exact pass: per-level counts are bit-identical to offline sim.Run)")
	}
	if router != nil {
		fmt.Println("  cluster:")
		for _, ns := range router.Stats() {
			fmt.Printf("    %-24s sessions=%d retries=%d recoveries=%d failovers=%d busy_retries=%d breaker_opens=%d breaker_closes=%d\n",
				ns.Addr, ns.Sessions, ns.Retries, ns.Recoveries, ns.Failovers,
				ns.BusyRetries, ns.BreakerOpens, ns.BreakerCloses)
		}
	} else if busy > 0 {
		fmt.Printf("  busy retries (load-shed batches retried): %d\n", busy)
	}
	if *verify {
		if err := verifyOffline(all, sp, *branches); err != nil {
			fatal("tageload: VERIFY FAILED", "err", err)
		}
		fmt.Printf("  verify: %d replays bit-identical to offline sim.Run\n", len(all))
	}
	if agg.Branches == 0 {
		os.Exit(1)
	}
}

// verifyOffline recomputes every served replay with the offline simulator
// and requires bit-identical tallies: online == offline, checked in a
// real process.
func verifyOffline(all []sim.Result, sp predictor.Spec, limit uint64) error {
	for _, res := range all {
		tr, err := workload.ByName(res.Trace)
		if err != nil {
			return err
		}
		offline, err := sim.RunSpec(sp, tr, limit)
		if err != nil {
			return err
		}
		if res != offline {
			return fmt.Errorf("%s: served %+v != offline %+v", res.Trace, res, offline)
		}
	}
	return nil
}
