package main

import (
	"strconv"

	"repro/internal/experiments"
)

// metricDef is one metric as BENCHMARK.json declares it. The bounds live
// in BENCHMARK.json only; a test keeps the names, units and directions
// here in step with it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the system sees; every untraced run
// prints each of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"branches_per_s", "branches/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// ladderConfigs and ladderBatches are the axes of the layer ladder.
var (
	ladderConfigs = []string{"16K", "64K", "256K"}
	ladderBatches = []int{1024, 64}
)

// serveLayers are the per-batch layers of the serving ladder, innermost
// first.
var serveLayers = []string{"session", "client_encode", "server_decode", "server_encode", "client_decode", "socket", "ladder_total"}

// experimentNames lists every experiment reproduce-all runs: all of
// experiments.Names() except the "all" composite.
func experimentNames() []string {
	var out []string
	for _, n := range experiments.Names() {
		if n != "all" {
			out = append(out, n)
		}
	}
	return out
}

// perLayerMetrics are what every traced run prints. Ladder metrics do not
// depend on the workload; the rest come from the workload's traced passes
// and read 0 where the workload does not run that layer.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{{"workload.generate_ns_per_branch", "ns/branch", "lower"}}
	for _, cfg := range ladderConfigs {
		m = append(m, metricDef{"tage.predict_update_ns_per_branch." + cfg, "ns/branch", "lower"})
	}
	for _, cfg := range ladderConfigs {
		m = append(m, metricDef{"core.estimator_ns_per_branch." + cfg, "ns/branch", "lower"})
	}
	m = append(m, metricDef{"sim.tally_ns_per_branch", "ns/branch", "lower"})
	for _, cfg := range ladderConfigs {
		m = append(m, metricDef{"sim.ladder_total_ns_per_branch." + cfg, "ns/branch", "lower"})
	}
	for _, layer := range serveLayers {
		for _, b := range ladderBatches {
			m = append(m, metricDef{"serve." + layer + "_ns_per_branch." + batchLabel(b), "ns/branch", "lower"})
		}
	}
	m = append(m,
		metricDef{"bench.ladder_inversions", "count", "lower"},
		metricDef{"sim.parallel_speedup", "x", "higher"},
		metricDef{"sim.job_ms_p50", "ms", "lower"},
		metricDef{"sim.job_ms_max", "ms", "lower"},
		metricDef{"sim.worker_busy_frac", "ratio", "higher"},
		metricDef{"experiments.trace_sims", "count", "lower"},
		metricDef{"experiments.trace_hits", "count", "higher"},
		metricDef{"experiments.memo_hit_frac", "ratio", "higher"},
	)
	for _, n := range experimentNames() {
		m = append(m, metricDef{"experiments." + n + "_ms", "ms", "lower"})
	}
	m = append(m,
		metricDef{"experiments.render_ms", "ms", "lower"},
		metricDef{"serve.batch_p99_us", "us", "lower"},
		metricDef{"serve.batch_samples", "count", "higher"},
		metricDef{"serve.open_us_p50", "us", "lower"},
		metricDef{"serve.close_us_p50", "us", "lower"},
		metricDef{"serve.snapshot_rtt_us_p50", "us", "lower"},
		metricDef{"serve.client_self_frac", "ratio", "lower"},
		metricDef{"serve.checkpoints_written", "count/pass", "lower"},
		metricDef{"serve.checkpoint_bytes", "bytes/pass", "lower"},
		metricDef{"serve.busy_retries", "count/pass", "lower"},
		metricDef{"serve.shed", "count/pass", "lower"},
		metricDef{"go.alloc_bytes_per_branch", "bytes/branch", "lower"},
		metricDef{"go.gc_cycles", "count/pass", "lower"},
		metricDef{"bench.trace_overhead_frac", "ratio", "lower"},
	)
	return m
}()

func batchLabel(b int) string { return "b" + strconv.Itoa(b) }
