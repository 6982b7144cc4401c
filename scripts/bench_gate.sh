#!/usr/bin/env bash
# Benchmark regression gate. Runs tagebench on two checkouts of this
# repository in alternating pairs, each side with its own bench/run.sh,
# then compares them with `tagebench -compare`, which judges every
# end-to-end metric against the parent's own spread across the pairs.
# No committed baseline is involved, so the gate enforces on any host.
#
#   bash scripts/bench_gate.sh PARENT_DIR CHANGE_DIR [WORKLOAD]
#
# WORKLOAD is one of BENCHMARK.json's workloads, default offline-suite
# (the predictor hot path: tage, core, sim tally, and nothing else). A
# change that claims a gain on another workload gates on that one.
#
# Prints the comparison table and the gate's own wall time. Exits
# non-zero when a row reads `regressed`, or when a run exits non-zero
# (tagebench exits 1 when a result differs from its golden,
# `"correct": false`).
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR [WORKLOAD]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
readonly workload=${3:-offline-suite}
# tagebench's minPairs: fewer pairs read `unresolved`, never `regressed`.
readonly pairs=10
# Held out: bench/README.md reserves seeds 1-5 for development.
readonly first_seed=11
# A run repeats its pass until its time budget is spent (at least one
# pass; the pass in flight finishes), and reports the median pass. Each
# budget is 2.5 times the workload's median pass time on the 2-CPU build
# host, rounded up to half a second (PERF.md "Gate budgets"), so a run
# makes at least three passes unless its first two average 25% over
# that median.
case "$workload" in
  offline-suite) readonly seconds=7 ;;
  serve-stream) readonly seconds=5.5 ;;
  serve-durable) readonly seconds=6.5 ;;
  reproduce-all) readonly seconds=21.5 ;;
  *)
    echo "bench_gate: unknown workload $workload" >&2
    exit 2
    ;;
esac
started=$SECONDS

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR SEED appends one run of DIR's tagebench to SIDE.jsonl.
run() {
  if ! bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 >> "$out/$1.jsonl"; then
    echo "bench_gate: $1 run with seed $3 failed" >&2
    exit 1
  fi
}

for ((i = 1; i <= pairs; i++)); do
  seed=$((first_seed + i - 1))
  if ((i % 2 == 1)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
done

bash "$change/bench/run.sh" -compare "$out/parent.jsonl" "$out/change.jsonl" | tee "$out/compare.txt"
# The fewest passes any run made: below three, a run's median is one
# or two samples and the budget above no longer fits the host.
fewest=$(grep -ho '"pass_s":\[[^]]*\]' "$out/parent.jsonl" "$out/change.jsonl" | awk -F, '{print NF}' | sort -n | head -n 1)
echo "bench_gate: $workload, $pairs pairs at --seconds $seconds, fewest passes in a run: $fewest, $((SECONDS - started)) s"
if grep -qw regressed "$out/compare.txt"; then
  echo "bench_gate: regressed" >&2
  exit 1
fi
