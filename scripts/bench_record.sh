#!/usr/bin/env bash
# Run the record-producing benches and append their run records to
# $JROUTE_BENCH_RECORD, by default BENCH_service.json at the repo root
# (JSONL: one record per line, each with an ISO-8601 timestamp — see
# jrbench::appendRunRecord).
#
#   [JROUTE_BENCH_RECORD=path] scripts/bench_record.sh [build-dir]
#
# The build dir defaults to ./build and must already be configured and
# built (scripts/tier1.sh does both).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -d "$BUILD/bench" ]]; then
  echo "error: $BUILD/bench not found — build first (scripts/tier1.sh)" >&2
  exit 1
fi

export JROUTE_BENCH_RECORD="${JROUTE_BENCH_RECORD:-$PWD/BENCH_service.json}"
echo "recording to $JROUTE_BENCH_RECORD"

"$BUILD/bench/bench_service_throughput" "${BENCH_PRODUCERS:-4}" "${BENCH_REPS:-3}" \
  --requests "${BENCH_REQUESTS:-10000}"
"$BUILD/bench/bench_e3_template_vs_maze"
"$BUILD/bench/bench_e6_greedy_vs_pathfinder"
"$BUILD/bench/bench_e18_lookahead"

# jrload mixed-workload records, paired with adaptive batch linger off
# and on: the span_batch_linger_share / hist_p99_us fields across the
# two records are the measured evidence for the latency-vs-batching
# trade (EXPERIMENTS.md E19).
if [[ -x "$BUILD/examples/jrload" ]]; then
  "$BUILD/examples/jrload" --device "${JRLOAD_DEVICE:-XCV300}" \
    --sessions 50 --requests "${JRLOAD_REQUESTS:-20000}" \
    --slo "latency_us=5000,target=0.999,burn=8"
  "$BUILD/examples/jrload" --device "${JRLOAD_DEVICE:-XCV300}" \
    --sessions 50 --requests "${JRLOAD_REQUESTS:-20000}" --linger-us 300 \
    --slo "latency_us=5000,target=0.999,burn=8"
else
  echo "bench_record: $BUILD/examples/jrload not built; skipping jrload records"
fi

echo "done: $(wc -l < "$JROUTE_BENCH_RECORD") record(s) in $JROUTE_BENCH_RECORD"
