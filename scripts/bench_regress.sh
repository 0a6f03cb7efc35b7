#!/usr/bin/env bash
# Bench regression sentinel: compares the newest record of every
# configuration group in BENCH_service.json against the median of up to
# three prior records of the same group, and prints a warn line for any
# throughput drop or p99 latency rise beyond the threshold (default
# 20%). A group is (bench, mode) plus every perf-relevant config field
# present in the record — producers, requests, workload, device, armed
# checkers, build mode, host — so an armed run is never compared against
# a disarmed one, a 1-core host's record against a 4-core host's, nor a
# 10^4-request workload against the old 42-request one (which lacks the
# "workload" field entirely).
#
#   scripts/bench_regress.sh [jsonl-file]
#
# Warn-level by design: benchmarks on shared CI hosts are noisy, so the
# sentinel always exits 0 and leaves the red/green decision to a human
# reading the report. tier1.sh runs it (non-fatally) after the bench
# smoke has appended fresh records.
set -euo pipefail
cd "$(dirname "$0")/.."

JSONL="${1:-BENCH_service.json}"
THRESHOLD_PCT="${BENCH_REGRESS_THRESHOLD:-20}"

if [[ ! -f "$JSONL" ]]; then
  echo "bench_regress: $JSONL not found; nothing to compare"
  exit 0
fi
if ! command -v python3 >/dev/null; then
  echo "bench_regress: python3 not installed; skipping"
  exit 0
fi

python3 - "$JSONL" "$THRESHOLD_PCT" <<'EOF'
import json
import sys
from statistics import median

path, threshold = sys.argv[1], float(sys.argv[2])

# Fields that define a comparable configuration. Anything not listed
# (timestamps, measured results) must not split groups.
KEY_FIELDS = [
    "bench", "mode", "workload", "device", "producers", "requests",
    "sessions", "slots", "threads", "seed", "batch", "linger_us",
    # No bench writes "certify", "lockcheck" or "prof" any more; the
    # keys only keep the historical armed records in groups of their own.
    "certify", "drc_paranoid", "lockcheck", "prof", "telemetry",
    "slo_enabled", "host_cores", "build_type", "compiler", "git_sha",
]

groups = {}
skipped = 0
with open(path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if "bench" not in rec or "req_per_sec" not in rec:
            skipped += 1
            continue
        key = tuple((k, rec.get(k)) for k in KEY_FIELDS)
        groups.setdefault(key, []).append(rec)

def p99_of(rec):
    for field in ("p99_ms", "hist_p99_us"):
        if field in rec:
            return field, float(rec[field])
    return None, None

warnings = 0
compared = 0
# Sort by stringified key: tuples mixing None and values don't compare.
for key, recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
    if len(recs) < 2:
        continue
    newest, prior = recs[-1], recs[-4:-1]
    compared += 1
    label = " ".join(f"{k}={v}" for k, v in key if v is not None)

    base_rps = median(float(r["req_per_sec"]) for r in prior)
    new_rps = float(newest["req_per_sec"])
    if base_rps > 0:
        drop = 100.0 * (base_rps - new_rps) / base_rps
        if drop > threshold:
            warnings += 1
            print(f"WARN: throughput -{drop:.1f}% "
                  f"({base_rps:.0f} -> {new_rps:.0f} req/s, "
                  f"median of {len(prior)} prior) [{label}]")

    field, new_p99 = p99_of(newest)
    if field is not None:
        prior_p99 = [p99_of(r)[1] for r in prior if p99_of(r)[0] == field]
        if prior_p99:
            base_p99 = median(prior_p99)
            if base_p99 > 0:
                rise = 100.0 * (new_p99 - base_p99) / base_p99
                if rise > threshold:
                    warnings += 1
                    print(f"WARN: {field} +{rise:.1f}% "
                          f"({base_p99:.3f} -> {new_p99:.3f}, "
                          f"median of {len(prior_p99)} prior) [{label}]")

note = f", {skipped} record(s) skipped" if skipped else ""
if warnings:
    print(f"bench_regress: {warnings} warning(s) over {compared} "
          f"comparable group(s) at >{threshold:.0f}%{note}")
else:
    print(f"bench_regress: no regressions beyond {threshold:.0f}% in "
          f"{compared} comparable group(s){note}")
EOF
exit 0
