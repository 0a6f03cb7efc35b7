#!/usr/bin/env bash
# Tier-1 verification: full build with warnings as errors + test suite,
# then static model verification, then the jrplan workload-lint gate (the
# contention smoke script must lint clean, a malformed script must fail),
# then an external JSON parse of the three checkers' reports (schema 1),
# then a jrload mixed-workload smoke whose run record goes to
# build/run_records.jsonl and is re-validated as JSONL,
# then a forced-contention smoke that checks jrsh prints the rejection and
# the holder net's provenance record,
# then a ThreadSanitizer pass over the concurrent routing service, the
# telemetry subsystem and the lock wrapper with seeded schedule
# perturbation (JROUTE_PERTURB_SEED) — TSAN checks races, lock-order
# inversions and unlock misuse, and its death tests prove it still does —
# then an ASan+UBSan pass over the service, DRC analyzer, model-verifier,
# telemetry, device-model (arch, rrg, bitstream), router, fabric and skew
# tests,
# then a telemetry-compiled-out build (-DJROUTE_NO_TELEMETRY) to prove the
# zero-overhead configuration still builds (tests, jrsh, jrload), passes,
# and still rejects the smoke's contention, then the clang lint passes
# when clang is installed.
# The tracked BENCH_service.json is frozen history: tier 1 fails if any
# pass changed it.
# Every test runs under ctest's per-test TIMEOUT (tests/CMakeLists.txt),
# so a self-deadlock fails its test instead of hanging the run.
#
#   scripts/tier1.sh [jobs]
#
# The sanitizer and no-telemetry builds live in build-tsan/, build-asan/,
# and build-notelem/ so they never pollute the regular build tree; the
# sanitizer passes run only the concurrency-bearing tests and, under
# ASan, the device model's indexing and the router's hot path (the walk's
# open-addressing set, the maze's node table and heap, the template
# library's reused storage, the fabric's on-bit word scan and used bits;
# the rest of the suite is already covered by the first pass).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
FROZEN_HASH="$(sha256sum BENCH_service.json)"

echo "== tier 1: build + full test suite =="
# Warnings are errors here: the regular build is warning-free, and a new
# warning should fail the change that adds it, not pile up as noise.
cmake -B build -S . -DJROUTE_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier 1: static model verification (jrverify over every device) =="
# The model verifier's exit code is its error count: any architecture,
# graph, template-library, or slot-table inconsistency on any shipped
# device fails tier 1 here, before a router ever runs on the broken model.
build/examples/jrverify

echo
echo "== tier 1: jrplan workload lint gate =="
# The dry run must pass the documented contention-smoke script (its
# deliberate same-session double-claim is a contention warning, not an
# error), and must fail a malformed workload with a non-zero exit before
# it ever reaches a live engine.
build/examples/jrplan lint scripts/contention_smoke.jr
printf 'auto 1 1 NO_SUCH_WIRE 2 2 S0F1\nunroute 9 9 S1_YQ\n' \
  > build/plan-bad.jr
if build/examples/jrplan lint build/plan-bad.jr >/dev/null; then
  echo "jrplan: malformed workload script did not fail the lint" >&2
  exit 1
fi
echo "jrplan lint gate OK (clean smoke accepted, malformed rejected)"

echo
echo "== tier 1: checker JSON reports (schema 1, external parser) =="
# jrverify, jrplan's dry run and jrsh's drc render one shared report
# (src/check); each JSON document must parse with an external parser and
# carry the schema version its consumers key on.
build/examples/jrverify --json XCV50 > build/check-verify.json
build/examples/jrplan lint --json scripts/contention_smoke.jr \
  > build/check-lint.json
printf 'device XCV50\nauto 3 3 S1_YQ 4 5 S0F3\ndrc json\nquit\n' \
  | build/examples/jrsh | grep '^{' > build/check-drc.json
for report in build/check-verify.json build/check-lint.json \
              build/check-drc.json; do
  python3 -m json.tool "$report" >/dev/null
  grep -q '"schema":1' "$report"
done
echo "checker JSON OK (jrverify, jrplan lint, jrsh drc)"

echo
echo "== tier 1: jrsh help / README sync =="
scripts/check_jrsh_help.sh build

echo
echo "== tier 1: jrload mixed-workload smoke + run record =="
# The count-parsing gate is JrloadArgTest in the full suite above: a
# malformed count (`--requests 5x`) must exit 2 before any work, not run
# a truncated or wrapped number of requests.
# 10^5 mixed requests (p2p / fanout / bus / unroute / reconnect) across
# 100 concurrent sessions on the XCV1000. The run record (latency
# percentiles and span shares) appends to BENCH_RECORDS (untracked, in
# the build tree) and the RFC 8259 validator in tests/obs_test.cpp then
# re-reads the whole file, so a malformed record fails the build that
# wrote it.
# Lint the exact seeded stream the run below will replay, before it
# costs a 10^5-request execution: the stream generator is deterministic,
# so jrplan vets the very same requests jrload is about to submit.
build/examples/jrplan stream --device XCV1000 --sessions 100 \
  --requests "${JRLOAD_REQUESTS:-100000}"
BENCH_RECORDS="$PWD/build/run_records.jsonl"
JROUTE_BENCH_RECORD="$BENCH_RECORDS" \
  build/examples/jrload --device XCV1000 --sessions 100 \
  --requests "${JRLOAD_REQUESTS:-100000}"
JROUTE_BENCH_JSONL="$BENCH_RECORDS" \
  ctest --test-dir build --output-on-failure -R 'ObsBenchRecord'

echo
echo "== tier 1: contention smoke =="
# One synthetic contention through jrsh (scripts/contention_smoke.jr
# documents the scenario): the second route must print its rejection,
# and `why` on the holder's source must print the holder's record.
build/examples/jrsh scripts/contention_smoke.jr > build/contention-smoke.out
grep -q 'rejected (contention): sink R5C5.S0F1' build/contention-smoke.out
grep -q '^  algorithm ' build/contention-smoke.out
echo "contention smoke OK"

echo
echo "== tier 1: ThreadSanitizer pass (routing service + telemetry + locks) =="
cmake -B build-tsan -S . -DJROUTE_TSAN=ON -DJROUTE_BUILD_BENCH=OFF \
  -DJROUTE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS" --target jr_tests jr_sync_tsan_tests
# JROUTE_PERTURB_SEED makes every jrsync::Mutex::lock() a seeded
# yield/sleep point, so TSAN explores interleavings the host scheduler
# would rarely produce. Any failure replays from the same seed. The
# SyncTsanDeathTest cases are TSAN's liveness proofs: each commits one
# lock bug and expects TSAN's report and exit code.
JROUTE_PERTURB_SEED=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'Service|Obs|Lookahead|Sync|Plan|CheckReport'

echo
echo "== tier 1: ASan+UBSan pass (service + DRC + telemetry + device model + router + skew) =="
cmake -B build-asan -S . -DJROUTE_ASAN=ON -DJROUTE_UBSAN=ON \
  -DJROUTE_BUILD_BENCH=OFF -DJROUTE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS" --target jr_tests
# SkewTest pads template library bodies after the lookup: the bodies are
# views into storage the next lookup reuses.
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Service|Drc|Obs|Verify|Lookahead|Sync|Plan|CheckReport|Bitstream|ArchDb|GraphBuild|GraphTest|Router|Engines|Fabric|Serialization|Skew'

echo
echo "== tier 1: telemetry-compiled-out build (JROUTE_NO_TELEMETRY) =="
# jrsh and jrload are built too: their compiledIn() branches are obs
# consumers that only this pass compiles with telemetry out.
cmake -B build-notelem -S . -DJROUTE_NO_TELEMETRY=ON \
  -DJROUTE_BUILD_BENCH=OFF -DJROUTE_BUILD_EXAMPLES=ON >/dev/null
cmake --build build-notelem -j "$JOBS" --target jr_tests jrsh jrload
# The Router replay's route digest runs here too: compiling telemetry out
# must not change a single route.
ctest --test-dir build-notelem --output-on-failure -j "$JOBS" \
  -R 'Service|Drc|Obs|Verify|Lookahead|Sync|Plan|CheckReport|RouterReplay\.Xcv1000SessionStreamMatchesPinnedDigest'
# Compiling telemetry out must not change what the engine decides: the
# contention smoke still prints its rejection.
build-notelem/examples/jrsh scripts/contention_smoke.jr \
  > build/contention-smoke-notelem.out
grep -q 'rejected (contention): sink R5C5.S0F1' \
  build/contention-smoke-notelem.out
echo "no-telemetry contention smoke OK"

echo
echo "== tier 1: lint =="
scripts/lint.sh "$JOBS"
# -Wthread-safety is the only static lock-protocol check, so a host
# without clang must say that it skipped, not pass silently.
LINT_SKIPPED=""
command -v clang++ >/dev/null || LINT_SKIPPED="clang -Wthread-safety"
if ! command -v clang-tidy >/dev/null; then
  LINT_SKIPPED="${LINT_SKIPPED:+$LINT_SKIPPED / }clang-tidy"
fi

echo
echo "== tier 1: frozen BENCH_service.json unchanged =="
if [[ "$(sha256sum BENCH_service.json)" != "$FROZEN_HASH" ]]; then
  echo "BENCH_service.json changed during tier 1; it is frozen history" >&2
  exit 1
fi
echo "BENCH_service.json unchanged"

echo
echo "tier 1: OK"
if [[ -n "$LINT_SKIPPED" ]]; then
  echo "skipped: $LINT_SKIPPED (not installed)"
fi
