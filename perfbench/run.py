#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload session_local --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only rebuild what changed.

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Build output and a
readable summary go to standard error; the full record of the run (host
fingerprint, seed, workload properties, ledger identities, sample
counts) is appended to <build dir>/records.jsonl.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line is still printed, with "correct": false), 2 when the build or
the driver failed (nothing is printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

WORKLOADS = ("session_local", "direct_local")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    """Configure once, then bring the driver up to date."""
    out = sys.stderr.fileno()
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver",
           "-j", jobs]
    return subprocess.run(cmd, stdout=out, stderr=out).returncode == 0


def fingerprint(rec):
    """Host and build identity carried by every record."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for p in sorted(files):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        git_sha = r.stdout.strip() or None
    build_type = rec["build"]["type"]
    return {
        "host_cores": os.cpu_count(),
        "build_type": build_type,
        "release": build_type == "Release" and rec["build"]["ndebug"],
        "compiler": rec["build"]["compiler"],
        "git_sha": git_sha,
        "tree_sha256": digest.hexdigest()[:16],
    }


def phase_checks(phase, latencies):
    """Output checks of one phase: DRC-clean final state, every request
    resolved and accounted for, one latency sample per timed request."""
    c = phase["checks"]
    timed = (phase["accepted"] + phase["thrown"] if phase["kind"] == "direct"
             else ledger.resolved(phase))
    return {
        "drc_clean": c["drc_clean"],
        "all_resolved": ledger.resolved(phase) == phase["attempted"],
        "accounting": c["accounting"],
        "samples": len(latencies) == timed,
        "attempted": phase["attempted"] >= 1,
    }


def per_layer(rec, phases, own, setup, out):
    """Every per-layer row of a traced run; `out` holds its spans files."""
    setup_s, layers, _, _ = setup
    reps = rec["setup"]
    rows = {"%s.build_s" % n: layers[n] for n in ledger.SETUP_LAYERS
            if n != "service"}
    rows["service.start_s"] = layers["service"]
    rows["workload.generate_s"] = rec["generate_s"]
    for n in ledger.RSS_LAYERS:
        rows["%s.rss_mb" % n] = reps[0][n + ".rss_mb"]

    direct_traced = phases["direct_traced"]
    spans = {k: ledger.read_spans(out / phases[k]["spans_file"])
             for k in ("direct_traced", "session_traced")}
    durations, busy, core_gap, core_ok = ledger.core_ledger(
        spans["direct_traced"], direct_traced["wall_s"])
    rows.update(ledger.core_rows(durations, busy))

    own_traced = phases[own + "_traced"]
    rows.update(ledger.router_rows(own_traced))
    rows.update(ledger.fabric_rows(own_traced))
    service, submit = ledger.service_rows(phases["session_traced"],
                                          spans["session_traced"])
    rows.update(service)
    overhead = ledger.overhead_rows(phases["session"], phases["direct"])
    rows.update(overhead)
    rows["obs.tracing_overhead_pct"] = ledger.tracing_overhead_pct(
        phases[own], own_traced)
    rows.update(ledger.property_rows(direct_traced))
    rows["host.mem_probe_ns"] = rec["host"]["mem_probe_ns"]
    rows["host.alu_probe_ns"] = rec["host"]["alu_probe_ns"]
    rows["host.steal_pct"] = ledger.steal_pct([own_traced],
                                              rec["host"]["cores"])

    identities = {
        "setup_gap": setup[2], "setup_ok": setup[3],
        "core_busy_gap": core_gap, "core_busy_ok": core_ok,
        "overhead_ok": ledger.overhead_ledger(overhead, phases["session"],
                                              phases["direct"]),
        "tolerances": {"setup": ledger.SETUP_TOLERANCE,
                       "core_busy": ledger.CORE_BUSY_TOLERANCE,
                       "overhead": ledger.OVERHEAD_TOLERANCE},
    }
    samples = {"submit": submit["count"],
               **{"core." + op: len(durations[op]) for op in ledger.OPS}}
    return rows, identities, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 2
    out = bdir / "runs" / ("%s-s%d-t%d" % (args.workload, args.seed,
                                           args.trace))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(bdir / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr.fileno(),
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %ds" % DRIVER_TIMEOUT_S)
        return 2
    if r.returncode != 0:
        log("driver exited with code %d" % r.returncode)
        return 2

    rec = json.loads((out / "record.json").read_text())
    phases = {}
    lat = {}
    for p in rec["phases"]:
        phases[p["name"]] = p
        lat[p["name"]] = ledger.read_f32(out / p["latency_file"])
    checks = {name: phase_checks(p, lat[name]) for name, p in phases.items()}
    setup = ledger.setup_ledger(rec["setup"])
    own = "direct" if args.workload == "direct_local" else "session"

    if args.trace:
        rows, identities, samples = per_layer(rec, phases, own, setup, out)
        wanted = spec["per_layer"]
        ledger_ok = (identities["setup_ok"] and identities["core_busy_ok"]
                     and identities["overhead_ok"])
    else:
        parts = [(p, lat[name]) for name, p in phases.items()
                 if name.startswith("measured")]
        rows, lat_summary = ledger.end_to_end(parts, setup[0],
                                              rec["peak_rss_mb"])
        identities = {"setup_gap": setup[2], "setup_ok": setup[3]}
        samples = dict(lat_summary, steal_pct=ledger.steal_pct(
            [p for p, _ in parts], rec["host"]["cores"]))
        wanted = spec["end_to_end"]
        ledger_ok = setup[3]

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(ledger.failed(p) for p in phases.values())
    failures = {}
    for p in phases.values():
        for reason, n in p["failures"].items():
            failures[reason] = failures.get(reason, 0) + n
    correct = ledger_ok and all(all(c.values()) for c in checks.values())
    metrics = {m["name"]: {"value": rows[m["name"]], "unit": m["unit"]}
               for m in wanted}

    fp = fingerprint(rec)
    if not fp["release"]:
        log("WARNING: build type %s is not Release; its numbers are not "
            "comparable" % fp["build_type"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fp, "host": rec["host"], "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_ratio": ledger.ratio(failed, attempted),
        "failures": failures, "checks": checks, "identities": identities,
        "samples": samples, "setup": rec["setup"], "rows": rows,
        "exhausted": any(p["exhausted"] for p in phases.values()),
    }
    with open(bdir / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for name in sorted(rows):
        log("%-40s %.6g" % (name, rows[name]))
    log("samples %s; failures %s; checks %s" % (
        json.dumps(samples), json.dumps(failures),
        "ok" if correct else json.dumps({"checks": checks,
                                         "identities": identities})))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
