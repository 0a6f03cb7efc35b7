"""Arithmetic of the perfbench ledger: percentiles, ratios, metric rows
and the ledger identities.

The driver (driver.cpp) writes raw counts, times, latency samples and
spans; everything derived from them is computed here, so that it can be
tested on synthetic input (test_ledger.py) without a device build.
"""

import statistics
import struct
from array import array

# Candidate percentiles, lowest first. A timing is reported at the median
# and at the highest of these with at least TAIL_MIN_BEYOND samples above it.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10

# Ledger tolerances, as a share of the quantity being accounted for.
SETUP_TOLERANCE = 0.02  # sum of the setup layers vs their set-up's wall time
CORE_BUSY_TOLERANCE = 0.05  # sum of per-op busy time vs measured wall time
OVERHEAD_TOLERANCE = 1e-9  # overhead rows vs session minus direct

# Throughput, CPU per request and latency percentiles are taken over the
# driver's slices of the measured window (0.5 s each). Other guests on a
# shared host only ever slow the process down, and they come and go over
# seconds to minutes, so the benchmark reports the least disturbed
# quarter: the upper quartile of the slices' rates and the lower quartile
# of their times. A change that slows every slice still moves the
# result in full. Slices shorter than MIN_SLICE_S (the drain at the end)
# are left out.
RATE_QUANTILE = 75.0
TIME_QUANTILE = 25.0
MIN_SLICE_S = 0.25

OPS = ("p2p", "fanout", "bus", "unroute")
LAYER_CORE, LAYER_SERVICE, LAYER_SUBMIT = 0, 1, 2
SPAN = struct.Struct("=QBB6xQQ")  # request id, op, layer, start ns, end ns
SETUP_LAYERS = ("rrg", "arch", "bitstream", "fabric", "lookahead", "service")
RSS_LAYERS = ("rrg", "bitstream", "lookahead", "service")
SPAN_SEGMENTS = ("queue_wait", "batch_linger", "plan", "arbitration",
                 "commit", "reply")
STREAM_OPS = ("p2p", "fanout", "bus", "unroute", "reconnect")


def ratio(num, den):
    """num / den, or 0.0 when there is nothing to divide by."""
    return float(num) / float(den) if den else 0.0


def percentile(sorted_xs, p):
    """p-th percentile (0..100) of an ascending list, interpolating
    linearly between the two nearest ranks."""
    if not sorted_xs:
        return 0.0
    rank = p / 100.0 * (len(sorted_xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile (rounded, so
    that 100 - 99.9 counts as exactly 0.1)."""
    return round(n * (100.0 - p) / 100.0, 6)


def tail_percentile(n):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when not even the median qualifies."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def summarize(xs):
    """Median and p99 of a sample, with its count."""
    s = sorted(xs)
    return {"count": len(s), "p50": percentile(s, 50.0),
            "p99": percentile(s, 99.0)}


def read_f32(path):
    xs = array("f")
    with open(path, "rb") as f:
        xs.frombytes(f.read())
    return list(xs)


def read_spans(path):
    """[(request id, op, layer, start ns, end ns)] from a spans file."""
    with open(path, "rb") as f:
        return list(SPAN.iter_unpack(f.read()))


# --- Rows of one phase -----------------------------------------------------

def failed(phase):
    return phase["rejected"] + phase["thrown"]


def resolved(phase):
    return phase["accepted"] + phase["rejected"] + phase["thrown"]


def per_request_us(seconds, phase):
    return ratio(seconds * 1e6, phase["attempted"])


def slice_rates(phases):
    """[(requests per second, CPU us per request)] of each slice at least
    MIN_SLICE_S long, pooled over the phases; each phase's whole window
    when it has no such slice."""
    out = []
    for phase in phases:
        rates = []
        t0 = n0 = c0 = 0.0
        for s in phase["slices"]:
            dt, dn, dc = s["t"] - t0, s["resolved"] - n0, s["cpu"] - c0
            if dt >= MIN_SLICE_S and dn > 0:
                rates.append((dn / dt, dc * 1e6 / dn))
            t0, n0, c0 = s["t"], s["resolved"], s["cpu"]
        out += rates or [(ratio(resolved(phase), phase["wall_s"]),
                          per_request_us(phase["cpu_s"], phase))]
    return out


def throughput(phases):
    """Requests resolved per second: the upper quartile over slices."""
    return percentile(sorted(r for r, _ in slice_rates(phases)),
                      RATE_QUANTILE)


def cpu_us_per_req(phases):
    """Process CPU time per request: the lower quartile over slices."""
    return percentile(sorted(c for _, c in slice_rates(phases)),
                      TIME_QUANTILE)


def wall_us_per_req(phases):
    return ratio(1e6, throughput(phases))


def slice_latencies(phase, latencies):
    """The latency samples of each slice at least MIN_SLICE_S long (the
    driver appends samples in the order it sees requests resolve); all of
    them as one slice when no slice is."""
    out = []
    t0 = k0 = 0
    for s in phase["slices"]:
        k = int(s["samples"])
        if s["t"] - t0 >= MIN_SLICE_S and k > k0:
            out.append(latencies[k0:k])
        t0, k0 = s["t"], k
    return out or [latencies]


def latency(parts):
    """The lower quartile over the slices of [(phase, latencies)] of each
    slice's p50 and p99, with the counts that say whether a slice's p99
    has ten samples beyond it."""
    per_slice = [summarize(xs) for phase, lat in parts
                 for xs in slice_latencies(phase, lat)]
    smallest = min(s["count"] for s in per_slice)
    tail = tail_percentile(smallest)
    return {
        "count": sum(len(lat) for _, lat in parts),
        "slices": len(per_slice),
        "min_slice_count": smallest,
        "p99_supported": tail is not None and tail >= 99.0,
        "tail_pct": tail,
        "p50": percentile(sorted(s["p50"] for s in per_slice),
                          TIME_QUANTILE),
        "p99": percentile(sorted(s["p99"] for s in per_slice),
                          TIME_QUANTILE),
    }


def steal_pct(phases, cores):
    """Share of the host's CPU time taken by other guests in the windows."""
    steal = sum(p["slices"][-1]["steal"] for p in phases)
    seconds = sum(p["slices"][-1]["t"] for p in phases)
    return 100.0 * ratio(steal, seconds * cores)


def end_to_end(parts, setup_s, peak_rss_mb):
    """The user-visible metrics of the measured parts [(phase, latencies)]."""
    phases = [phase for phase, _ in parts]
    lat = latency(parts)
    return {
        "throughput_rps": throughput(phases),
        "latency_p50_us": lat["p50"],
        "latency_p99_us": lat["p99"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cpu_us_per_req": cpu_us_per_req(phases),
    }, lat


def setup_ledger(reps):
    """setup_s (the median of the set-ups' wall times), the layer times of
    that median set-up, and whether they add up to its wall time."""
    ranked = sorted(reps, key=lambda r: r["total_s"])
    rep = ranked[(len(ranked) - 1) // 2]
    setup_s = statistics.median(r["total_s"] for r in reps)
    layers = {name: rep[name + ".build_s"] for name in SETUP_LAYERS}
    gap = ratio(rep["total_s"] - sum(layers.values()), rep["total_s"])
    return setup_s, layers, gap, abs(gap) <= SETUP_TOLERANCE


def core_ledger(spans, wall_s):
    """Per-op busy time and call durations of the timed Router calls, and
    whether the busy time adds up to the measured wall time."""
    durations = {op: [] for op in OPS}
    for _, op, layer, start, end in spans:
        if layer == LAYER_CORE:
            durations[OPS[op]].append((end - start) * 1e-3)
    busy_us = {op: sum(d) for op, d in durations.items()}
    total_us = sum(busy_us.values())
    gap = ratio(wall_s * 1e6 - total_us, wall_s * 1e6)
    return durations, busy_us, gap, abs(gap) <= CORE_BUSY_TOLERANCE


def overhead_rows(session, direct):
    """Service overhead per request: the session replay minus the direct
    replay of the same events."""
    return {
        "service.overhead_cpu_us_per_req":
            cpu_us_per_req([session]) - cpu_us_per_req([direct]),
        "service.overhead_wall_us_per_req":
            wall_us_per_req([session]) - wall_us_per_req([direct]),
    }


def overhead_ledger(rows, session, direct):
    """The overhead rows must equal session minus direct, and the two
    phases must have replayed the same events (same seed and prefix)."""
    want = overhead_rows(session, direct)
    same_events = all(session[k] == direct[k] for k in
                      ("events", "attempted", "op_mix", "distance_sum"))
    return same_events and all(
        abs(rows[k] - want[k]) <= OVERHEAD_TOLERANCE * max(1.0, abs(want[k]))
        for k in want)


def router_rows(phase):
    c = phase["counters"]
    sel = (c.get("router.lookahead.select.template", 0)
           + c.get("router.lookahead.select.long_line", 0)
           + c.get("router.lookahead.select.maze", 0))
    pruned = c.get("router.lookahead.pruned_nodes", 0)
    return {
        "router.template_hit_ratio": ratio(c.get("router.template.hits", 0),
                                           c.get("router.template.walks", 0)),
        "router.maze_runs_per_req": ratio(c.get("router.maze.runs", 0),
                                          phase["attempted"]),
        "router.maze_visits_per_run": ratio(c.get("router.maze.visits", 0),
                                            c.get("router.maze.runs", 0)),
        "router.sel_maze_share": ratio(
            c.get("router.lookahead.select.maze", 0), sel),
        "lookahead.pruned_ratio": ratio(
            pruned, c.get("router.lookahead.visits", 0) + pruned),
    }


def fabric_rows(phase):
    on = phase["router"]["pips_on"]
    off = on - phase["router"]["on_edge_delta"]
    return {
        "fabric.pips_on_per_req": ratio(on, phase["attempted"]),
        "fabric.pips_off_per_req": ratio(off, phase["attempted"]),
    }


def service_rows(phase, spans):
    """Service counters of a traced session phase, and its submit spans."""
    c = phase["counters"]
    s = phase["service"]
    submit = summarize([(e - b) * 1e-3 for _, _, layer, b, e in spans
                        if layer == LAYER_SUBMIT])
    rows = {
        "service.submit_p50_us": submit["p50"],
        "service.submit_p99_us": submit["p99"],
        "service.driver_wait_us_per_req":
            per_request_us(phase["driver_wait_s"], phase),
        "service.batch_size_mean": ratio(c.get("service.batch.size.sum", 0),
                                         c.get("service.batch.size.count", 0)),
        "service.parallel_ratio": ratio(
            s["parallel_planned"], s["parallel_planned"] + s["serial_routed"]),
        "service.plan_fallback_ratio": ratio(s["plan_fallbacks"],
                                             s["submitted"]),
        "service.claim_retry_ratio": ratio(s["claim_retries"], s["submitted"]),
        "txn.rollbacks_per_req": ratio(c.get("txn.rollbacks", 0),
                                       s["submitted"]),
    }
    for seg in SPAN_SEGMENTS:
        rows["service.span.%s_share" % seg] = phase["span_shares"][seg]
    return rows, submit


def property_rows(phase):
    """Properties of the event stream itself, from a direct replay."""
    mix = phase["op_mix"]
    events = sum(mix.values())
    rows = {"workload.op_%s_share" % op: ratio(mix[op], events)
            for op in STREAM_OPS}
    rows["workload.mean_distance"] = ratio(phase["distance_sum"],
                                           phase["distance_pairs"])
    r = phase["router"]
    reuse = phase["counters"].get("router.sink.reuse", 0)
    sinks = r["routes_completed"]
    long_line = r["long_template_hits"]
    template = r["template_hits"] - long_line
    rows["workload.sink_template_share"] = ratio(template, sinks)
    rows["workload.sink_long_line_share"] = ratio(long_line, sinks)
    rows["workload.sink_maze_share"] = ratio(
        sinks - r["template_hits"] - reuse, sinks)
    rows["workload.sink_reuse_share"] = ratio(reuse, sinks)
    return rows


def core_rows(durations, busy_us):
    rows = {}
    total = sum(busy_us.values())
    for op in OPS:
        d = summarize(durations[op])
        rows["core.%s_p50_us" % op] = d["p50"]
        rows["core.%s_p99_us" % op] = d["p99"]
        rows["core.%s_share" % op] = ratio(busy_us[op], total)
    return rows


def tracing_overhead_pct(untraced, traced):
    """Traced vs untraced wall time per request, in percent."""
    return 100.0 * (ratio(wall_us_per_req([traced]),
                          wall_us_per_req([untraced])) - 1.0)
