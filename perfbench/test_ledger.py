"""Tests of the benchmark's own arithmetic, on synthetic input.

    python3 perfbench/test_ledger.py
"""

import json
import struct
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402
import run  # noqa: E402


def phase(**kw):
    """A phase record as the driver writes it, with neutral defaults."""
    p = {
        "name": "measured", "kind": "session", "traced": False,
        "events": 100, "attempted": 120, "accepted": 120, "rejected": 0,
        "thrown": 0, "failures": {},
        "op_mix": {"p2p": 20, "fanout": 20, "bus": 10, "unroute": 40,
                   "reconnect": 10},
        "distance_sum": 300.0, "distance_pairs": 100,
        "wall_s": 1.0, "cpu_s": 2.0, "driver_wait_s": 0.5,
        "exhausted": False,
        "slices": [{"t": 0.5, "resolved": 60, "samples": 60, "cpu": 1.0,
                    "steal": 0.0},
                   {"t": 1.0, "resolved": 120, "samples": 120, "cpu": 2.0,
                    "steal": 0.04}],
        "router": {"pips_on": 600, "pips_off": 0, "routes_completed": 100,
                   "template_hits": 70, "long_template_hits": 5,
                   "shape_reuse_hits": 2, "maze_runs": 28,
                   "maze_visits": 2800, "on_edge_delta": 40},
        "counters": {},
        "checks": {"drc_clean": True, "drc_errors": 0, "accounting": True},
    }
    p.update(kw)
    return p


class Percentiles(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(ledger.tail_percentile(19))
        self.assertEqual(ledger.tail_percentile(20), 50.0)
        self.assertEqual(ledger.tail_percentile(99), 50.0)
        self.assertEqual(ledger.tail_percentile(100), 90.0)
        self.assertEqual(ledger.tail_percentile(999), 90.0)
        self.assertEqual(ledger.tail_percentile(1000), 99.0)
        self.assertEqual(ledger.tail_percentile(9999), 99.0)
        self.assertEqual(ledger.tail_percentile(10000), 99.9)
        self.assertEqual(ledger.tail_percentile(10 ** 7), 99.999)

    def test_percentile_interpolates_between_ranks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(ledger.percentile(xs, 0), 1.0)
        self.assertEqual(ledger.percentile(xs, 50), 2.5)
        self.assertEqual(ledger.percentile(xs, 100), 4.0)
        self.assertEqual(ledger.percentile([], 50), 0.0)
        self.assertAlmostEqual(
            ledger.percentile([float(i) for i in range(1001)], 99), 990.0)

    def test_summary_sorts_its_sample(self):
        s = ledger.summarize([float(i) for i in range(2000, 0, -1)])
        self.assertEqual(s["count"], 2000)
        self.assertEqual(s["p50"], 1000.5)
        self.assertAlmostEqual(s["p99"], 1980.01)


class Ratios(unittest.TestCase):
    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(ledger.ratio(5, 0), 0.0)
        self.assertEqual(ledger.ratio(1, 4), 0.25)

    def test_rates_take_the_least_disturbed_quartile_of_full_slices(self):
        p = phase(slices=[
            {"t": 0.5, "resolved": 500, "cpu": 1.0},    # 1000/s, 2000 us
            {"t": 1.0, "resolved": 1100, "cpu": 1.5},   # 1200/s, 833 us
            {"t": 1.5, "resolved": 1500, "cpu": 2.3},   # 800/s, 2000 us
            {"t": 1.6, "resolved": 1510, "cpu": 2.9},   # drain: ignored
        ], attempted=1510, accepted=1510, wall_s=1.6, cpu_s=2.9)
        self.assertEqual(ledger.throughput([p]), 1100.0)
        self.assertAlmostEqual(ledger.wall_us_per_req([p]), 1e6 / 1100)
        self.assertAlmostEqual(ledger.cpu_us_per_req([p]),
                               (0.5e6 / 600 + 2000.0) / 2)
        # Slices pool over the parts of a window.
        q = phase(slices=[{"t": 0.5, "resolved": 300, "cpu": 1.0},
                          {"t": 1.0, "resolved": 600, "cpu": 2.0}])
        self.assertEqual(ledger.throughput([p, q]), 1000.0)

    def test_short_window_falls_back_to_totals(self):
        p = phase(slices=[{"t": 0.1, "resolved": 120, "cpu": 0.2}],
                  wall_s=0.1, cpu_s=0.2)
        self.assertAlmostEqual(ledger.throughput([p]), 1200.0)
        self.assertAlmostEqual(ledger.cpu_us_per_req([p]), 0.2e6 / 120)

    def test_router_and_fabric_rows(self):
        p = phase(counters={
            "router.template.walks": 100, "router.template.hits": 80,
            "router.maze.runs": 30, "router.maze.visits": 6000,
            "router.lookahead.select.template": 50,
            "router.lookahead.select.long_line": 10,
            "router.lookahead.select.maze": 40,
            "router.lookahead.visits": 6000,
            "router.lookahead.pruned_nodes": 2000})
        rows = ledger.router_rows(p)
        self.assertEqual(rows["router.template_hit_ratio"], 0.8)
        self.assertEqual(rows["router.maze_runs_per_req"], 0.25)
        self.assertEqual(rows["router.maze_visits_per_run"], 200.0)
        self.assertEqual(rows["router.sel_maze_share"], 0.4)
        self.assertEqual(rows["lookahead.pruned_ratio"], 0.25)
        fab = ledger.fabric_rows(p)
        self.assertEqual(fab["fabric.pips_on_per_req"], 5.0)
        # 600 on, 40 more on at the end than at the start: 560 off.
        self.assertAlmostEqual(fab["fabric.pips_off_per_req"], 560 / 120)

    def test_properties_split_routed_sinks(self):
        p = phase(counters={"router.sink.reuse": 3})
        rows = ledger.property_rows(p)
        self.assertEqual(rows["workload.op_unroute_share"], 0.4)
        self.assertEqual(rows["workload.mean_distance"], 3.0)
        self.assertEqual(rows["workload.sink_template_share"], 0.65)
        self.assertEqual(rows["workload.sink_long_line_share"], 0.05)
        self.assertEqual(rows["workload.sink_maze_share"], 0.27)
        self.assertEqual(rows["workload.sink_reuse_share"], 0.03)
        shares = [v for k, v in rows.items() if k.startswith("workload.sink")]
        self.assertAlmostEqual(sum(shares), 1.0)

    def test_overhead_rows_are_session_minus_direct(self):
        session = phase(cpu_s=3.0, wall_s=1.0, slices=[
            {"t": 1.0, "resolved": 120, "cpu": 3.0}])
        direct = phase(kind="direct", cpu_s=1.2, wall_s=0.6, slices=[
            {"t": 0.6, "resolved": 120, "cpu": 1.2}])  # one slice each
        rows = ledger.overhead_rows(session, direct)
        self.assertAlmostEqual(rows["service.overhead_cpu_us_per_req"],
                               3.0e6 / 120 - 1.2e6 / 120)
        self.assertAlmostEqual(rows["service.overhead_wall_us_per_req"],
                               1.0e6 / 120 - 0.6e6 / 120)
        self.assertTrue(ledger.overhead_ledger(rows, session, direct))
        off = dict(rows)
        off["service.overhead_wall_us_per_req"] += 1.0
        self.assertFalse(ledger.overhead_ledger(off, session, direct))
        other_seed = phase(kind="direct", distance_sum=301.0,
                           cpu_s=1.2, wall_s=0.6)
        self.assertFalse(ledger.overhead_ledger(
            ledger.overhead_rows(session, other_seed), session, other_seed))

    def test_latency_is_lower_quartile_of_slice_percentiles(self):
        def sl(t, k):
            return {"t": t, "resolved": k, "samples": k, "cpu": 0.0,
                    "steal": 0.0}
        lat = ([10.0] * 1000 + [20.0] * 1000 + [30.0] * 1000
               + [500.0] * 10)
        p = phase(slices=[sl(0.5, 1000), sl(1.0, 2000), sl(1.5, 3000),
                          sl(1.6, 3010)])
        summary = ledger.latency([(p, lat)])
        self.assertEqual(summary["slices"], 3)  # the drain is left out
        self.assertEqual(summary["p50"], 15.0)
        self.assertEqual(summary["p99"], 15.0)
        self.assertEqual(summary["count"], 3010)
        self.assertEqual(summary["min_slice_count"], 1000)
        self.assertTrue(summary["p99_supported"])
        short = ledger.latency([(phase(slices=[sl(0.1, 3)]), [1.0, 2.0, 3.0])])
        self.assertEqual(short["p50"], 2.0)
        self.assertFalse(short["p99_supported"])
        self.assertIsNone(short["tail_pct"])

    def test_steal_share(self):
        self.assertAlmostEqual(ledger.steal_pct([phase()], 4), 1.0)
        self.assertAlmostEqual(ledger.steal_pct([phase(), phase()], 4), 1.0)

    def test_tracing_overhead(self):
        untraced = phase(slices=[{"t": 1.0, "resolved": 1000, "cpu": 1.0}])
        traced = phase(slices=[{"t": 1.05, "resolved": 1000, "cpu": 1.0}])
        self.assertAlmostEqual(
            ledger.tracing_overhead_pct(untraced, traced), 5.0)


class Identities(unittest.TestCase):
    @staticmethod
    def rep(total, **layers):
        r = {n + ".build_s": 0.0 for n in ledger.SETUP_LAYERS}
        r.update({k + ".build_s": v for k, v in layers.items()})
        r["total_s"] = total
        return r

    def test_setup_layers_sum_to_setup_s(self):
        reps = [self.rep(6.0, rrg=4.0, bitstream=1.8, lookahead=0.19),
                self.rep(5.0, rrg=3.3, bitstream=1.5, lookahead=0.2),
                self.rep(7.0, rrg=4.6, bitstream=2.1, lookahead=0.3)]
        setup_s, layers, gap, ok = ledger.setup_ledger(reps)
        self.assertEqual(setup_s, 6.0)
        self.assertEqual(layers["rrg"], 4.0)  # from the median set-up
        self.assertAlmostEqual(gap, 0.01 / 6.0)
        self.assertTrue(ok)
        two = ledger.setup_ledger(reps[:2])
        self.assertEqual(two[0], 5.5)
        self.assertEqual(two[1]["rrg"], 3.3)  # the lower of two

    def test_setup_gap_beyond_tolerance_fails(self):
        reps = [self.rep(6.0, rrg=4.0), self.rep(6.0, rrg=4.0)]
        _, _, gap, ok = ledger.setup_ledger(reps)
        self.assertAlmostEqual(gap, 2.0 / 6.0)
        self.assertFalse(ok)

    def test_core_busy_time_sums_to_wall(self):
        spans = [(0, 0, ledger.LAYER_CORE, 0, 400_000),
                 (1, 1, ledger.LAYER_CORE, 400_000, 700_000),
                 (2, 3, ledger.LAYER_CORE, 700_000, 980_000),
                 (3, 0, ledger.LAYER_SERVICE, 0, 5_000_000)]
        durations, busy, gap, ok = ledger.core_ledger(spans, 0.001)
        self.assertEqual(durations["p2p"], [400.0])
        self.assertEqual(busy["unroute"], 280.0)
        self.assertAlmostEqual(gap, 0.02)
        self.assertTrue(ok)
        rows = ledger.core_rows(durations, busy)
        self.assertAlmostEqual(rows["core.p2p_share"], 400 / 980)
        self.assertEqual(rows["core.bus_share"], 0.0)
        self.assertFalse(ledger.core_ledger(spans, 0.0012)[3])


class Contract(unittest.TestCase):
    """The rows a run computes are exactly the metrics BENCHMARK.json
    names, so the printed result always matches the spec."""

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_rows_match_spec(self):
        rows, _ = ledger.end_to_end([(phase(), [1.0] * 120)], 5.0, 400.0)
        self.assertEqual(set(rows), {m["name"] for m in self.spec["end_to_end"]})

    def test_per_layer_rows_match_spec(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            spans = {
                "direct_traced": [(i, i % 4, ledger.LAYER_CORE, 10 * i,
                                   10 * i + 9) for i in range(40)],
                "session_traced": [(i, 0, layer, 0, 1000) for i in range(20)
                                   for layer in (ledger.LAYER_SUBMIT,
                                                 ledger.LAYER_SERVICE)],
            }
            phases = {}
            for name in ("direct", "session", "direct_traced",
                         "session_traced"):
                p = phase(name=name, spans_file=name + ".spans",
                          kind=name.split("_")[0],
                          service={"submitted": 120, "accepted": 120,
                                   "rejected": 0, "batches": 10,
                                   "parallel_planned": 60,
                                   "serial_routed": 60,
                                   "plan_fallbacks": 0, "claim_retries": 0},
                          span_shares={s: 1 / 6
                                       for s in ledger.SPAN_SEGMENTS})
                with open(out / p["spans_file"], "wb") as f:
                    for rec in spans.get(name, []):
                        f.write(ledger.SPAN.pack(*rec))
                phases[name] = p
            reps = [Identities.rep(1.0, rrg=1.0)]
            for r in reps:
                r.update({n + ".rss_mb": 1.0 for n in ledger.RSS_LAYERS})
            rec = {"setup": reps, "generate_s": 0.1,
                   "host": {"cores": 4, "mem_probe_ns": 100.0,
                            "alu_probe_ns": 2.0}}
            rows, identities, _ = run.per_layer(
                rec, phases, "session", ledger.setup_ledger(reps), out)
        self.assertEqual(set(rows), {m["name"] for m in self.spec["per_layer"]})
        self.assertTrue(identities["overhead_ok"])

    def test_spans_round_trip(self):
        with tempfile.NamedTemporaryFile() as f:
            f.write(struct.pack("=QBB6xQQ", 7, 2, 1, 100, 250))
            f.flush()
            self.assertEqual(ledger.read_spans(f.name), [(7, 2, 1, 100, 250)])

    def test_latency_samples_round_trip(self):
        with tempfile.NamedTemporaryFile() as f:
            array("f", [1.5, 2.25]).tofile(f)
            f.flush()
            self.assertEqual(ledger.read_f32(f.name), [1.5, 2.25])


if __name__ == "__main__":
    unittest.main()
