"""Tests of perfbench's statistics, derived ratios and correctness checks
on hand-built inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import copy
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import benchlib  # noqa: E402
import run  # noqa: E402

with open(run.PINS_PATH) as f:
    PINS = json.load(f)


def world(name, **fields):
    base = {"name": name, "hash": "0x1", "attempted": 10, "failed": 0,
            "completed": 10, "setup_s": 1.0, "run_s": 2.0}
    base.update(fields)
    return base


def rep(workload, worlds, seed=1, traced=False, workers=1, wall_s=3.0):
    return {"workload": workload, "seed": seed, "traced": traced,
            "threads": 4, "workers": workers, "wall_s": wall_s, "cpu_s": 4.0,
            "peak_rss_mb": 10.0, "facts": {}, "worlds": worlds}


def pinned_rep(workload):
    """A repetition whose outputs equal the pins exactly."""
    worlds = []
    for name, fields in PINS[workload].items():
        w = world(name)
        w.update(fields)
        # A request per completion; two measurements per Fig. 3 path.
        w["attempted"] = (fields["completed"] + fields["errors"]
                          if "completed" in fields else 2)
        w["failed"] = w.get("errors", 0)
        worlds.append(w)
    return rep(workload, worlds, seed=PINS["seed"])


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q3))
        self.assertEqual(benchlib.quartiles(values), (2.75, 8.25))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0))

    def test_tail_percentile_needs_ten_beyond(self):
        # 1..1000: p99 (rank 990) leaves 10 above it; p99.9 leaves 1.
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))),
                         (99, 990))
        # 100 samples: p90 (rank 90) leaves exactly 10 above it.
        self.assertEqual(benchlib.tail_percentile(list(range(100))),
                         (90, 89))
        # 20 samples: only the median has ten beyond it.
        self.assertEqual(benchlib.tail_percentile(list(range(20))), (50, 9))
        self.assertIsNone(benchlib.tail_percentile(list(range(15))))

    def test_div_by_zero_is_zero(self):
        self.assertEqual(benchlib.div(5, 0), 0.0)


class DerivedRatios(unittest.TestCase):
    def test_us_per_req_over_basic(self):
        # 2 s over 1000 requests vs 1 s over 1000: 1 ms = 1000 us extra.
        self.assertAlmostEqual(
            benchlib.us_per_req_over_basic(2.0, 1000, 1.0, 1000), 1000.0)
        self.assertAlmostEqual(
            benchlib.us_per_req_over_basic(3.0, 1000, 2.0, 2000), 2000.0)

    def test_barrier_wait_share(self):
        self.assertAlmostEqual(benchlib.barrier_wait_share(1.0, 2, 1.0), 0.5)
        self.assertEqual(benchlib.barrier_wait_share(1.0, 2, 0.0), 0.0)

    def test_workspan_bound(self):
        self.assertEqual(benchlib.workspan_bound([10, 10, 10, 10], 2), 2.0)
        # Shards 0 and 2 go to worker 0: 40 of 50 events.
        self.assertEqual(benchlib.workspan_bound([30, 5, 10, 5], 2), 1.25)
        self.assertEqual(benchlib.workspan_bound([7, 3], 1), 1.0)

    def test_ns_per_unit(self):
        self.assertAlmostEqual(benchlib.ns_per_unit(1.0, 1000), 1e6)

    def test_per_layer_fig2_over_basic_and_setup(self):
        worlds = []
        for arm, run_s, setup_s in (("basic", 1.0, 0.01), ("hip", 3.0, 0.3),
                                    ("ssl", 2.0, 0.2), ("hip_accel", 2.5, 0.3)):
            worlds.append(world(f"{arm}/2", run_s=run_s, setup_s=setup_s,
                                completed=1000, run_events=1e6,
                                esp_packets=4000 if "hip" in arm else 0))
        r = rep("fig2_sweep", worlds)
        m = benchlib.per_layer([r], [dict(r, traced=True, wall_s=3.3)])
        self.assertAlmostEqual(m["hip.us_per_req_over_basic"], 2000.0)
        self.assertAlmostEqual(m["tls.us_per_req_over_basic"], 1000.0)
        self.assertAlmostEqual(m["core.setup_s.hip"], 0.3)
        self.assertAlmostEqual(m["sim.ns_per_event"], 8.5e9 / 4e6)
        self.assertAlmostEqual(m["hip.esp_packets_per_req"], 4.0)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.1)
        self.assertEqual(m["shard.speedup_vs_1w"], 0.0)
        self.assertEqual(set(m), set(benchlib.PER_LAYER))

    def test_per_layer_sharded(self):
        w = world("sharded/64", workers=1, run_s=3.0, barrier_wait_s=0.01,
                  events_fired=1000, run_events=800, epochs=100,
                  shard_events=[30, 5, 10, 5], build_s=0.5, warmup_s=0.1)
        r = rep("sharded_rubis", [w])
        two = rep("sharded_rubis",
                  [dict(w, workers=2, run_s=2.0, barrier_wait_s=1.0)],
                  workers=2)
        # Slicing adds loop entries: the traced run time must not be used.
        traced = rep("sharded_rubis", [dict(w, run_s=4.0)], traced=True)
        m = benchlib.per_layer([r], [traced], [two])
        self.assertAlmostEqual(m["shard.barrier_wait_share"], 0.25)
        self.assertAlmostEqual(m["sim.ns_per_event"], 3e9 / 800)
        self.assertEqual(m["shard.events_per_epoch"], 10.0)
        self.assertEqual(m["shard.workspan_bound"], 1.25)
        self.assertAlmostEqual(m["shard.speedup_vs_1w"], 1.5)
        self.assertEqual(m["core.warmup_s"], 0.1)

    def test_per_layer_path_costs(self):
        w = world("ipv4", iperf_s=0.5, iperf_packets=500_000, ping_s=0.002,
                  echoes=2000, establish_s=0.0)
        r = rep("path_bulk", [w])
        m = benchlib.per_layer([r], [dict(r, traced=True)])
        self.assertAlmostEqual(m["net.ns_per_pkt.ipv4"], 1000.0)
        self.assertAlmostEqual(m["net.us_per_echo.ipv4"], 1.0)

    def test_end_to_end_takes_medians(self):
        reps = [rep("path_bulk", [world("ipv4", setup_s=s, run_s=2 * s)],
                    wall_s=w) for s, w in ((1.0, 5.0), (3.0, 4.0), (2.0, 6.0))]
        m = benchlib.end_to_end(reps)
        self.assertEqual((m["wall_s"], m["setup_s"], m["run_s"]),
                         (5.0, 2.0, 4.0))


class Correctness(unittest.TestCase):
    def test_pinned_outputs_pass(self):
        for workload in benchlib.WORKLOADS:
            self.assertEqual(benchlib.check_rep(pinned_rep(workload), PINS),
                             [], workload)

    def test_wrong_pin_fails(self):
        for workload in benchlib.WORKLOADS:
            pins = copy.deepcopy(PINS)
            name = next(iter(pins[workload]))
            pins[workload][name]["hash"] = "0xdeadbeefdeadbeef"
            errors = benchlib.check_rep(pinned_rep(workload), pins)
            self.assertEqual(len(errors), 1, workload)
            self.assertIn("hash", errors[0])

    def test_float_pins_compare_at_four_decimals(self):
        r = pinned_rep("fig2_sweep")
        r["worlds"][0]["rps"] += 0.00004
        self.assertEqual(benchlib.check_rep(r, PINS), [])
        r["worlds"][0]["rps"] += 0.0002
        self.assertEqual(len(benchlib.check_rep(r, PINS)), 1)

    def test_failed_operations_fail_any_seed(self):
        r = pinned_rep("sharded_rubis")
        r["seed"] = 7
        self.assertEqual(benchlib.check_rep(r, PINS), [])
        r["worlds"][0]["failed"] = 3
        self.assertEqual(benchlib.check_rep(r, PINS), ["3 failed operations"])

    def test_fig2_shape_on_pinned_rows(self):
        r = pinned_rep("fig2_sweep")
        self.assertEqual(benchlib.check_fig2_shape(r), [])
        hip50 = next(w for w in r["worlds"] if w["name"] == "hip/50")
        hip50["rps"] = 1.0
        self.assertTrue(benchlib.check_fig2_shape(r))

    def test_fig2_shape_allows_ties_below_saturation(self):
        """hip_accel a few requests under hip at 10 clients (seed 107)
        passes; 5% under does not."""
        r = pinned_rep("fig2_sweep")
        worlds = {w["name"]: w for w in r["worlds"]}
        accel10 = worlds["hip_accel/10"]
        accel10["rps"] = worlds["hip/10"]["rps"] * 0.9995
        self.assertEqual(benchlib.check_fig2_shape(r), [])
        accel10["rps"] = worlds["hip/10"]["rps"] * 0.95
        self.assertEqual(benchlib.check_fig2_shape(r),
                         ["fig2: hip_accel below hip at some point"])

    def test_fig3_shape_on_pinned_paths(self):
        r = pinned_rep("path_bulk")
        self.assertEqual(benchlib.check_fig3_shape(r), [])
        r["worlds"][0]["mbps"] = 1.0  # ipv4 no longer fastest
        self.assertTrue(benchlib.check_fig3_shape(r))

    def test_hash_drift_between_reps_fails(self):
        a = pinned_rep("path_bulk")
        b = copy.deepcopy(a)
        b["traced"] = True
        self.assertEqual(benchlib.check_consistent([a, b]), [])
        b["worlds"][1]["hash"] = "0x2"
        self.assertEqual(len(benchlib.check_consistent([a, b])), 1)

    def test_wrong_pin_fails_the_run(self):
        """run.main with a corrupted pins file prints correct=false and
        exits non-zero (build and measurement replaced by a pinned rep)."""
        pins = copy.deepcopy(PINS)
        pins["path_bulk"]["ipv4"]["mbps"] = 1.0
        out = io.StringIO()
        saved = run.build, run.measure, run.PINS_PATH
        run.build = lambda: True
        run.measure = lambda *args: [pinned_rep("path_bulk")]
        try:
            with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
                json.dump(pins, f)
                f.flush()
                run.PINS_PATH = f.name
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(["--workload", "path_bulk", "--seed", "1",
                                     "--seconds", "1"])
        finally:
            run.build, run.measure, run.PINS_PATH = saved
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 8)


class CheckedInConfigurations(unittest.TestCase):
    """Where a workload reuses a checked-in configuration, its pins must
    equal the checked-in numbers."""

    def test_fig2_pins_equal_bench_fig2(self):
        path = os.path.join(ROOT, "BENCH_fig2.json")
        if not os.path.exists(path):
            self.skipTest("BENCH_fig2.json not in this checkout")
        with open(path) as f:
            rows = json.load(f)["rows"]
        for row in rows:
            for arm in benchlib.ARMS:
                pin = PINS["fig2_sweep"][f"{arm}/{row['clients']}"]
                self.assertEqual(pin["rps"], row["throughput_rps"][arm])
                self.assertEqual(pin["latency_ms"], row["latency_ms"][arm])

    def test_sharded_pin_equals_bench_scale(self):
        path = os.path.join(ROOT, "BENCH_scale.json")
        if not os.path.exists(path):
            self.skipTest("BENCH_scale.json not in this checkout")
        with open(path) as f:
            point = next(p for p in json.load(f)["rubis"]
                         if p["total_clients"] == 64)
        pin = PINS["sharded_rubis"]["sharded/64"]
        self.assertEqual(pin["hash"], point["determinism_hash"])
        self.assertEqual(pin["completed"], point["completed_requests"])
        self.assertEqual(pin["errors"], point["errors"])


if __name__ == "__main__":
    unittest.main()
