"""Statistics, correctness checks and metric derivation for perfbench.

Everything here works on the JSON records perfbench_driver prints (one
record per repetition, see driver.cpp) and, apart from reading the metric
names from BENCHMARK.json on import, has no side effects, so
tests/test_benchlib.py can drive it with hand-built inputs.
"""

import json
import math
import os
import statistics

ARMS = ("basic", "hip", "ssl", "hip_accel")
FIG2_CLIENTS = (2, 3, 4, 6, 10, 20, 30, 50)
PATHS = ("ipv4", "hit", "lsi", "hit_teredo")

# Workload and metric names with their units, as BENCHMARK.json lists them.
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# --- statistics ---------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(values, min_beyond=10, ladder=(99.9, 99, 95, 90, 75, 50)):
    """The highest percentile of `ladder` with at least `min_beyond`
    samples above it, as (percentile, value); None when even the median
    has fewer. Percentiles use the nearest-rank rule."""
    ordered = sorted(values)
    n = len(ordered)
    for p in ladder:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def div(a, b):
    """a / b, or 0 when b is 0 (a metric of work that did not happen)."""
    return a / b if b else 0.0


# --- derived per-layer ratios ----------------------------------------------

def us_per_req_over_basic(run_s, completed, basic_run_s, basic_completed):
    """Host microseconds per completed request an arm spends beyond the
    basic arm: the cost of its security layer measured from outside."""
    return 1e6 * (div(run_s, completed) - div(basic_run_s, basic_completed))


def barrier_wait_share(wait_s, workers, run_s):
    """Share of the workers' run time spent parked at barriers."""
    return div(wait_s, workers * run_s)


def workspan_bound(shard_events, workers):
    """Total events over the busiest worker's events, with shard s owned
    by worker s % workers (the coordinator's assignment)."""
    per_worker = [0] * workers
    for shard, events in enumerate(shard_events):
        per_worker[shard % workers] += events
    return div(sum(shard_events), max(per_worker))


def ns_per_unit(seconds, units):
    return 1e9 * div(seconds, units)


# --- end-to-end metrics -------------------------------------------------------

def rep_totals(rep):
    """End-to-end numbers of one repetition."""
    worlds = rep["worlds"]
    return {
        "wall_s": rep["wall_s"],
        "setup_s": sum(w["setup_s"] for w in worlds),
        "run_s": sum(w["run_s"] for w in worlds),
        "cpu_s": rep["cpu_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def end_to_end(reps):
    """Median of each end-to-end metric over the repetitions."""
    totals = [rep_totals(rep) for rep in reps]
    return {name: median([t[name] for t in totals]) for name in END_TO_END}


# --- per-layer metrics -------------------------------------------------------

def _total(worlds, key):
    return sum(w.get(key, 0) for w in worlds)


def _counters(rep):
    """Per-layer metrics read from public counters; identical in every
    repetition of one seed, so any untraced repetition gives them."""
    ws = rep["worlds"]
    scheduled = _total(ws, "events_scheduled")
    esp_worlds = [w for w in ws if w.get("esp_packets", 0) > 0]
    m = {
        "sim.events_fired": _total(ws, "events_fired"),
        "sim.events_cancelled": _total(ws, "events_cancelled"),
        "sim.cancel_ratio": div(_total(ws, "events_cancelled"), scheduled),
        "shard.epochs": _total(ws, "epochs"),
        "shard.events_per_epoch": div(_total(ws, "events_fired"),
                                      _total(ws, "epochs")),
        "net.packets_delivered": _total(ws, "packets_delivered"),
        "net.pool_misses_per_packet": div(_total(ws, "pool_misses"),
                                          _total(ws, "packets_delivered")),
        "net.bytes_copied": _total(ws, "bytes_copied"),
        "hip.bex_completed": _total(ws, "bex_completed"),
        "hip.esp_packets": _total(ws, "esp_packets"),
        "hip.esp_bytes_per_packet": div(_total(ws, "esp_bytes"),
                                        _total(ws, "esp_packets")),
        "hip.esp_packets_per_req": div(_total(esp_worlds, "esp_packets"),
                                       _total(esp_worlds, "completed")),
        "apps.db_queries_per_req": div(_total(ws, "db_queries"),
                                       _total(ws, "completed")),
        "apps.db_cache_hit_ratio": div(_total(ws, "db_cache_hits"),
                                       _total(ws, "db_queries")),
        "apps.proxy_retries": _total(ws, "proxy_retries"),
        "apps.proxy_errors": _total(ws, "proxy_errors"),
        "failed_share": div(_total(ws, "failed"), _total(ws, "attempted")),
    }
    return m


def _run_phase(rep):
    """Engine cost of the run phase as a whole. It comes from untraced
    repetitions: the traced run enters the event loop once per slice,
    which would add the tracer's cost to it."""
    ws = rep["worlds"]
    return {"sim.ns_per_event": ns_per_unit(_total(ws, "run_s"),
                                            _total(ws, "run_events"))}


def _parallel(rep):
    """Coordinator metrics of an untraced repetition run on several
    workers."""
    m = {}
    for w in rep["worlds"]:
        if "shard_events" in w:
            workers = int(w["workers"])
            m["shard.barrier_wait_share"] = barrier_wait_share(
                w["barrier_wait_s"], workers, w["run_s"])
            m["shard.workspan_bound"] = workspan_bound(w["shard_events"],
                                                       workers)
    return m


def _spans(rep):
    """Per-layer metrics derived from one traced repetition's spans."""
    ws = rep["worlds"]
    m = {}
    by_arm = {arm: [w for w in ws if w["name"].split("/")[0] == arm]
              for arm in ARMS}
    for arm, worlds in by_arm.items():
        if worlds:
            m[f"core.setup_s.{arm}"] = median([w["setup_s"] for w in worlds])
    for key in ("build_s", "warmup_s", "establish_s"):
        values = [w[key] for w in ws if key in w]
        if values:
            m[f"core.{key}"] = median(values)
    for w in ws:
        if w["name"] in PATHS:
            m[f"net.ns_per_pkt.{w['name']}"] = ns_per_unit(
                w["iperf_s"], w["iperf_packets"])
            m[f"net.us_per_echo.{w['name']}"] = 1e-3 * ns_per_unit(
                w["ping_s"], w["echoes"])
    if by_arm["basic"]:
        base = by_arm["basic"]
        for arm, name in (("hip", "hip"), ("ssl", "tls")):
            m[f"{name}.us_per_req_over_basic"] = us_per_req_over_basic(
                _total(by_arm[arm], "run_s"), _total(by_arm[arm], "completed"),
                _total(base, "run_s"), _total(base, "completed"))
    return m


def per_layer(untraced, traced, parallel=()):
    """Every per-layer metric (0 where a layer has no work on the
    workload): counters from an untraced repetition, the engine's run-phase
    cost as a median over the untraced (1-worker) repetitions, span-derived
    values as medians over the traced ones, coordinator metrics and the
    speedup over 1 worker from untraced repetitions on several workers
    (`parallel`), and the tracing overhead from wall times."""
    m = {name: 0.0 for name in PER_LAYER}
    m.update(_counters(untraced[0]))
    for reps, derive in ((untraced, _run_phase), (traced, _spans),
                         (parallel, _parallel)):
        per_rep = [derive(rep) for rep in reps]
        for name in (per_rep[0] if per_rep else ()):
            m[name] = median([values[name] for values in per_rep])
    if parallel:
        m["shard.speedup_vs_1w"] = div(
            median([rep_totals(r)["run_s"] for r in untraced]),
            median([rep_totals(r)["run_s"] for r in parallel]))
    m["trace.overhead_share"] = div(
        median([r["wall_s"] for r in traced]),
        median([r["wall_s"] for r in untraced])) - 1.0
    return m


# --- trace summary ------------------------------------------------------------

def span_summary(reps):
    """Per span name: sample count, median duration and the highest
    percentile with at least ten samples beyond it."""
    durations = {}
    for rep in reps:
        for w in rep["worlds"]:
            for _, _, name, start, end, _ in w.get("spans", ()):
                durations.setdefault(name, []).append(end - start)
    summary = {}
    for name, values in sorted(durations.items()):
        tail = tail_percentile(values)
        summary[name] = {
            "n": len(values),
            "median_s": median(values),
            "tail": None if tail is None else {"p": tail[0], "s": tail[1]},
        }
    return summary


# --- correctness --------------------------------------------------------------

def check_pins(rep, pins):
    """Mismatches between one repetition's simulated outputs and the
    pinned values for its workload. Floats are pinned to 4 decimals."""
    want = pins[rep["workload"]]
    got = {w["name"]: w for w in rep["worlds"]}
    errors = []
    if sorted(got) != sorted(want):
        errors.append(f"worlds {sorted(got)} != pinned {sorted(want)}")
    for name, fields in sorted(want.items()):
        if name not in got:
            continue
        for key, value in sorted(fields.items()):
            have = got[name].get(key)
            if isinstance(value, float) and have is not None:
                have = round(have, 4)
            if have != value:
                errors.append(f"{name}.{key} = {have}, pinned {value}")
    return errors


# Below saturation the arms are latency-bound and complete within a few
# requests of each other (seed 107: hip_accel 3930 against hip 3932 at 10
# clients), so "at every point" orderings allow this relative slack.
FIG2_TIE = 0.01


def check_fig2_shape(rep):
    """The paper's Fig. 2 findings plus the hip_accel arm's crossover
    shift (the checks bench/fig2_common.hpp prints), with the pointwise
    orderings allowed FIG2_TIE of slack."""
    rps = {arm: {} for arm in ARMS}
    for w in rep["worlds"]:
        arm, clients = w["name"].split("/")
        rps[arm][int(clients)] = w["rps"]
    errors = []
    for c in FIG2_CLIENTS:
        if any(c not in rps[arm] for arm in ARMS):
            return [f"fig2: missing worlds at {c} clients"]
    basic, hip, ssl, accel = (rps[arm] for arm in ARMS)
    tie = 1.0 - FIG2_TIE
    if any(basic[c] < tie * max(hip[c], ssl[c]) for c in FIG2_CLIENTS):
        errors.append("fig2: basic is not the highest at every point")
    if any(abs(hip[c] - ssl[c]) > 0.12 * max(hip[c], ssl[c])
           for c in FIG2_CLIENTS if c <= 20):
        errors.append("fig2: HIP not within 12% of SSL up to 20 clients")
    if not ssl[50] * 0.7 < hip[50] < ssl[50]:
        errors.append("fig2: HIP not slightly below SSL at 50 clients")
    if not basic[50] > 1.1 * ssl[50]:
        errors.append("fig2: basic does not surge ahead at 50 clients")
    if any(accel[c] < tie * hip[c] for c in FIG2_CLIENTS):
        errors.append("fig2: hip_accel below hip at some point")
    if not ssl[50] - accel[50] < 0.5 * (ssl[50] - hip[50]):
        errors.append("fig2: acceleration does not halve the SSL-HIP gap")
    return errors


def check_fig3_shape(rep):
    """The paper's Fig. 3 findings on the four measured paths."""
    got = {w["name"]: w for w in rep["worlds"]}
    if any(p not in got for p in PATHS):
        return ["fig3: missing paths"]
    mbps = {p: got[p]["mbps"] for p in PATHS}
    rtt = {p: got[p]["rtt_ms"] for p in PATHS}
    errors = []
    if not mbps["ipv4"] > mbps["hit"] >= mbps["lsi"]:
        errors.append("fig3: bandwidth not ipv4 > hit >= lsi")
    if not rtt["lsi"] > rtt["hit"]:
        errors.append("fig3: LSI RTT not above HIT RTT")
    if not rtt["hit_teredo"] > rtt["hit"]:
        errors.append("fig3: Teredo RTT not above HIT RTT")
    if not mbps["hit_teredo"] < mbps["hit"]:
        errors.append("fig3: Teredo bandwidth not below HIT")
    return errors


def check_rep(rep, pins):
    """Correctness of one repetition: exact pins for the pinned seed;
    otherwise the paper shape checks. Never a failed operation."""
    errors = []
    failed = _total(rep["worlds"], "failed")
    if failed:
        errors.append(f"{failed} failed operations")
    if _total(rep["worlds"], "attempted") < 1:
        errors.append("no operations attempted")
    if rep["seed"] == pins["seed"]:
        return errors + check_pins(rep, pins)
    if rep["workload"] == "fig2_sweep":
        errors += check_fig2_shape(rep)
    elif rep["workload"] == "path_bulk":
        errors += check_fig3_shape(rep)
    return errors


def check_consistent(reps):
    """Every repetition of one seed (traced or not, any worker count)
    must produce the same worlds with the same hashes and counts."""
    errors = []
    first = {w["name"]: w for w in reps[0]["worlds"]}
    for i, rep in enumerate(reps[1:], start=1):
        for w in rep["worlds"]:
            ref = first.get(w["name"])
            for key in ("hash", "completed", "attempted"):
                if ref is None or ref.get(key) != w.get(key):
                    errors.append(
                        f"rep {i} ({'traced' if rep['traced'] else 'untraced'}, "
                        f"{rep['workers']} workers) {w['name']}.{key} = "
                        f"{w.get(key)}, rep 0 has "
                        f"{None if ref is None else ref.get(key)}")
    return errors
