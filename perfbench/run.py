#!/usr/bin/env python3
"""perfbench: host-cost benchmark for hipcloud.

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench_driver from source into
.bench_build/, then runs repetitions of the workload (each one a fresh
driver process) for --seconds, checks every repetition's simulated
outputs, and prints the metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics from untraced repetitions; --trace 1 alternates
untraced and traced repetitions, reports the per-layer metrics and writes
the spans to .bench_build/trace/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
PINS_PATH = os.path.join(HERE, "pins.json")
# sharded_rubis worker threads. Timed repetitions run on one worker: at
# two, every barrier hand-off stalls while the host deschedules either
# thread, and run_s followed the host's load rather than the program
# (README.md, "Noise and bounds"). The traced cycle adds untraced
# repetitions on PARALLEL_WORKERS for the coordinator metrics.
WORKERS = 1
PARALLEL_WORKERS = 2
MIN_REPS = 3
REP_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; False (with the log on stderr) when
    the sources are missing or do not compile."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no src/ next to {HERE}; run from a full checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench_driver",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(os.path.join(BUILD, "build.log")) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed")
                return False
    return True


def run_rep(workload, seed, traced, workers):
    cmd = [DRIVER, workload, "--seed", str(seed), "--workers", str(workers)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def variants(workload, trace):
    """The repetition cycle: (traced, workers) pairs run in turn."""
    if not trace:
        return [(False, WORKERS)]
    cycle = [(False, WORKERS), (True, WORKERS)]
    if workload == "sharded_rubis":
        cycle.append((False, PARALLEL_WORKERS))
    return cycle


def measure(workload, seed, seconds, trace):
    """Closed loop at the host level: the next repetition starts when the
    previous one ends, until the next would overrun `seconds`."""
    cycle = variants(workload, trace)
    min_reps = max(MIN_REPS if not trace else 0, len(cycle))
    reps, durations = [], []
    deadline = time.monotonic() + seconds
    while True:
        traced, workers = cycle[len(reps) % len(cycle)]
        t0 = time.monotonic()
        reps.append(run_rep(workload, seed, traced, workers))
        durations.append(time.monotonic() - t0)
        if (len(reps) >= min_reps and
                time.monotonic() + benchlib.median(durations) > deadline):
            return reps


def write_trace(workload, seed, reps, metrics):
    """Spans of the traced repetitions plus their summary, for reading
    where host time went (README.md, "Reading the trace")."""
    traced = [r for r in reps if r["traced"]]
    out_dir = os.path.join(BUILD, "trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": workload,
            "seed": seed,
            "facts": reps[0]["facts"],
            "per_layer": metrics,
            "span_summary": benchlib.span_summary(traced),
            "reps": [{"wall_s": r["wall_s"],
                      "worlds": [{"name": w["name"], "spans": w["spans"]}
                                 for w in r["worlds"]]} for r in traced],
        }, f)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(PINS_PATH) as f:
        pins = json.load(f)
    if not build():
        return 2
    reps = measure(args.workload, args.seed, args.seconds, args.trace)

    errors = benchlib.check_consistent(reps)
    for rep in reps:
        errors += benchlib.check_rep(rep, pins)
    untraced = [r for r in reps if not r["traced"] and r["workers"] == WORKERS]
    if args.trace:
        metrics = benchlib.per_layer(
            untraced, [r for r in reps if r["traced"]],
            [r for r in reps if r["workers"] == PARALLEL_WORKERS])
        units = benchlib.PER_LAYER
        log(f"trace: {write_trace(args.workload, args.seed, reps, metrics)}")
    else:
        metrics = benchlib.end_to_end(untraced)
        units = benchlib.END_TO_END

    facts = reps[0]["facts"]
    print(f"perfbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"threads={reps[0]['threads']} workers={WORKERS} {json.dumps(facts)}")
    totals = [benchlib.rep_totals(r) for r in untraced]
    for name, value in metrics.items():
        line = f"  {name:32s} {value:14.6g} {units[name]}"
        if not args.trace:
            q1, q3 = benchlib.quartiles([t[name] for t in totals])
            line += f"  (median of {len(totals)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    for err in errors:
        log(f"perfbench: INCORRECT: {err}")
    attempted = sum(w["attempted"] for r in reps for w in r["worlds"])
    failed = sum(w["failed"] for r in reps for w in r["worlds"])
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
