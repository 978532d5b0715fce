#!/usr/bin/env python3
"""Repository benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 55 --trace 0

The first run configures and builds the library, the `tbstc` CLI and the
harness `tbstc_perfbench` from source into .bench_build/; later runs only
check the build is current.

Workloads (see perfbench/README.md for why each exists):
  grid_cold     the Fig. 13 iso-accuracy grid, cold, in fresh processes
  serve_repeat  `tbstc serve` daemons on serve::buildMix traffic
  serve_unique  the same traffic with a fresh weight seed per request
                (runnable, but not listed in BENCHMARK.json: too noisy
                on a shared host to gate)

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace under the build directory). The last line of
standard output is the result object; the exit status is non-zero when
a correctness check failed or the run could not be made.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "tbstc_perfbench")
TBSTC = os.path.join(BUILD, "tbstc", "tools", "tbstc")
RUNS = os.path.join(BUILD, "runs")

WORKLOADS = ("grid_cold", "serve_repeat", "serve_unique")
# Host threads of the timed grid processes: one core short of a 4-core
# host, so that the harness, the kernel and the host's other work do not
# preempt the cells. The thread-invariance check uses another count.
GRID_THREADS = max(1, min(3, (os.cpu_count() or 1) - 1))
CHECK_THREADS = min(4, os.cpu_count() or 1)
if CHECK_THREADS == GRID_THREADS:
    CHECK_THREADS = max(1, GRID_THREADS - 1)
# Weight seeds per run, derived from --seed. The cost of mask search
# depends on the weights (the slowest cell moves by about 12% from seed
# to seed), so each run times every grid at several seeds.
GRID_SEEDS = 3
# Seconds of --seconds per round of GRID_SEEDS timed processes (rounded
# up: two rounds, six processes, at --seconds 55).
GRID_ROUND_S = 30
# Budget for the measured part of one run, after the build.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("run budget exhausted")
        return left


def child_env(threads=None):
    env = dict(os.environ)
    # The programs get only the generated inputs: no inherited cache
    # directory or thread override.
    env.pop("TBSTC_PROFILE_CACHE", None)
    env.pop("TBSTC_THREADS", None)
    if threads is not None:
        env["TBSTC_THREADS"] = str(threads)
    return env


def run_child(argv, deadline, env):
    """Run argv in its own process group; return (rc, stdout).

    On timeout the whole group (a serve client and its daemon) is killed
    and reaped before the error propagates.
    """
    with open(os.path.join(RUNS, "stderr.log"), "ab") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=deadline.left())
        except (subprocess.TimeoutExpired, TimeoutError):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise TimeoutError(f"{os.path.basename(argv[0])} timed out")
    return proc.returncode, out.decode(errors="replace")


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result in harness output")


# ---------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt"))):
        fail("run from the repository root: its CMakeLists.txt, src/ and "
             "perfbench/ are needed to build the programs under test")
    os.makedirs(RUNS, exist_ok=True)
    logpath = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))

    def step(argv):
        with open(logpath, "ab") as f:
            return subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=840).returncode == 0

    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "tbstc_cli",
                "tbstc_perfbench", "--parallel", jobs]
    cache = os.path.join(BUILD, "CMakeCache.txt")
    ok = (os.path.isfile(cache) or step(configure)) and step(compile_)
    if not ok and os.path.isfile(cache):
        # A cache from another checkout location: configure afresh.
        os.remove(cache)
        ok = step(configure) and step(compile_)
    if not ok or not os.path.isfile(HARNESS) or not os.path.isfile(TBSTC):
        with open(logpath, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("build failed (log: " + logpath + ")", 1)


# ---------------------------------------------------------------------
# Workloads


def grid_process(seed, threads, deadline, trace=None):
    argv = [HARNESS, "grid", "--seed", str(seed)]
    if trace:
        argv += ["--trace", trace]
    spawn_ns = time.monotonic_ns()
    rc, out = run_child(argv, deadline, child_env(threads))
    if rc != 0:
        raise RuntimeError(f"grid process exited {rc}")
    res = last_json(out)
    # Set-up: process start until the first cell is dispatched (both
    # sides read CLOCK_MONOTONIC).
    res["setup_s"] = (res["dispatch_ns"] - spawn_ns) / 1e9
    res["digests"] = [c["digest"] for c in res["cells"]]
    log(f"grid seed {seed} threads {threads}: setup {res['setup_s']:.3f} s, "
        f"wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
        f"cell p50 {res['latency_p50_ms']:.1f} ms, "
        f"p95 {res['latency_p95_ms']:.1f} ms")
    return res


def grid_seeds(seed):
    """The weight seeds of one run, a function of --seed alone."""
    return [seed * GRID_SEEDS + k for k in range(GRID_SEEDS)]


def grid_cold(seed, seconds, deadline):
    """Rounds of one fresh grid process per weight seed, then a check.

    Rounds interleave the seeds, so a slow stretch of the host falls on
    all of them alike. The host's other work only ever adds time to a
    process, so each time but setup_s is the best over the processes
    (perfbench/README.md gives the measurements behind this); setup_s
    and peak RSS are medians.
    """
    seeds = grid_seeds(seed)
    order = seeds * max(1, -(-seconds // GRID_ROUND_S))
    runs = [grid_process(s, GRID_THREADS, deadline) for s in order]
    # Thread invariance: the first seed's cells at another thread count.
    check = grid_process(seeds[0], CHECK_THREADS, deadline)
    # Every process must reproduce the first process of its seed: each
    # cell's digest and the sim_* figures.
    first = {}
    for s, r in zip(order, runs):
        first.setdefault(s, r)
    sim_keys = ("sim_speedup_geomean", "sim_edp_gain_geomean")
    failed, sim_same = 0, True
    for s, r in zip(order + seeds[:1], runs + [check]):
        failed += sum(a != b for a, b in zip(r["digests"],
                                             first[s]["digests"]))
        sim_same = sim_same and all(r[k] == first[s][k] for k in sim_keys)
    cells = len(runs[0]["digests"])

    def med(key):
        return statistics.median(r[key] for r in runs)

    def best(key):
        return min(r[key] for r in runs)

    metrics = {
        "setup_s": med("setup_s"),
        "wall_s": best("wall_s"),
        "cpu_s": best("cpu_s"),
        "peak_rss_mb": med("peak_rss_kb") / 1024.0,
        "latency_p50_ms": best("latency_p50_ms"),
        "latency_p95_ms": best("latency_p95_ms"),
        "throughput_rps": cells / best("wall_s"),
    }
    for k in sim_keys:
        metrics[k] = statistics.geometric_mean(r[k] for r in first.values())
    return metrics, cells * (len(runs) + 1), failed, sim_same


def serve_process(workload, seed, seconds, deadline, trace=None):
    argv = [HARNESS, "serve", "--tbstc", TBSTC,
            "--workload", workload.split("_")[1], "--seed", str(seed),
            "--seconds", str(seconds),
            "--log", os.path.join(RUNS, "daemon.log")]
    if trace:
        argv += ["--trace", trace]
    rc, out = run_child(argv, deadline, child_env())
    res = last_json(out)
    if rc != 0 or "error" in res:
        raise RuntimeError(f"serve harness failed: {res.get('error', rc)}")
    return res


def serve_ok(r):
    return r["daemon_drained_clean"] and r["stats_ok"] and r["load_valid"]


def serve_load(workload, seed, seconds, deadline):
    r = serve_process(workload, seed, seconds, deadline)
    metrics = {
        "setup_s": r["setup_s"],
        "wall_s": r["wall_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "latency_p50_ms": r["latency_p50_ms"],
        "latency_p95_ms": r["latency_p95_ms"],
        "throughput_rps": r["throughput_rps"],
        "sim_speedup_geomean": r["sim_speedup_geomean"],
        "sim_edp_gain_geomean": r["sim_edp_gain_geomean"],
    }
    return metrics, r["attempted"], r["failed"], serve_ok(r)


# ---------------------------------------------------------------------
# Traced run


def traced(workload, seed, seconds, deadline):
    """The traced run; per-layer metrics.

    On grid_cold an untraced process runs first: spans are recorded while
    the cells run, so trace.overhead_ratio is traced over untraced wall
    time. The serve client records its spans only after the measured
    phases, so the serve workloads have no overhead to measure and run
    once.
    """
    trace = os.path.join(RUNS, f"trace-{workload}-{seed}.json")
    if workload == "grid_cold":
        first = grid_seeds(seed)[0]
        plain = grid_process(first, GRID_THREADS, deadline)
        res = grid_process(first, GRID_THREADS, deadline, trace)
        layers = dict(res["layers"])
        layers["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
        failed = sum(a != b for a, b in zip(res["digests"], plain["digests"]))
        attempted = 2 * len(plain["digests"])
        ok = True
    else:
        res = serve_process(workload, seed, seconds, deadline, trace)
        layers = dict(res["layers"])
        failed, attempted, ok = res["failed"], res["attempted"], serve_ok(res)
    log(f"chrome trace: {trace}")
    return layers, attempted, failed, ok


# ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    build()

    deadline = Deadline(RUN_BUDGET_S)
    rc, _ = run_child([HARNESS, "selftest"], deadline, child_env())
    selftest_ok = rc == 0

    if args.trace:
        values, attempted, failed, ok = traced(
            args.workload, args.seed, args.seconds, deadline)
        declared = spec["per_layer"]
    else:
        if args.workload == "grid_cold":
            values, attempted, failed, ok = grid_cold(
                args.seed, args.seconds, deadline)
        else:
            values, attempted, failed, ok = serve_load(
                args.workload, args.seed, args.seconds, deadline)
        declared = spec["end_to_end"]

    # Every declared metric is printed; a per-layer metric the workload
    # does not exercise reads 0 and is listed here.
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        log(f"not exercised by {args.workload} (reported as 0): "
            + ", ".join(absent))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    correct = bool(selftest_ok and ok and failed == 0)
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, ValueError, OSError) as e:
        fail(str(e), 1)
