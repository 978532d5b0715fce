#!/usr/bin/env python3
"""Compare a bench_kernels --json run against a checked-in baseline.

Both files are google-benchmark JSON (the --json flag of bench_kernels
translates to --benchmark_out). Raw nanosecond times are not comparable
across machines, so the check is *relative*: every benchmark's
current/baseline cpu_time ratio is divided by a machine-speed factor,
and a benchmark fails only when it is more than --tolerance slower than
the fleet after that normalization. A uniform slowdown (slower CI
runner) therefore passes; one kernel regressing against its peers fails.

The machine-speed factor is a robust median: ratios further than
OUTLIER_MADS scaled median absolute deviations (in log space) from the
median of all ratios are dropped, and the median of the rest is the
factor. A change that speeds up a handful of kernels severalfold
therefore does not drag the factor down and fail the untouched ones,
and a regressed kernel does not pull the factor up to hide itself.

Baselines are keyed by kernel ISA: kernel timings under AVX-512 are not
comparable to a scalar-only runner, so when BASELINE is a *directory*
the script reads the active ISA from the current run's
context.tbstc_isa field (bench_kernels records it via
AddCustomContext) and picks '<dir>/bench_kernels-<isa>.json'. Passing a
file keeps the old behavior, but the ISAs recorded in both files must
then match.

Exit codes: 0 ok, 1 regression found, 2 bad input.
"""

import argparse
import json
import math
import os
import statistics
import sys

# Ratios beyond this many scaled MADs from the median do not inform the
# machine-speed factor (3 is the usual robust-statistics cutoff).
OUTLIER_MADS = 3.0
# Floor on that band, as a log ratio: when nearly every ratio is equal
# the MAD is ~0 and would otherwise drop ordinary timing noise.
MIN_BAND = math.log(1.10)


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: cannot read '{path}': {e}", file=sys.stderr)
        sys.exit(2)


def doc_isa(doc):
    """The kernel ISA the run was taken under, or None for old files."""
    return doc.get("context", {}).get("tbstc_isa")


def doc_times(doc, path):
    """benchmark name -> cpu_time (ns) from a google-benchmark JSON.

    With --benchmark_repetitions the same name appears once per
    repetition; the minimum is used because timing noise on a shared
    runner is one-sided (contention only ever adds time), so the
    fastest repetition is the best estimate of true cost. Noisy
    runners should pass repetitions rather than widen the tolerance.
    """
    samples = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        samples.setdefault(b["name"], []).append(float(b["cpu_time"]))
    if not samples:
        print(f"check_perf: no benchmarks in '{path}'", file=sys.stderr)
        sys.exit(2)
    return {n: min(v) for n, v in samples.items()}


def resolve_baseline(baseline_arg, current_isa, prefix):
    """Map a baseline directory to its per-ISA file; pass files through."""
    if not os.path.isdir(baseline_arg):
        return baseline_arg
    if current_isa is None:
        print("check_perf: baseline is a directory but the current run "
              f"has no context.tbstc_isa field ({prefix} too old?)",
              file=sys.stderr)
        sys.exit(2)
    path = os.path.join(baseline_arg, f"{prefix}-{current_isa}.json")
    if not os.path.isfile(path):
        have = sorted(n[len(prefix) + 1:-len(".json")]
                      for n in os.listdir(baseline_arg)
                      if n.startswith(prefix + "-") and
                      n.endswith(".json"))
        print(f"check_perf: no baseline for ISA '{current_isa}' "
              f"(missing {path})\n"
              f"check_perf: available ISAs: {', '.join(have) or 'none'}\n"
              f"check_perf: record one on this machine with: "
              f"{prefix} --json run.json && "
              f"tools/make_baseline.py run.json -o {path}",
              file=sys.stderr)
        sys.exit(2)
    print(f"check_perf: ISA '{current_isa}' -> baseline {path}")
    return path


def machine_speed(ratios):
    """Robust machine-speed factor over current/baseline ratios.

    Returns (factor, number of ratios it was taken over).
    """
    logs = [math.log(r) for r in ratios if r > 0]
    center = statistics.median(logs)
    mad = statistics.median(abs(x - center) for x in logs)
    # 1.4826 * MAD estimates the standard deviation of normal noise.
    band = max(OUTLIER_MADS * 1.4826 * mad, MIN_BAND)
    inliers = [x for x in logs if abs(x - center) <= band]
    return math.exp(statistics.median(inliers)), len(inliers)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="fresh bench_kernels JSON")
    ap.add_argument("baseline",
                    help="baseline JSON file, or a directory of per-ISA "
                         "baselines (bench_kernels-<isa>.json)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed normalized slowdown (default 0.25)")
    ap.add_argument("--prefix", default="bench_kernels",
                    help="baseline filename prefix when BASELINE is a "
                         "directory: <prefix>-<isa>.json (default "
                         "bench_kernels; use bench_serve for the serve "
                         "daemon benchmarks)")
    args = ap.parse_args()

    current_doc = load_doc(args.current)
    current_isa = doc_isa(current_doc)
    baseline_path = resolve_baseline(args.baseline, current_isa,
                                     args.prefix)
    baseline_doc = load_doc(baseline_path)
    baseline_isa = doc_isa(baseline_doc)

    if current_isa and baseline_isa and current_isa != baseline_isa:
        print(f"check_perf: ISA mismatch: current run used "
              f"'{current_isa}' but baseline '{baseline_path}' was taken "
              f"under '{baseline_isa}'", file=sys.stderr)
        return 2

    current = doc_times(current_doc, args.current)
    baseline = doc_times(baseline_doc, baseline_path)

    shared = sorted(set(current) & set(baseline))
    if not shared:
        print("check_perf: no shared benchmarks", file=sys.stderr)
        return 2
    for name in sorted(set(baseline) - set(current)):
        print(f"check_perf: WARNING baseline-only benchmark: {name}")
    for name in sorted(set(current) - set(baseline)):
        print(f"check_perf: note: not in baseline (skipped): {name}")

    ratios = {n: current[n] / baseline[n] for n in shared}
    scale, used = machine_speed(ratios.values())
    print(f"check_perf: machine-speed factor {scale:.3f} "
          f"(median of {used} of {len(shared)} benchmarks, outliers "
          f"dropped)")

    failed = []
    for name in shared:
        normalized = ratios[name] / scale
        status = "ok"
        if normalized > 1.0 + args.tolerance:
            status = "REGRESSION"
            failed.append(name)
        print(f"  {name:40s} {current[name]:14.1f}ns "
              f"vs {baseline[name]:14.1f}ns "
              f"normalized {normalized:6.3f}  {status}")

    if failed:
        print(f"check_perf: {len(failed)} benchmark(s) regressed "
              f">{args.tolerance:.0%} vs baseline: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"check_perf: all {len(shared)} shared benchmarks within "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
