"""foldlang benchmark: member, pump and enum workloads.

    python3 benchmarks/run.py --workload member --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each workload runs in fresh child processes (child.py), one after the
other: one client, one thread, a closed loop.  With --trace 0 the run
uses CHILDREN processes that each set up and then split --seconds, and
it reports the end-to-end metrics.  With --trace 1 it runs the same ops
once untraced and once traced, half of --seconds each, and reports the
per-layer metrics, the tracing overhead, the per-op reconciliation and
the share of op time that no span covers.
Every output is checked against reference.py after the timed loops.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per untraced run; setup_s is their median.
CHILDREN = 3

#: Whole runs must end within this many seconds.
RUN_BUDGET_S = 170

#: child.calibrate()'s time at the reference machine speed.  The speed of
#: a machine shared with other load drifts by 10-25% over minutes, and
#: foldlang's ops slow down with it.  So every time a child reports is
#: multiplied by REFERENCE_CALIBRATION_S / (its median calibration time),
#: which cancels most of that drift between runs.  The report also prints
#: the unscaled values.
REFERENCE_CALIBRATION_S = 0.005


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of the values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn(workload, ops, round_size, offset, seconds, trace, spans_path, deadline):
    """Run one child to completion and return its parsed result."""
    job = {"workload": workload, "ops": ops, "round_size": round_size,
           "rss_rounds": workloads.RSS_ROUNDS[workload], "offset": offset,
           "seconds": seconds, "trace": trace, "spans_path": spans_path,
           "t_spawn": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def judge(checker, ops, result):
    """Per-op problems (None = correct) for one child's outcomes."""
    return [checker.problem(ops[i], outcome)
            for i, outcome in zip(result["indices"], result["outcomes"])]


def speed_factor(result) -> float:
    return REFERENCE_CALIBRATION_S / result["calibration_s"]


def end_to_end(results, problems, seconds, scaled=True):
    """The six end-to-end metrics: name -> (value, unit, samples).  Times
    are at the reference machine speed unless scaled is False."""
    factors = [speed_factor(r) if scaled else 1.0 for r in results]
    ops = sum(len(r["latencies"]) for r in results)
    loop_s = sum(r["loop_s"] * f for r, f in zip(results, factors))
    # A failed op ranks above every success.
    ranked = [math.inf if p else lat * f for r, ps, f in zip(results, problems, factors)
              for lat, p in zip(r["latencies"], ps)]
    failed = sum(1 for ps in problems for p in ps if p)

    def ms(q):
        value = percentile(ranked, q)
        return (value if value != math.inf else seconds) * 1000

    return {
        "ops_per_s": (ops / loop_s, "ops/s", ops),
        "latency_p50_ms": (ms(0.5), "ms", ops),
        "latency_p90_ms": (ms(0.9), "ms", ops),
        "setup_s": (statistics.median(r["setup_s"] * f for r, f in zip(results, factors)),
                    "s", len(results)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB", len(results)),
        "failed_ratio": (failed / ops, "-", ops),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print the report and the JSON result line."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    checker = workloads.Checker()
    ops, round_size = checker.generate(workload, seed)
    OUT.mkdir(exist_ok=True)
    if trace:
        spans_path = str(OUT / f"spans-{workload}-seed{seed}.jsonl")
        results = [spawn(workload, ops, round_size, 0, seconds / 2, False, None, deadline),
                   spawn(workload, ops, round_size, 0, seconds / 2, True, spans_path,
                         deadline)]
    else:
        rounds = len(ops) // round_size
        results = [spawn(workload, ops, round_size, k * rounds // CHILDREN * round_size,
                         seconds / CHILDREN, False, None, deadline)
                   for k in range(CHILDREN)]
    problems = [judge(checker, ops, r) for r in results]
    attempted = sum(len(ps) for ps in problems)
    failed = sum(1 for ps in problems for p in ps if p)
    for p in sorted({p for ps in problems for p in ps if p})[:10]:
        print(f"FAILED: {p}", file=sys.stderr)

    print(f"== {workload}  seed={seed}  {len(results)} processes x 1 client, "
          f"closed loop, {seconds:g} s measured")
    correct = failed == 0
    if not trace:
        e2e = end_to_end(results, problems, seconds)
        for name, (value, unit, n) in e2e.items():
            print(f"  {name:<16} {value:>12.4f} {unit:<6} (n={n})")
        raw = end_to_end(results, problems, seconds, scaled=False)
        print("  unscaled: " + ", ".join(
            f"{name}={raw[name][0]:.4g}"
            for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, n) in e2e.items() if name != "failed_ratio"}
    else:
        summary = results[1]["trace"]
        untraced_rate = (len(results[0]["latencies"])
                         / (results[0]["loop_s"] * speed_factor(results[0])))
        factor = speed_factor(results[1])
        traced_rate = len(results[1]["latencies"]) / (results[1]["loop_s"] * factor)
        layer = {name: (value * factor if unit in ("s", "s/op") else value, unit)
                 for name, (value, unit) in summary["metrics"].items()}
        layer["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
        ops_traced = len(results[1]["latencies"])
        for name, (value, unit) in layer.items():
            print(f"  {name:<42} {value:>14.6g} {unit}")
        print(f"  per-op self time by layer (s/op, {ops_traced} traced ops): "
              + ", ".join(f"{k}={v * factor:.3g}" for k, v in summary["layer_self_s"].items())
              + f", unspanned={summary['unspanned_s'] * factor:.3g}")
        bad = summary["unreconciled"]
        print(f"  reconciliation (the tracer's own arithmetic): "
              f"{ops_traced - len([b for b in bad if b >= 0])}/"
              f"{ops_traced} ops have layer self times + unspanned == wall time"
              + ("" if not bad else f"; failed for ops {bad[:10]}"))
        share = layer["trace.unspanned_share"][0]
        attributed = share <= tracing.UNSPANNED_LIMIT
        print(f"  attribution: {share:.3%} of traced op time lies in no span, limit "
              f"{tracing.UNSPANNED_LIMIT:.0%}" + ("" if attributed else " -- OVER THE LIMIT"))
        print(f"  tracing overhead: traced/untraced ops_per_s = "
              f"{traced_rate:.2f}/{untraced_rate:.2f} = {traced_rate / untraced_rate:.3f}")
        correct = correct and not bad and attributed
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    print("  machine speed: calibration " + ", ".join(
        f"{r['calibration_s'] * 1000:.2f}" for r in results)
        + f" ms per process against {REFERENCE_CALIBRATION_S * 1000:g} ms; "
        "times above are scaled to the reference")
    cache = [r["cache"] for r in results]
    print(f"  RegularLang.enumerate_length cache in the timed loops: "
          f"{sum(c['hits'] for c in cache)} hits, {sum(c['misses'] for c in cache)} misses, "
          f"up to {max(c['entries'] for c in cache)} entries held by one process")
    print(f"  checked {attempted} outputs against the reference: {failed} failed; "
          f"wall {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foldlang" / "__init__.py").is_file():
        print(f"error: no foldlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            run_workload(workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
