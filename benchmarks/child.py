"""One workload process: set up, run the timed closed loop, report.

Started by run.py with a JSON job on stdin; prints one JSON result on
stdout.  A single client sends each op when the previous one returns.
foldlang is imported from the checkout's src/; run.py never imports it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


#: Iterations of the calibration loop: about 5 ms of pure-Python integer
#: work, independent of foldlang.
CALIBRATION_LOOPS = 60_000


def calibrate() -> float:
    """Time one pass of a fixed loop; it measures the machine's current
    speed, which drifts with load from outside the process."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def import_foldlang():
    sys.path.insert(0, str(ROOT / "src"))
    import foldlang
    import foldlang.cli
    if Path(foldlang.__file__).resolve().parent != ROOT / "src" / "foldlang":
        raise ImportError(f"foldlang imported from {foldlang.__file__}, not the checkout")
    return foldlang


class Runner:
    """Executes ops against the public API.  Calls go through module
    attributes (`fsystem.fs_member`, `cli.run`) so a tracer's wrappers
    see them."""

    def __init__(self, foldlang, workload):
        self.fl = foldlang
        self.systems = {}
        if workload == "member":
            # Build each system once, then one untimed warm-up pass fills
            # the enumeration caches for every queried length.
            for stem, lengths in workloads.MEMBER_LENGTHS.items():
                phi = foldlang.fsystem.load_spec(workloads.spec_path(stem))
                self.systems[stem] = phi
                for n in lengths:
                    phi.core.enumerate_length(n)
                    phi.proc.enumerate_length(n)

    def prepare(self, op):
        """Untimed: turn an op into the arguments of its timed call."""
        if op[0] == "finite":
            return op[0], workloads.finite_words(op[1], op[2])
        if op[0] == "member":
            return op[0], (self.systems[op[1]], op[2])
        path = str(workloads.spec_path(op[1]))
        if op[0] == "pump":
            return op[0], ["pump", path, "--imax", str(op[2]), "--json"]
        return op[0], ["enum", path, "--max-len", str(op[2])]

    def execute(self, kind, args):
        """Timed: one call; returns a JSON-able outcome."""
        fsystem = self.fl.fsystem
        if kind == "member":
            return fsystem.fs_member(*args)
        if kind == "finite":
            phi = fsystem.finite_language_system(args)
            out = fsystem.fs_enumerate(phi, max(map(len, args)))
            return workloads.digest("\n".join(out))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = self.fl.cli.run(args)
        if kind == "pump":
            return [rc, json.loads(stdout.getvalue()) if rc == 0 else None]
        return [rc, workloads.digest(stdout.getvalue())]


def main() -> int:
    job = json.load(sys.stdin)
    foldlang = import_foldlang()
    lru = foldlang.regular.RegularLang.enumerate_length
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install(foldlang)
    ops = job["ops"]
    runner = Runner(foldlang, job["workload"])

    first = time.monotonic()
    setup_s = first - job["t_spawn"]
    cache0 = lru.cache_info()
    deadline = time.perf_counter() + job["seconds"]
    latencies, outcomes, indices, windows = [], [], [], {}
    rounds = 0
    rss_mb = None
    calibrations = []
    untimed = 0.0
    loop_start = time.perf_counter()
    i = job["offset"]
    while True:
        p0 = time.perf_counter()
        if (i - job["offset"]) % job["round_size"] == 0:
            calibrations.append(calibrate())
        op = ops[i % len(ops)]
        kind, args = runner.prepare(op)
        if tracer is not None:
            tracer.op = len(latencies)
        t0 = time.perf_counter()
        untimed += t0 - p0
        try:
            outcome = runner.execute(kind, args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        windows[len(latencies)] = (t0, t1)
        latencies.append(t1 - t0)
        outcomes.append(outcome)
        indices.append(i % len(ops))
        i += 1
        if (i - job["offset"]) % job["round_size"]:
            continue
        rounds += 1
        if rounds == job["rss_rounds"]:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if t1 >= deadline and rounds >= job["rss_rounds"]:
            break
    loop_s = time.perf_counter() - loop_start - untimed
    cache1 = lru.cache_info()
    hits, misses = cache1.hits - cache0.hits, cache1.misses - cache0.misses
    result = {
        "setup_s": setup_s, "loop_s": loop_s, "rss_mb": rss_mb,
        "calibration_s": statistics.median(calibrations),
        "latencies": latencies, "outcomes": outcomes, "indices": indices,
        "cache": {"hits": hits, "misses": misses, "entries": cache1.currsize},
    }
    if tracer is not None:
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        result["trace"] = tracing.summarize(tracer.spans, windows, len(latencies), hit_ratio)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
