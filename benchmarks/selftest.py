"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

1. On every corpus system, at lengths <= 8: the reference's slices equal
   foldlang's and a brute-force filter of all strings; its listing equals
   fs_enumerate; its membership verdict equals fs_member on a seeded
   sample of strings; and the closed forms, where they exist, agree.
2. A short smoke run of each workload, untraced and traced, finishes
   with every output correct, the trace reconciled and its un-spanned
   share within tracing.UNSPANNED_LIMIT.

Exits 0 when everything passes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import child
import reference
import workloads

MAX_LEN = 8
#: Seed of the reference sample and of the smoke runs.
SEED = 1
SAMPLES_PER_LENGTH = 24


def check_reference(foldlang) -> list[str]:
    rng = random.Random(SEED)
    problems = []
    for path in sorted(workloads.CORPUS.glob("*.fsys")):
        stem = path.stem
        ref = reference.System(path.read_text())
        phi = foldlang.fsystem.load_spec(path)
        for side, symbols in (("core", ref.alphabet), ("proc", ["u", "d"])):
            lang, flang = getattr(ref, side), getattr(phi, side)
            for n in range(MAX_LEN + 1):
                brute = {w for w in reference.all_strings(symbols, n) if lang.contains(w)}
                if not lang.slice(n) == brute == set(flang.enumerate_length(n)):
                    problems.append(f"{stem}: {side} slice of length {n} differs")
        if ref.listing(MAX_LEN) != foldlang.fsystem.fs_enumerate(phi, MAX_LEN):
            problems.append(f"{stem}: listing up to {MAX_LEN} differs from fs_enumerate")
        closed = reference.CLOSED_FORMS.get(stem)
        for n in range(MAX_LEN + 1):
            words = list(reference.all_strings(ref.alphabet, n))
            sample = rng.sample(words, min(SAMPLES_PER_LENGTH, len(words)))
            sample += rng.sample(sorted(ref.of_length(n)), min(4, len(ref.of_length(n))))
            for w in sample:
                expected = ref.member(w)
                if foldlang.fsystem.fs_member(phi, w) != expected:
                    problems.append(f"{stem}: fs_member({w!r}) != reference {expected}")
                if closed is not None and closed(w) != expected:
                    problems.append(f"{stem}: closed form disagrees on {w!r}")
        print(f"  reference vs foldlang on {stem}: "
              + ("ok" if not any(p.startswith(stem + ":") for p in problems) else "FAIL"))
    return problems


def smoke() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(child.ROOT / "benchmarks" / "run.py"),
                 "--workload", workload, "--seed", str(SEED), "--seconds", "2",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=child.ROOT, timeout=180)
            label = f"smoke {workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = result["correct"] and result["failed"] == 0
            print(f"  {label}: {result['attempted']} ops, {result['failed']} failed"
                  + ("" if ok else " FAIL"))
            if not ok:
                problems.append(f"{label}: not correct\n{proc.stderr}")
    return problems


def main() -> int:
    foldlang = child.import_foldlang()
    problems = check_reference(foldlang) + smoke()
    for p in problems:
        print(f"FAIL: {p}")
    print("PASS" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
