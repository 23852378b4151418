"""Seeded workload inputs and their correctness checks.

Nothing here imports foldlang: inputs are generated, and outputs judged,
with `reference.py` only.  An op is a JSON list:

    ["member", stem, w]      fs_member on a corpus system, built once
    ["pump", stem, k]        foldlang pump <spec> --imax k --json
    ["enum", stem, n]        foldlang enum <spec> --max-len n
    ["finite", seed, size]   finite_language_system of a seeded word set,
                             then fs_enumerate back

`stem` names a spec file in corpus/.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import reference

CORPUS = Path(__file__).resolve().parent / "corpus"

#: member: lengths per system.  dyck_dense and any_dyck_proc end just
#: under the default pair cap (n=12 is refused).  For the other systems
#: the last length under the cap costs 0.3-1.3 s per non-member; those
#: few ops would set most of a run's time and its spread, so their
#: lengths stop one or two steps lower.
MEMBER_LENGTHS = {
    "ab_star_dense": (8, 10),
    "ab_pairs_dense": (12, 14),
    "dyck_dense": (6, 8, 10),
    "any_dyck_proc": (6, 8, 10),
    "dyck_dyck": (8, 10, 12),
}

#: The six systems of demos/pumping_pipelines.py.
DEMO_SYSTEMS = ("demo_reg_reg", "demo_cf_reg", "demo_reg_cf", "demo_cf_cf_equal",
                "demo_cf_cf_greater", "demo_cf_cf_degenerate")

#: pump: the demo systems plus a dense REG/REG one; k = --imax.
PUMP_SYSTEMS = DEMO_SYSTEMS + ("ab_pairs_dense",)
PUMP_IMAX = (1, 6)

#: enum: inclusive --max-len range per dense system; every length stays
#: under the default pair cap.
ENUM_DENSE = {
    "ab_star_dense": (8, 11),
    "ab_pairs_dense": (10, 14),
    "any_dense": (5, 8),
    "dyck_dense": (6, 11),
    "any_dyck_proc": (6, 11),
    "dyck_dyck": (8, 13),
}
#: enum also runs on the demo systems, twice each per round.  These thin
#: ops are mostly CLI overhead; being just over half of the ops, they put
#: the median inside one cluster instead of between two.
ENUM_THIN_MAX_LEN = (16, 40)
#: Finite round trips per enum round, word-set size and word lengths.
#: Three of 21 ops puts the p90 inside the slowest ops rather than on
#: their edge.
FINITE_PER_ROUND = 3
FINITE_SIZE = (1000, 2000)
FINITE_WORD_LEN = (4, 12)

#: Rounds generated per run; a child that reaches the end starts over.
#: Children run whole rounds, so every run has the same mix of cells.
ROUNDS = {"member": 120, "pump": 120, "enum": 60}
#: Each child runs at least this many rounds; its peak RSS is read when
#: they are done, so memory is compared over the same work.
RSS_ROUNDS = {"member": 8, "pump": 12, "enum": 8}

WORKLOADS = tuple(ROUNDS)


def spec_path(stem: str) -> Path:
    return CORPUS / f"{stem}.fsys"


def finite_words(seed: int, size: int) -> list[str]:
    """A seeded set of `size` distinct words over {a, b}."""
    rng = random.Random(seed)
    lo, hi = FINITE_WORD_LEN
    words: set[str] = set()
    while len(words) < size:
        n = rng.randint(lo, hi)
        words.add("".join(rng.choice("ab") for _ in range(n)))
    return sorted(words)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Strata:
    """Per-cell values for round j that cover their range evenly, from a
    phase drawn from the seed.  Random draws would let the mix of cheap
    and costly ops, and with it every metric, vary by seed."""

    STEP = (0.6180339887498949, 0.4142135623730951)

    def __init__(self, rng):
        self._rng = rng
        self._phase: dict = {}

    def _phase_of(self, key, draw):
        if key not in self._phase:
            self._phase[key] = draw()
        return self._phase[key]

    def cycle(self, key, j: int, values):
        """Steps through the values in turn: any len(values) consecutive
        rounds hold each value once."""
        return values[(self._phase_of(key, lambda: self._rng.randrange(len(values))) + j)
                      % len(values)]

    def spread(self, key, j: int, values, axis: int = 0):
        """Weyl sequence frac(phase + j * step): any run of rounds covers
        the values evenly, for lists too long to cycle through."""
        fraction = (self._phase_of(key, self._rng.random) + j * self.STEP[axis]) % 1.0
        return values[int(fraction * len(values))]


class Checker:
    """Generates ops and judges outcomes, memoising the reference."""

    def __init__(self):
        self._systems: dict[str, reference.System] = {}
        self._enum_digests: dict[tuple[str, int], str | None] = {}
        self._slices: dict[tuple[int, int], list[str]] = {}

    def system(self, stem: str) -> reference.System:
        if stem not in self._systems:
            self._systems[stem] = reference.System(spec_path(stem).read_text())
        return self._systems[stem]

    # -- generation ---------------------------------------------------------

    def generate(self, workload: str, seed: int) -> tuple[list[list], int]:
        """The op sequence for one run and its round size.  Each round
        holds every cell of the workload equally often, in a seeded order."""
        rng = random.Random(f"{workload}:{seed}")
        strata = _Strata(rng)
        make_round = getattr(self, f"_{workload}_round")
        ops = []
        for j in range(ROUNDS[workload]):
            round_ops = make_round(rng, strata, j)
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        return ops, len(round_ops)

    def _member_round(self, rng, strata, j):
        """Per (system, n): the fold of an (r, s) pair from the slices,
        which is a member, and a uniformly random string, usually not.
        fs_member's cost for a member grows with the pair's place in the
        slices, so that place is spread evenly rather than drawn."""
        ops = []
        for stem, lengths in MEMBER_LENGTHS.items():
            phi = self.system(stem)
            for n in lengths:
                r = strata.spread((stem, n), j, self._sorted(phi.core, n), axis=0)
                s = strata.spread((stem, n), j, self._sorted(phi.proc, n), axis=1)
                ops.append(["member", stem, reference.fold(r, s)])
                w = "".join(rng.choice(phi.alphabet) for _ in range(n))
                ops.append(["member", stem, w])
        return ops

    def _sorted(self, lang, n):
        key = (id(lang), n)
        if key not in self._slices:
            self._slices[key] = sorted(lang.slice(n))
        return self._slices[key]

    def _pump_round(self, rng, strata, j):
        ks = range(PUMP_IMAX[0], PUMP_IMAX[1] + 1)
        return [["pump", stem, strata.cycle(stem, j, ks)] for stem in PUMP_SYSTEMS]

    def _enum_round(self, rng, strata, j):
        ops = [["enum", stem, strata.cycle(stem, j, range(lo, hi + 1))]
               for stem, (lo, hi) in ENUM_DENSE.items()]
        thin = range(ENUM_THIN_MAX_LEN[0], ENUM_THIN_MAX_LEN[1] + 1)
        ops += [["enum", stem, strata.cycle((stem, copy), j, thin)]
                for stem in DEMO_SYSTEMS for copy in (0, 1)]
        sizes = range(FINITE_SIZE[0], FINITE_SIZE[1] + 1)
        ops += [["finite", rng.getrandbits(32), strata.spread(("finite", copy), j, sizes)]
                for copy in range(FINITE_PER_ROUND)]
        return ops

    # -- checking -----------------------------------------------------------

    def problem(self, op, outcome) -> str | None:
        """None if the outcome is correct, else what is wrong with it."""
        if isinstance(outcome, dict) and "error" in outcome:
            return outcome["error"]
        kind = op[0]
        if kind == "member":
            _, stem, w = op
            expected = self.system(stem).member(w)
            closed = reference.CLOSED_FORMS.get(stem)
            if closed is not None and closed(w) != expected:
                return f"reference and closed form disagree on {w!r}"
            if outcome != expected:
                return f"fs_member({stem}, {w!r}) = {outcome}, expected {expected}"
            return None
        if kind == "enum":
            _, stem, n = op
            rc, got = outcome
            if rc != 0:
                return f"enum {stem} --max-len {n} exited {rc}"
            expected = self._enum_digest(stem, n)
            if expected is None:
                return f"reference listing of {stem} disagrees with its closed form"
            if got != expected:
                return f"enum {stem} --max-len {n} printed a wrong listing"
            return None
        if kind == "finite":
            _, seed, size = op
            words = sorted(finite_words(seed, size), key=lambda w: (len(w), w))
            if outcome != digest("\n".join(words)):
                return f"finite round trip of seed {seed} lost or added words"
            return None
        if kind == "pump":
            return self._pump_problem(op, outcome)
        raise ValueError(f"unknown op kind {kind!r}")

    def _enum_digest(self, stem, n):
        """Digest of the expected `enum` output, one member per line, or
        None if the reference listing contradicts the closed form."""
        key = (stem, n)
        if key not in self._enum_digests:
            phi = self.system(stem)
            listing = phi.listing(n)
            closed = reference.CLOSED_FORMS.get(stem)
            agrees = closed is None or listing == [
                w for m in range(n + 1)
                for w in reference.all_strings(phi.alphabet, m) if closed(w)]
            self._enum_digests[key] = (
                digest("".join(w + "\n" for w in listing)) if agrees else None)
        return self._enum_digests[key]

    def _pump_problem(self, op, outcome):
        _, stem, k = op
        rc, doc = outcome
        if rc != 0 or doc is None:
            return f"pump {stem} --imax {k} exited {rc}"
        if not (doc["plan_verified"] and doc["family_verified"]) or doc["imax"] != k:
            return f"pump {stem} --imax {k} did not report a verified family"
        parts, pumped = doc["family"]["parts"], set(doc["family"]["pumped"])
        if not any(parts[i] for i in pumped):
            return f"pump {stem}: pumped parts are empty"
        phi = self.system(stem)
        for i in range(k + 1):
            w = reference.assemble(parts, pumped, i)
            if not phi.member(w):
                return f"pump {stem}: family string for i={i} is not in L(Phi)"
        return None
