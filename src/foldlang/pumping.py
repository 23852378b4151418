"""Constructive pumping machinery for folding systems.

For each class pairing (REG,REG), (CF,REG), (REG,CF), (CF,CF) this module
builds a double-stranded alignment of pumped core/procedure strings: both
strands are cut into the same number of equal-length windows, where the
even-numbered windows repeat j-j0 times.  Folding the windowed strands
turns the alignment into a pump family (w_1, ..., w_k), k in {5, 9, 13},
whose even parts can be repeated any number of times while staying inside
the F-system's language.  Families are verified against the brute-force
oracle, never trusted.

One rule places the windows for every pairing.  Each strand is a row of
fixed and pump pieces, x y^. z for a regular decomposition and
u v^. x y^. z for a context-free one, with multipliers chosen so both
strands grow by the same length per step of j.  The pumped windows are
the common refinement of the two strands' per-step growth partitions,
where a procedure cut sorts before an equal core cut.  A window in the
core's first pump block sits as far left as both strands' blocks allow,
one in a later core pump block as far right, and the odd windows are the
gaps between them.  The offset j0 is the smallest one, searched up to
|r| for a base core string r, whose windows reproduce the strand formulas
as strings for several j: an explicit reconstruction check, not trust in
the rule, enforces correctness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

from .errors import (CaseValidationFailed, FamilyFileError, FiniteComponent,
                     FoldlangError)
from .folding import split_updown
from .fsystem import FSystem, equal_length_pair, fs_member

LEMMA_REG_REG = "L1"
LEMMA_CF_REG = "L2cfreg"
LEMMA_REG_CF = "L2regcf"
LEMMA_CF_CF = "L3"


# ---------------------------------------------------------------------------
# Strand blocks: a strand at repetition index j is a concatenation of blocks
# base^(mult*j + 1); a fixed block has mult 0.

@dataclass(frozen=True)
class Block:
    base: str
    mult: int

    def at(self, j: int) -> str:
        return self.base * (self.mult * j + 1)


def materialize(blocks, j: int) -> str:
    return "".join(b.at(j) for b in blocks)


# ---------------------------------------------------------------------------
# Plans and families

@dataclass(frozen=True)
class StrandPlan:
    """Windowed alignment: r_j = xi_1 xi_2^(j-j0) xi_3 ... and the same
    shape for s_j over mu, with |xi_k| == |mu_k| for every k."""

    lemma: str
    case: str | None
    xi: tuple[str, ...]
    mu: tuple[str, ...]
    j0: int
    r_blocks: tuple[Block, ...]
    s_blocks: tuple[Block, ...]

    @property
    def m(self) -> int:
        return len(self.xi)

    def r_at(self, j: int) -> str:
        return _windows_at(self.xi, j - self.j0)

    def s_at(self, j: int) -> str:
        return _windows_at(self.mu, j - self.j0)


def _windows_at(windows, reps: int) -> str:
    out = []
    for k, win in enumerate(windows, start=1):
        out.append(win * reps if k % 2 == 0 else win)
    return "".join(out)


@dataclass(frozen=True)
class PumpFamily:
    """Parts (w_1, ..., w_k); the parts at `pumped` (0-based) repeat i times."""

    parts: tuple[str, ...]
    pumped: tuple[int, ...]
    lemma: str
    j0: int

    def assemble(self, i: int) -> str:
        pumped = set(self.pumped)
        return "".join(p * i if k in pumped else p for k, p in enumerate(self.parts))

    @property
    def pumped_total(self) -> int:
        return sum(len(self.parts[k]) for k in self.pumped)

    @property
    def fixed_total(self) -> int:
        return sum(len(p) for p in self.parts) - self.pumped_total

    def length_at(self, i: int) -> int:
        return self.fixed_total + i * self.pumped_total

    def to_json(self) -> str:
        return json.dumps({
            "parts": list(self.parts),
            "pumped": list(self.pumped),
            "lemma": self.lemma,
            "j0": self.j0,
        })

    @classmethod
    def from_json(cls, text: str | bytes) -> "PumpFamily":
        """The family that to_json wrote; FamilyFileError for any other
        document."""
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a UnicodeDecodeError included
            raise FamilyFileError(f"not JSON: {exc}") from None
        # exact types: a JSON boolean is a Python bool, which is also an int
        shape = {"parts": list, "pumped": list, "lemma": str, "j0": int}
        if not (isinstance(obj, dict)
                and all(type(obj.get(k)) is t for k, t in shape.items())):
            raise FamilyFileError("expected an object with list parts, list pumped, "
                                  "str lemma and int j0")
        parts, pumped = obj["parts"], obj["pumped"]
        if not all(isinstance(p, str) for p in parts):
            raise FamilyFileError("parts must be strings")
        if not all(type(k) is int and 0 <= k < len(parts) for k in pumped):
            raise FamilyFileError(f"pumped indices must be integers in 0..{len(parts) - 1}")
        if len(set(pumped)) < len(pumped):
            raise FamilyFileError("pumped indices must not repeat")
        return cls(tuple(parts), tuple(pumped), obj["lemma"], obj["j0"])


@dataclass(frozen=True)
class CheckResult:
    kind: str      # "strand" or "family"
    index: int     # j for strands, i for families
    ok: bool
    detail: str
    string: str | None = None
    witness: tuple[str, str] | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        """True iff there was at least one check and every check passed."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = [f"{c.kind} {c.index}: {'PASS' if c.ok else 'FAIL'} ({c.detail})"
                 for c in self.checks]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared construction scaffolding

def _require_infinite(phi: FSystem):
    if not phi.core.is_infinite():
        raise FiniteComponent("core language is finite; nothing to pump")
    if not phi.proc.is_infinite():
        raise FiniteComponent("procedure language is finite; nothing to pump")


def _carve(s: str, lens) -> tuple[str, ...]:
    out = []
    pos = 0
    for l in lens:
        out.append(s[pos:pos + l])
        pos += l
    return tuple(out)


def _search_plan(lemma, case, r_blocks, s_blocks) -> StrandPlan:
    """Try j0 = 0, 1, ..., |r| until the windowed form reproduces both
    strand formulas exactly for j in {j0, ..., j0+3}, where r is the base
    core string.  align's windows tile both strands by construction; the
    reconstruction check still gates every plan."""
    # Why |r| bounds the search: at j = j0 + 1 a pumped window of width
    # w >= 1 sits where its core and procedure blocks overlap.  Both blocks
    # start by |r| + j*g_start and end no earlier than j*g_end, where g_start
    # and g_end = g_start + w are the growth per step of j before and
    # through the window, so the overlap holds the window once j0*w >= |r|.
    # The bound can cost completeness, never soundness.
    last_problem = "no j0 produced non-negative window offsets"
    for j0 in range(len(materialize(r_blocks, 0)) + 1):
        lens = align(r_blocks, s_blocks, j0)
        if any(l < 0 for l in lens):
            continue
        xi = _carve(materialize(r_blocks, j0 + 1), lens)
        mu = _carve(materialize(s_blocks, j0 + 1), lens)
        plan = StrandPlan(lemma, case, xi, mu, j0, tuple(r_blocks),
                          tuple(s_blocks))
        bad = [f"{problem} at j={j}" for j in range(j0, j0 + 4)
               for problem in _mismatches(plan, j)]
        if not bad:
            return plan
        last_problem = f"j0={j0}: {bad[0]}"
    raise CaseValidationFailed(f"{lemma}{'/' + case if case else ''}: {last_problem}")


def _mismatches(plan: StrandPlan, j: int) -> list[str]:
    """The strands whose windows do not reproduce their formula at j."""
    problems = []
    if plan.r_at(j) != materialize(plan.r_blocks, j):
        problems.append("core windows != strand formula")
    if plan.s_at(j) != materialize(plan.s_blocks, j):
        problems.append("procedure windows != strand formula")
    return problems


def _base_pair(phi: FSystem) -> tuple[str, str]:
    p = max(phi.core.pumping_length(), phi.proc.pumping_length())
    return equal_length_pair(phi, p)


# ---------------------------------------------------------------------------
# Lemma constructions

#: (core is CF, procedure is CF) -> lemma
_LEMMAS = {
    (False, False): LEMMA_REG_REG,
    (True, False): LEMMA_CF_REG,
    (False, True): LEMMA_REG_CF,
    (True, True): LEMMA_CF_CF,
}


def _lemma_of(phi: FSystem) -> str:
    return _LEMMAS[phi.core.context_free, phi.proc.context_free]


def lemma1_plan(phi: FSystem) -> StrandPlan:
    """REG,REG: one pumped window per strand (m = 3)."""
    return _plan(phi, LEMMA_REG_REG)


def lemma2_plan_cf_reg(phi: FSystem) -> StrandPlan:
    """CF,REG: two pumped windows per strand (m = 5)."""
    return _plan(phi, LEMMA_CF_REG)


def lemma2_plan_reg_cf(phi: FSystem) -> StrandPlan:
    """REG,CF: mirror of the CF,REG case with strand roles swapped."""
    return _plan(phi, LEMMA_REG_CF)


def lemma3_plan(phi: FSystem) -> StrandPlan:
    """CF,CF: three pumped windows per strand (m = 7), dropping to m = 5
    when one strand pumps a single piece and m = 3 when both do."""
    return _plan(phi, LEMMA_CF_CF)


def auto_plan(phi: FSystem) -> StrandPlan:
    """Select the lemma from the component kinds."""
    return _plan(phi, _lemma_of(phi))


def _plan(phi: FSystem, lemma: str) -> StrandPlan:
    """Decompose the base pair, build both strands and align them."""
    if _lemma_of(phi) != lemma:
        raise FoldlangError(f"{lemma} does not apply to a {_lemma_of(phi)} system")
    _require_infinite(phi)
    r, s = _base_pair(phi)
    dr = phi.core.decompose(r)
    ds = phi.proc.decompose(s)
    cf_cf = lemma == LEMMA_CF_CF
    r_pieces = _pieces(dr, merge_empty=cf_cf)
    s_pieces = _pieces(ds, merge_empty=cf_cf)
    r_pumps, s_pumps = r_pieces[1::2], s_pieces[1::2]
    # Each strand pumps by the other's total pump base length, so both grow
    # equally per step of j.  When both pump two pieces, k also makes every
    # refined window a whole number of copies of each base it lies under,
    # and the products |v_r||y_s|, |v_s||y_r| name the CF,CF case.  A CF,CF
    # strand left with one pump piece is "single".
    k, case = 1, None
    if len(r_pumps) == len(s_pumps) == 2:
        pr = len(r_pumps[0]) * len(s_pumps[1])
        ps = len(s_pumps[0]) * len(r_pumps[1])
        k = max(pr, ps)
        case = "greater" if pr > ps else "less" if pr < ps else "equal"
    elif cf_cf:
        case = {(1, 1): "degenerate", (2, 1): "proc-single",
                (1, 2): "core-single"}[len(r_pumps), len(s_pumps)]
    r_blocks = _strand(r_pieces, k * sum(map(len, s_pumps)))
    s_blocks = _strand(s_pieces, k * sum(map(len, r_pumps)))
    return _search_plan(lemma, case, r_blocks, s_blocks)


def _pieces(d, merge_empty: bool) -> tuple[str, ...]:
    """d.pieces: fixed and pump pieces alternating, fixed first.  With
    merge_empty (CF/CF) an empty pump piece of (u, v, x, y, z) is folded
    into its fixed neighbours, leaving (u x, y, z) or (u, v, x z)."""
    if merge_empty:
        u, v, x, y, z = d.pieces
        if not v:
            return u + x, y, z
        if not y:
            return u, v, x + z
    return d.pieces


def _strand(pieces: tuple[str, ...], mult: int) -> tuple[Block, ...]:
    """Fixed pieces at even positions, pump pieces at odd ones."""
    return tuple(Block(p, mult if k % 2 else 0) for k, p in enumerate(pieces))


def _pump_spans(blocks, j: int) -> list[tuple[int, int, int]]:
    """(start, end, growth per step of j) of each pump (odd) block at j."""
    spans = []
    pos = 0
    for k, b in enumerate(blocks):
        end = pos + len(b.at(j))
        if k % 2:
            spans.append((pos, end, len(b.base) * b.mult))
        pos = end
    return spans


def align(r_blocks, s_blocks, j0: int) -> list[int]:
    """Window lengths (xi_1, ..., xi_m) aligning the strands at j = j0 + 1,
    placed by the rule in the module docstring.  A negative odd window
    (gap) means j0 is too small."""
    j = j0 + 1
    r_spans = _pump_spans(r_blocks, j)
    s_spans = _pump_spans(s_blocks, j)
    # (growth so far, 0 for a procedure cut or 1 for a core cut)
    cuts = sorted([(c, 0) for c in accumulate(g for *_, g in s_spans[:-1])]
                  + [(c, 1) for c in accumulate(g for *_, g in r_spans[:-1])])
    cuts.append((sum(g for *_, g in r_spans), None))
    lens = []
    pos = grown = 0
    ri = si = 0
    for cut, side in cuts:
        width = cut - grown
        (r_start, r_end, _), (s_start, s_end, _) = r_spans[ri], s_spans[si]
        start = max(r_start, s_start) if ri == 0 else min(r_end, s_end) - width
        lens += [start - pos, width]
        pos, grown = start + width, cut
        si += side == 0
        ri += side == 1
    lens.append(len(materialize(r_blocks, j)) - pos)
    return lens


# ---------------------------------------------------------------------------
# Plan -> family

def plan_to_family(plan: StrandPlan) -> PumpFamily:
    """Fold the windowed strands: each xi_k splits by its aligned mu_k
    into an up part (reversed, emitted right-to-left) and a down part
    (emitted left-to-right); parts from even windows are the pumped ones."""
    m = plan.m
    ups = []
    downs = []
    for xi_k, mu_k in zip(plan.xi, plan.mu):
        w_up, w_down = split_updown(xi_k, mu_k)
        ups.append(w_up[::-1])
        downs.append(w_down)
    parts = ups[::-1][:-1] + [ups[0] + downs[0]] + downs[1:]
    pumped = sorted({m - k for k in range(2, m + 1, 2)}
                    | {m + k - 2 for k in range(2, m + 1, 2)})
    if plan.lemma == LEMMA_CF_CF and m == 3:
        # degenerate subcase embeds the 5-part shape into 13 parts
        a = parts
        parts = [a[0], a[1], "", "", "", "", a[2], "", "", "", "", a[3], a[4]]
        pumped = [1, 11]
    elif plan.lemma == LEMMA_CF_CF and m == 5:
        # single-pump-strand subcases embed the 9-part shape into 13 parts
        a = parts
        parts = [a[0], a[1], a[2], "", "", a[3], a[4], a[5], "", "",
                 a[6], a[7], a[8]]
        pumped = [1, 5, 7, 11]
    return PumpFamily(tuple(parts), tuple(pumped), plan.lemma, plan.j0)


# ---------------------------------------------------------------------------
# Verification

def verify_plan(plan: StrandPlan, phi: FSystem, j_range=None) -> VerificationReport:
    """Check, for each j, that the windowed strands reproduce the lemma's
    strand formulas exactly and are members of their languages."""
    if j_range is None:
        j_range = range(plan.j0, plan.j0 + 4)
    checks = []
    for j in j_range:
        r_w, s_w = plan.r_at(j), plan.s_at(j)
        problems = _mismatches(plan, j)
        if len(r_w) != len(s_w):
            problems.append("strand lengths differ")
        if not problems and not phi.core.member(r_w):
            problems.append("r_j not in core language")
        if not problems and not phi.proc.member(s_w):
            problems.append("s_j not in procedure language")
        checks.append(CheckResult("strand", j, not problems,
                                  "; ".join(problems) or
                                  f"r_j,s_j reconstructed, members, |.|={len(r_w)}"))
    return VerificationReport(tuple(checks))


def verify_family(family: PumpFamily, phi: FSystem, i_range=None) -> VerificationReport:
    """Decide membership of the pumped string for each i, with its least
    witness (`fs_member`)."""
    if i_range is None:
        i_range = range(0, 5)
    checks = []
    if family.pumped_total == 0:
        checks.append(CheckResult("family", -1, False,
                                  "total pumped length is 0"))
    for i in i_range:
        w = family.assemble(i)
        ok, witness = fs_member(phi, w, with_witness=True)
        detail = (f"member via fold({witness[0]!r}, {witness[1]!r})" if ok
                  else "not in L(Phi)")
        checks.append(CheckResult("family", i, ok, detail, string=w,
                                  witness=witness))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Unary refutation

def refute_unary_family(predicate, family: PumpFamily, bound: int = 64) -> int | None:
    """Smallest i <= bound whose pumped-string length fails the predicate,
    or None.  All family parts must use a single symbol, so only the
    length matters, and some pumped part must be non-empty."""
    symbols = {ch for p in family.parts for ch in p}
    if len(symbols) > 1:
        raise FoldlangError(f"family is not unary: symbols {sorted(symbols)}")
    if family.pumped_total == 0:
        raise FoldlangError("family pumps nothing: total pumped length is 0")
    for i in range(bound + 1):
        if not predicate(family.length_at(i)):
            return i
    return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


PREDICATES = {
    "primes": is_prime,
    "even": lambda n: n % 2 == 0,
}
