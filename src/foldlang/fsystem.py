"""F-system semantics: the brute-force oracle for L(Phi).

An F-system pairs a core language over Sigma with a folding-procedure
language over {u, d}; its language is every fold of an equal-length
pair.  Each component is seen only through the `Language` protocol,
which the regular and the context-free engine both implement.
Everything here is decided by exhaustive pairing per length, which is
exponential but exact at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar, Protocol

from .cfg import CfgDecomposition, ContextFreeLang
from .errors import AlphabetError, NoEqualLengthPair, ResourceLimit, SpecFileError
from .folding import PROC_ALPHABET, Alphabet, fold, fold_permutation
from .regular import RegDecomposition, RegularLang

#: Per-length candidate-pair cap for the exhaustive oracle.
DEFAULT_PAIR_CAP = 500_000

#: Search ceiling above min_len when looking for an equal-length pair.
DEFAULT_LENGTH_CEILING = 512


class Language(Protocol):
    """What the F-system, pumping and CLI code asks of a component
    language.  RegularLang and ContextFreeLang implement it, and callers
    tell them apart only through `context_free`."""

    #: True for a context-free engine, False for a regular one; it picks
    #: the pumping lemma and the decomposition shape.
    context_free: ClassVar[bool]
    alphabet: Alphabet

    def member(self, w: str) -> bool:
        """Whether w is in the language; False when w has a symbol
        outside the alphabet."""

    def enumerate_length(self, n: int) -> tuple[str, ...]:
        """Every member of length n, lexicographic by alphabet order;
        ValueError when n < 0."""

    def has_length(self, n: int) -> bool:
        """Whether some member has length n; False when n < 0."""

    def smallest_of_length(self, n: int) -> str | None:
        """Lexicographically smallest member of length n, or None when
        there is none (also when n < 0)."""

    def pumping_length(self) -> int:
        """A p such that every member of length >= p decomposes."""

    def decompose(self, w: str) -> RegDecomposition | CfgDecomposition:
        """A pumping decomposition of w, deterministic for a given w: its
        `pieces` alternate fixed and pump pieces, (x, y, z) for a regular
        language and (u, v, x, y, z) for a context-free one.
        DecompositionError when w is not a member (a foreign symbol
        included) or |w| < pumping_length()."""

    def is_infinite(self) -> bool:
        """Whether the language has infinitely many members."""


@dataclass
class FSystem:
    """Pair (core language over Sigma, procedure language over {u, d})."""

    core: Language
    proc: Language

    def __post_init__(self):
        if self.proc.alphabet != PROC_ALPHABET:
            raise AlphabetError("procedure language must use alphabet {u, d}")


def _pairs_at_length(phi: FSystem, n: int, pair_cap: int):
    rs = phi.core.enumerate_length(n)
    if not rs:
        return (), ()
    ss = phi.proc.enumerate_length(n)
    if len(rs) * len(ss) > pair_cap:
        raise ResourceLimit(
            f"{len(rs)}x{len(ss)} candidate pairs at length {n} "
            f"exceed the cap of {pair_cap}")
    return rs, ss


def fs_enumerate(phi: FSystem, max_len: int, pair_cap: int = DEFAULT_PAIR_CAP,
                 with_witnesses: bool = False):
    """All members of L(Phi) of length <= max_len, sorted by (length, lex).

    With with_witnesses=True, returns a dict mapping each member to one
    witnessing (r, s) pair (the first found in enumeration order).

    Each length slice is folded by gathering: fold(r, s)[k] ==
    r[fold_permutation(s)[k]], so one itemgetter per distinct permutation
    folds every r.  Direction strings that differ only in their first step
    (it lands on an empty stack) share a permutation; the earliest is kept,
    and r stays in the outer loop, so the first witness found is the one
    pair-by-pair folding finds.  fs_member keeps folding pair by pair: it
    returns at the first match, so a gather table built up front for the
    whole procedure slice can cost more than the folds it saves.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    witnesses: dict[str, tuple[str, str]] = {}
    for n in range(max_len + 1):
        rs, ss = _pairs_at_length(phi, n, pair_cap)
        gathers: dict[tuple[int, ...], tuple] = {}
        for s in ss:
            perm = tuple(fold_permutation(s))
            if perm not in gathers:
                # itemgetter needs an index; the empty fold gathers nothing
                gathers[perm] = (itemgetter(*perm) if perm else lambda r: r, s)
        for r in rs:
            for gather, s in gathers.values():
                w = "".join(gather(r))
                if w not in witnesses:
                    witnesses[w] = (r, s)
    if with_witnesses:
        return witnesses
    key = phi.core.alphabet.sort_key
    return sorted(witnesses, key=lambda w: (len(w), key(w)))


def fs_member(phi: FSystem, w: str, pair_cap: int = DEFAULT_PAIR_CAP,
              with_witness: bool = False):
    """Decide w in L(Phi) by exhausting equal-length pairs at |w|.  A fold
    permutes r, so a w with a symbol outside the core alphabet is refused
    before any slice is built."""
    rs, ss = (_pairs_at_length(phi, len(w), pair_cap)
              if all(ch in phi.core.alphabet for ch in w) else ((), ()))
    for r in rs:
        for s in ss:
            if fold(r, s) == w:
                return (True, (r, s)) if with_witness else True
    return (False, None) if with_witness else False


def equal_length_pair(phi: FSystem, min_len: int,
                      ceiling: int = DEFAULT_LENGTH_CEILING) -> tuple[str, str]:
    """Smallest n >= min_len with members in both components; within that
    n, the lexicographically smallest r and s."""
    if min_len < 0:
        raise ValueError("min_len must be >= 0")
    for n in range(min_len, min_len + ceiling + 1):
        if phi.core.has_length(n) and phi.proc.has_length(n):
            return phi.core.smallest_of_length(n), phi.proc.smallest_of_length(n)
    raise NoEqualLengthPair(
        f"no common length in [{min_len}, {min_len + ceiling}]")


def finite_language_system(words) -> FSystem:
    """F-system whose language is exactly the given finite word set:
    Phi = (union of the words, d*), the core built from their prefix tree."""
    words = set(words)
    alphabet = Alphabet(sorted({ch for w in words for ch in w}) or ["a"])
    core = RegularLang.from_words(words, alphabet)
    proc = RegularLang("d*", PROC_ALPHABET)
    return FSystem(core, proc)


# ---------------------------------------------------------------------------
# Spec file format

def parse_spec(text: str) -> FSystem:
    """Parse the line-oriented F-system spec format.

    Keys: `alphabet`, `core.kind`, `core.regex` / `core.cfg` (repeatable),
    `proc.kind`, `proc.regex` / `proc.cfg`.  `#` starts a comment; the
    procedure alphabet is implicitly {u, d} and declaring it is an error.
    """
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "proc.alphabet":
            raise SpecFileError(
                "the procedure alphabet is implicitly {u, d}; do not declare it")
        values.setdefault(key, []).append(value)

    def single(key):
        if key not in values:
            raise SpecFileError(f"missing key {key!r}")
        if len(values[key]) > 1:
            raise SpecFileError(f"duplicate key {key!r}")
        return values[key][0]

    alphabet = Alphabet(single("alphabet").split())

    def build(side, alpha):
        kind = single(f"{side}.kind")
        if kind == "regex":
            return RegularLang(single(f"{side}.regex"), alpha)
        if kind == "cfg":
            lines = values.get(f"{side}.cfg")
            if not lines:
                raise SpecFileError(f"missing key {side}.cfg")
            return ContextFreeLang("\n".join(lines), alpha)
        raise SpecFileError(f"{side}.kind must be 'regex' or 'cfg', got {kind!r}")

    return FSystem(build("core", alphabet), build("proc", PROC_ALPHABET))


def load_spec(path) -> FSystem:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFileError(f"{path}: not UTF-8 ({exc})") from None
    return parse_spec(text)
