"""F-system semantics: membership and enumeration of L(Phi).

An F-system pairs a core language over Sigma with a folding-procedure
language over {u, d}; its language is every fold of an equal-length
pair.  Each component is seen through the `Language` protocol, which the
regular and the context-free engine both implement.

Every query can be answered by a walk over two DFAs: a regular side's
own, and for a context-free side the minimal DFA of its slices, each
counted against the pair cap first (`_count_slices`, the one gate).  A
regular side is asked only `has_length`.  Membership moves the fold
windows of w, one int of window starts per product state, all at once
per symbol (`_step`), and a witness (the least pair) is read back off the
same walk with its inverse (`_reaching`).  Enumeration (a fold grows its
output from the middle out) moves the fold stacks.  The frozen F-system
keeps what a window walk at n reads (`_walk`).

Folding every pair (`_folds`), the definition of L(Phi), is a bounded
shortcut beside the walk: a route folds only when its pairs, counted
against a budget (`_pairs_fit`), fit both its bound (`FOLD_*`) and the
pair cap, so a fold route is never refused.  A walk is refused with
ResourceLimit before it builds more than the cap allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter, or_
from typing import ClassVar, Protocol

from .cfg import CfgDecomposition, ContextFreeLang
from .errors import AlphabetError, NoEqualLengthPair, ResourceLimit, SpecFileError
from .folding import PROC_ALPHABET, Alphabet, fold, fold_permutation
from .regular import RegDecomposition, RegularLang

#: Per-length cap on what a walk builds: the strings of a context-free
#: slice, or the fold stacks one layer of an enumeration walk makes.  A
#: fold route folds no more pairs than it.
DEFAULT_PAIR_CAP = 500_000

#: Bits a witness's window layers, or an enumeration walk's length masks,
#: may hold per candidate pair of the pair cap: about what one pair costs
#: a fold route, a short string object (32 MB at the default cap).
TABLE_BITS_PER_PAIR = 512

#: A fold route folds only when its pairs number at most its bound and the
#: pair cap, and a walk answers otherwise.  Each bound is a measured cold
#: crossover: a witness search's (BENCH_20.json, route_crossover),
FOLD_WITNESS_PAIRS = 64
#: CF/CF enumeration's, its pairs summed over the lengths (BENCH_25.json),
FOLD_CF_CF_PAIRS = 1024
#: and a witness listing's, summed so, the lowest of its systems' (BENCH_29.json).
FOLD_WITNESS_LISTING_PAIRS = 65_536
#: A CF/CF decision's crossover is about 1,000 pairs (BENCH_29.json), but
#: its bound keeps the benchmark's largest `dyck_dyck` `member` cell, n = 12
#: with 132² pairs, folding until the benchmark reads each child's memory.
FOLD_CF_CF_DECISION_PAIRS = 17_424

#: Search ceiling above min_len when looking for an equal-length pair.
DEFAULT_LENGTH_CEILING = 512


class Language(Protocol):
    """What the F-system, pumping and CLI code asks of a component
    language.  RegularLang and ContextFreeLang implement it, and callers
    tell them apart only through `context_free`.  The product walks of
    fs_member and fs_enumerate also read a regular engine's `automaton`."""

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

    def count_length(self, n: int, budget: int | None = None) -> int:
        """The number of members of length n, exact; 0 when n < 0.  With a
        budget, a count over it may stop early and return a number over it;
        ValueError when budget < 0."""

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


@dataclass(frozen=True)
class FSystem:
    """Pair (core language over Sigma, procedure language over {u, d}).
    Frozen, as it keeps what a window walk at each length reads (`_walk`)."""

    core: Language
    proc: Language
    _walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.proc.alphabet != PROC_ALPHABET:
            raise AlphabetError("procedure language must use alphabet {u, d}")


def _count_slices(phi: FSystem, n: int, pair_cap: int) -> None:
    """The walk's gate at n, a length with pairs: ResourceLimit before the
    walk builds the DFA of a context-free slice of more than pair_cap
    strings, the core counted first.  A regular side is skipped."""
    for name, side in (("core", phi.core), ("procedure", phi.proc)):
        if side.context_free and side.count_length(n, pair_cap) > pair_cap:
            raise ResourceLimit(f"{name} slice at length {n} has more than {pair_cap} "
                                f"strings: over the cap of {pair_cap} candidate pairs")


def _pairs_fit(phi: FSystem, lengths, budget: int) -> bool:
    """Whether the pairs at the given lengths, each with pairs, number at
    most budget in all, a fold route's test that raises nothing: at each
    length a regular side first, a context-free side against what is left."""
    for n in lengths:
        pairs = 1
        for side in sorted((phi.core, phi.proc), key=lambda side: side.context_free):
            pairs *= side.count_length(n, budget // pairs)
            if pairs > budget:
                return False
        budget -= pairs
    return True


def fs_enumerate(phi: FSystem, max_len: int, pair_cap: int = DEFAULT_PAIR_CAP,
                 with_witnesses: bool = False):
    """All members of L(Phi) of length <= max_len, sorted by (length, lex).

    With with_witnesses=True, returns a dict mapping each member to its
    least witnessing (r, s) pair, the least r in core order, then the
    least s in procedure order, in (length, r, s) order.

    The lengths with pairs are read first, from both sides' length sets.
    The members are then built by following the output over the product
    of two DFAs (`_follow_product`), so the work grows with L(Phi) rather
    than with the pairs; a context-free side enters as the minimal DFA
    (`from_words`) of its slices, each gated by `_count_slices`.  CF/CF
    with at most min(FOLD_CF_CF_PAIRS, pair_cap) pairs in all, and
    witnesses with at most min(FOLD_WITNESS_LISTING_PAIRS, pair_cap), fold
    every pair instead (`_folds`), the first pair per fold kept; other
    witnesses are each member's `_least_pair`.  ResourceLimit from a walk
    over the cap; ValueError when max_len or pair_cap is negative."""
    if min(max_len, pair_cap) < 0:
        raise ValueError("max_len and pair_cap must be >= 0")
    lengths = [n for n in range(max_len + 1) if phi.core.has_length(n) and phi.proc.has_length(n)]
    key, cf_cf = phi.core.alphabet.sort_key, phi.core.context_free and phi.proc.context_free
    if with_witnesses and not _pairs_fit(phi, lengths, min(FOLD_WITNESS_LISTING_PAIRS, pair_cap)):
        least = {w: _least_pair(*_walk(phi, len(w), pair_cap), w)
                 for w in fs_enumerate(phi, max_len, pair_cap)}
        return dict(sorted(least.items(), key=lambda item: (
            len(item[0]), key(item[1][0]), PROC_ALPHABET.sort_key(item[1][1]))))
    if with_witnesses or cf_cf and _pairs_fit(phi, lengths, min(FOLD_CF_CF_PAIRS, pair_cap)):
        witnesses: dict[str, tuple[str, str]] = {}
        for n in lengths:
            for w, r, s in _folds(phi, n):
                if w not in witnesses:
                    witnesses[w] = (r, s)
        return witnesses if with_witnesses else sorted(witnesses, key=lambda w: (len(w), key(w)))
    for n in lengths:
        _count_slices(phi, n, pair_cap)
    walk = _follow_product(*_automata(phi, lengths), lengths[-1], pair_cap) if lengths else []
    symbols = phi.core.alphabet.symbols
    order = None if tuple(sorted(symbols)) == symbols else key  # a str sorts as it is
    return [w for words in walk for w in sorted(words, key=order)]


def _automata(phi: FSystem, lengths) -> list:
    """The (core, procedure) DFAs a product walk reads: a regular side's
    own, and for a context-free side the minimal DFA (`from_words`) of its
    slices at the given lengths, which counting them has already built."""
    return [RegularLang.from_words([w for n in lengths for w in side.enumerate_length(n)],
                                   side.alphabet).automaton
            if side.context_free else side.automaton for side in (phi.core, phi.proc)]


def _follow_product(core, proc, max_len: int, pair_cap: int) -> list[set[str]]:
    """The folds of each length 0..max_len, r accepted by the core DFA
    and s by the procedure DFA.

    The reachable product is walked forward one step at a time, and each
    product state keeps the set of fold stacks of the prefix pairs that
    reach it: reading a on u makes a + stack, on d stack + a.  A product
    state is dropped when no accepting pair is reachable from it in the
    steps left; the two sides step independently, so that is a common
    set bit of their length masks, one int per state read off `live` once
    per call.  ResourceLimit before the masks outgrow the cap
    (`_check_tables`), and before a layer makes more than pair_cap fold
    stacks, counted as they are made, before equal stacks of a product
    state merge (`_too_many_stacks`)."""
    _check_tables((core.n_states + proc.n_states) * (max_len + 1),
                  f"length masks up to length {max_len} would hold", pair_cap)
    live_core, live_proc = masks = [[0] * auto.n_states for auto in (core, proc)]
    for auto, live in zip((core, proc), masks):
        for k, row in enumerate(auto.live(max_len)[:max_len + 1]):
            for q in row:
                live[q] |= 1 << k
    layer = {(core.start, proc.start): {""}}
    by_length = []
    for i in range(max_len + 1):
        by_length.append(set().union(*[
            stacks for (q, p), stacks in layer.items()
            if q in core.accepting and p in proc.accepting]))
        left = (1 << (max_len - i)) - 1  # step counts 0..max_len-i-1
        following: dict[tuple[int, int], set[str]] = {}
        made = 0
        for (q, p), stacks in layer.items():
            up, down = proc.transitions[p]["u"], proc.transitions[p]["d"]
            up_left, down_left = live_proc[up] & left, live_proc[down] & left
            for a, r in core.transitions[q].items():
                if live_core[r] & up_left:
                    made += len(stacks)
                    if made > pair_cap:
                        _too_many_stacks(i + 1, pair_cap)
                    following.setdefault((r, up), set()).update([a + stack for stack in stacks])
                if live_core[r] & down_left:
                    made += len(stacks)
                    if made > pair_cap:
                        _too_many_stacks(i + 1, pair_cap)
                    following.setdefault((r, down), set()).update([stack + a for stack in stacks])
        layer = following
    return by_length


def _too_many_stacks(n: int, pair_cap: int):
    raise ResourceLimit(f"the walk would make more than {pair_cap} fold stacks of length {n}: "
                        f"over the cap of {pair_cap} per layer")


def _walk(phi: FSystem, n: int, pair_cap: int | None = None):
    """(core DFA, procedure DFA, u-count mask) for a window walk at n, a
    length with pairs: built on the first walk at n and kept with the
    system.  The DFAs are `_automata`'s, checked by `_check_tables`
    first for a witness's walk (given its pair_cap).  Bit j of the mask is
    set iff an accepted s of length n has exactly j u steps: one forward
    pass, each procedure state mapping to the u counts of the prefixes that
    reach it, pruned by `live` to the states that still reach acceptance."""
    walk = phi._walks.get(n)
    core, proc = walk[:2] if walk else _automata(phi, [n])
    if pair_cap is not None:  # n + 1 layers of up to |Q|·|P| ints of n + 1 bits
        _check_tables((n + 1) ** 2 * core.n_states * proc.n_states,
                      f"witness layers at length {n} would hold up to", pair_cap)
    if walk is None:
        table = proc.live(n)
        reach = {proc.start: 1} if proc.start in table[n] else {}
        for k in range(n - 1, -1, -1):
            following = {}
            for p, ups in reach.items():
                moves = proc.transitions[p]
                for r, moved in ((moves["u"], ups << 1), (moves["d"], ups)):
                    if r in table[k]:
                        following[r] = following.get(r, 0) | moved
            reach = following
        walk = phi._walks[n] = core, proc, reduce(or_, reach.values(), 0)
    return walk


def _window_layers(core, proc, starts: int, w: str):
    """The layers of the window walk over the core DFA and the procedure
    DFA, t = 0, 1, ... steps in: each maps a (core state, procedure state)
    to its set of window starts, one int.  After t steps the fold stack of
    a pair (r, s), both of length |w|, that folds to w is the window
    w[j:j+t], j the u steps still to come.  Layer 0 holds the start pair
    at starts, the u counts of the accepted s (`_walk`'s mask), and each
    later layer is one `_step` on every symbol: a u step lowers j and a d
    step reads w[j+t], so j never exceeds the steps left.  The walk ends at
    the first empty layer, so layer |w| exists, holding only accepting
    pairs at j = 0, iff w folds.  O(|w|·|Q|·|P|·|Σ|) big-int operations."""
    n = len(w)
    core_live, proc_live = core.live(n), proc.live(n)
    if core.start not in core_live[n] or not starts:
        return
    layer = {(core.start, proc.start): starts}
    yield layer
    reads = list(core.alphabet.positions(w).items())
    for t in range(n):
        layer = _step(core, proc, layer, t, reads, core_live[n - t - 1], proc_live[n - t - 1])
        if not layer:
            return
        yield layer


def _step(core, proc, layer, t: int, reads, core_alive, proc_alive, up_only: bool = False):
    """The layer after step t of the window walk from layer, reading each
    (a, at) of reads: every window moves at once per symbol, bit i of at
    set iff w[i] == a (the shift-and of Baeza-Yates and Gonnet, CACM
    1992).  A u step reads w[j-1] and moves start j to j - 1; a d step
    reads w[j+t] and keeps j.  A target is kept only if its core state is
    in core_alive and its procedure state in proc_alive, rows of `live`:
    acceptance in the steps left.  up_only leaves out the d moves."""
    following: dict[tuple[int, int], int] = {}
    for (q, p), starts in layer.items():
        moves = proc.transitions[p]
        up, down = moves["u"], moves["d"]
        after_up = starts >> 1 if up in proc_alive else 0
        after_down = starts if down in proc_alive and not up_only else 0
        if not (after_up or after_down):
            continue
        step = core.transitions[q]
        for a, at in reads:
            r = step[a]
            if r in core_alive:
                if moved := after_up & at:
                    key = r, up
                    following[key] = following.get(key, 0) | moved
                if moved := after_down & at >> t:
                    key = r, down
                    following[key] = following.get(key, 0) | moved
    return following


def _reaching(core, proc, layer, t: int, reads, after):
    """The starts of layer from which step t, reading one (a, at) of reads
    on either direction, lands on a start of the layer after: `_step`
    inverted, a u target's starts shifted back up, a d target's kept."""
    kept = {}
    for (q, p), starts in layer.items():
        step, moves = core.transitions[q], proc.transitions[p]
        reach = 0
        for a, at in reads:
            reach |= (after.get((step[a], moves["u"]), 0) & at) << 1
            reach |= after.get((step[a], moves["d"]), 0) & at >> t
        if starts & reach:
            kept[q, p] = starts & reach
    return kept


def _least_pair(core, proc, starts: int, w: str) -> tuple[str, str] | None:
    """The least (r, s) that folds to w, r accepted by the core DFA and s
    by the procedure DFA, starts its u-count mask (`_walk`), or None: the
    least r in core order, then the least s, u before d.  The window walk's
    layers (`_window_layers`) are kept, and a backward pass (`_reaching`)
    keeps only the starts that still reach acceptance.  r is then picked
    one symbol at a time, the least a whose `_step` on a alone reaches a
    start of the next layer, which shrinks to those starts.  A second pass
    keeps the starts r's rest takes to acceptance, and s is picked the same
    way: u if the step on r's symbol without its d moves reaches a start,
    else d.
    O(|w|·|Q|·|P|·|Σ|) big-int operations and |w| + 1 layers."""
    n = len(w)
    layers = list(_window_layers(core, proc, starts, w))
    if len(layers) <= n:
        return None
    core_live, proc_live, pos = core.live(n), proc.live(n), core.alphabet.positions(w)

    def kept(t, a, up_only=False):
        # the starts of layer t + 1 that step t reaches from layer t, reading a
        moved = _step(core, proc, layers[t], t, [(a, pos[a])], core_live[n - t - 1],
                      proc_live[n - t - 1], up_only)
        return {k: m for k, v in moved.items() if (m := v & layers[t + 1].get(k, 0))}

    for t in range(n - 1, -1, -1):
        layers[t] = _reaching(core, proc, layers[t], t, pos.items(), layers[t + 1])
    r = []
    for t in range(n):
        a, layers[t + 1] = next((a, moved) for a in pos if (moved := kept(t, a)))
        r.append(a)
    for t in range(n - 1, -1, -1):
        layers[t] = _reaching(core, proc, layers[t], t, [(r[t], pos[r[t]])], layers[t + 1])
    s = []
    for t in range(n):
        up = kept(t, r[t], up_only=True)
        s.append("u" if up else "d")
        layers[t + 1] = up or kept(t, r[t])  # a d step, as no u step is left
    return "".join(r), "".join(s)


def _check_tables(bits: int, tables: str, pair_cap: int) -> None:
    """ResourceLimit before tables of up to bits bits (window layers, length
    masks) outgrow TABLE_BITS_PER_PAIR bits per candidate pair of the cap."""
    if bits > pair_cap * TABLE_BITS_PER_PAIR:
        raise ResourceLimit(f"{tables} {bits} bits: over the budget of {TABLE_BITS_PER_PAIR} "
                            f"bits per candidate pair of the cap of {pair_cap}")


def _folds(phi: FSystem, n: int):
    """(fold(r, s), r, s) for the pairs at n, a length with pairs: r outer
    and s inner in slice order, the least pair of each fold first.  An s is
    paired only if it is the first with its tail s[1:]: the first step lands
    on an empty stack, so the fold depends on the tail alone.  The first r
    is folded pair by pair, so a caller that stops early does no more work;
    each later r is gathered, fold(r, s)[k] == r[fold_permutation(s)[k]],
    by one itemgetter per kept s, built only when there is a second r."""
    rs, ss = phi.core.enumerate_length(n), phi.proc.enumerate_length(n)
    kept = {}
    for s in ss:
        if s[1:] not in kept:
            kept[s[1:]] = s
            yield fold(rs[0], s), rs[0], s
    gathers = [(itemgetter(*fold_permutation(s)), s)
               for s in (kept.values() if len(rs) > 1 else ())]
    for r in rs[1:]:
        for gather, s in gathers:
            yield "".join(gather(r)), r, s


def fs_member(phi: FSystem, w: str, pair_cap: int = DEFAULT_PAIR_CAP,
              with_witness: bool = False):
    """Decide w in L(Phi); ValueError when pair_cap < 0.  A fold permutes r,
    so a w with a symbol outside the core alphabet is refused before any
    slice, and so is a length where a side has no member.

    With with_witness=True, returns (ok, (r, s) or None), the least pair
    that folds to w: the least r in core order, then the least s.

    A witness search with at most min(FOLD_WITNESS_PAIRS, pair_cap) pairs,
    and a CF/CF decision with at most min(FOLD_CF_CF_DECISION_PAIRS,
    pair_cap) (`_pairs_fit`), fold the pairs (`_folds`) up to the witness.
    Any other query walks fold windows over the DFAs `_walk` keeps per
    length, past the gate (`_count_slices`): `_window_layers` reaches layer
    |w| iff w folds, and `_least_pair` reads the witness off its layers,
    checked first (`_check_tables`).  A REG/REG decision is never refused."""
    if pair_cap < 0:
        raise ValueError("pair_cap must be >= 0")
    n, witness = len(w), None
    if phi.core.alphabet.covers(w) and phi.core.has_length(n) and phi.proc.has_length(n):
        folds = with_witness or phi.core.context_free and phi.proc.context_free
        fold_cap = FOLD_WITNESS_PAIRS if with_witness else FOLD_CF_CF_DECISION_PAIRS
        if folds and _pairs_fit(phi, [n], min(fold_cap, pair_cap)):
            witness = next(((r, s) for folded, r, s in _folds(phi, n) if folded == w), None)
        else:
            _count_slices(phi, n, pair_cap)
            if not with_witness:
                return sum(map(bool, _window_layers(*_walk(phi, n), w))) > n  # no layer is empty
            witness = _least_pair(*_walk(phi, n, pair_cap), w)
    return (witness is not None, witness) if with_witness else witness is not None


def equal_length_pair(phi: FSystem, min_len: int,
                      ceiling: int = DEFAULT_LENGTH_CEILING) -> tuple[str, str]:
    """Smallest n >= min_len with members in both components; within that
    n, the lexicographically smallest r and s."""
    if min(min_len, ceiling) < 0:
        raise ValueError("min_len and ceiling must be >= 0")
    for n in range(min_len, min_len + ceiling + 1):
        if phi.core.has_length(n) and phi.proc.has_length(n):
            return phi.core.smallest_of_length(n), phi.proc.smallest_of_length(n)
    raise NoEqualLengthPair(
        f"no common length in [{min_len}, {min_len + ceiling}]")


def finite_language_system(words) -> FSystem:
    """F-system whose language is exactly the given finite word set:
    Phi = (union of the words, d*), the core their minimal DFA (`from_words`)."""
    words = [*words]
    alphabet = Alphabet(sorted(set("".join(words))) or ["a"])
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
