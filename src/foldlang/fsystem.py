"""F-system semantics: membership and enumeration of L(Phi).

An F-system pairs a core language over Sigma with a folding-procedure
language over {u, d}; its language is every fold of an equal-length
pair.  Each component is seen through the `Language` protocol, which the
regular and the context-free engine both implement.

A route counts only what it builds, before it builds it, against the
pair cap: a context-free slice it enumerates, the pairs it folds, and the
fold stacks and length masks of an enumeration walk.  A regular side is
asked only `has_length`, from its liveness table.  Membership with a
regular side, and enumeration, walk the product of two DFAs forward.
Membership moves the fold windows of w, one int of window starts per
product state, all at once per symbol, by one window step (`_step`), and
a witness (the least pair) is read back off the same walk with its
inverse (`_reaching`).  Enumeration (a fold grows its output from the
middle out) moves the fold stacks, up to the last length with pairs.  A
context-free side enters as the minimal DFA of the slices already counted,
and the frozen F-system keeps what a window walk at n reads (`_walk`).

A decision with a regular side always walks.  A witness search reads its
route off the exact pair count: up to FOLD_WITNESS_PAIRS pairs are folded
(`_folds`), and more are walked; CF/CF enumeration folds up to
FOLD_CF_CF_PAIRS pairs over all its lengths, and walks more.  A
witness's window layers are checked against a budget set by the pair cap
before they grow.  CF/CF membership, and enumeration with witnesses, fold
every equal-length pair, exponential but exact.
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

#: Per-length cap on what a route builds: the strings of a context-free
#: slice, the pairs a fold route folds, or the fold stacks one layer of an
#: enumeration walk makes.
DEFAULT_PAIR_CAP = 500_000

#: Bits a witness's window layers, or an enumeration walk's length masks,
#: may hold per candidate pair of the pair cap: about what one pair costs
#: the fold route at the cap, a short string object (32 MB at the default
#: cap).
TABLE_BITS_PER_PAIR = 512

#: A witness search with at most this many pairs folds them; with more it
#: walks fold windows.  The measured crossover of the two routes' worst
#: cases on cold tables, as the CLI and family verification meet them: a
#: non-member folding every pair against a member walking every layer
#: (BENCH_20.json, route_crossover).
FOLD_WITNESS_PAIRS = 64

#: CF/CF enumeration without witnesses folds its pairs while their sum over
#: the lengths with pairs is at most this, and walks the product of its two
#: slice DFAs above it: the measured crossover of the two routes on cold
#: systems (BENCH_25.json, cf_cf_route).
FOLD_CF_CF_PAIRS = 1024

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
        budget, a count over it may stop early and return budget + 1;
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


def _count_slices(phi: FSystem, n: int, pair_cap: int, folds: bool) -> int:
    """Count the slices at n, a length where both sides have members, that
    a route builds, before it builds them.  A route that folds pairs builds
    both: each side is counted, regular first, against pair_cap // the
    counts before it, so a side over its budget makes a product over the
    cap.  A walk builds only a context-free side's slice, counted against
    pair_cap itself, and asks a regular side nothing more.  ResourceLimit at
    the first side over its budget, and a later side is not counted.
    Returns the product of the counts taken, 1 when none is."""
    sides = (("core", phi.core), ("procedure", phi.proc))
    budget, before, pairs = pair_cap, "", 1
    if phi.core.context_free and not phi.proc.context_free:
        sides = sides[::-1]
    for name, side in sides:
        if not (folds or side.context_free):
            continue
        count = side.count_length(n, budget)
        if count > budget:
            raise ResourceLimit(f"{name} slice at length {n} has more than {budget} "
                                f"strings{before}: over the cap of {pair_cap} candidate pairs")
        if folds:
            budget, before = budget // count, f", against {count} {name} strings"
        pairs *= count
    return pairs


def fs_enumerate(phi: FSystem, max_len: int, pair_cap: int = DEFAULT_PAIR_CAP,
                 with_witnesses: bool = False):
    """All members of L(Phi) of length <= max_len, sorted by (length, lex).

    With with_witnesses=True, returns a dict mapping each member to its
    least witnessing (r, s) pair: the least r in core order, then the
    least s in procedure order.

    The lengths with pairs are read first, both sides' length sets ANDed
    over 0..max_len.  The members are then built by following the output
    over the product of two DFAs (`_follow_product`), so the work grows
    with L(Phi) rather than with |core slice| x |procedure slice|.  The
    walk ends at the last length with pairs, not at max_len.  A
    context-free side enters as the minimal DFA (`from_words`) of its
    slices at those lengths, each counted against pair_cap before it is
    built (`_count_slices`); the walk checks its own fold stacks and
    length masks.  Witnesses (the least pair is part of the contract), and
    CF/CF with at most FOLD_CF_CF_PAIRS pairs in all, take every fold from
    `_folds` instead, the first pair per fold, after the pairs at each
    length are checked against pair_cap.  ResourceLimit at the first count
    over the cap; ValueError when max_len or pair_cap is negative.
    """
    if min(max_len, pair_cap) < 0:
        raise ValueError("max_len and pair_cap must be >= 0")
    lengths = [n for n in range(max_len + 1) if phi.core.has_length(n) and phi.proc.has_length(n)]
    pairs = [_count_slices(phi, n, pair_cap, with_witnesses) for n in lengths]
    key, cf_cf = phi.core.alphabet.sort_key, phi.core.context_free and phi.proc.context_free
    if not (with_witnesses or cf_cf and sum(pairs) <= FOLD_CF_CF_PAIRS):
        if not lengths:
            return []
        walk = _follow_product(*_automata(phi, lengths), lengths[-1], pair_cap)
        symbols = phi.core.alphabet.symbols
        order = None if tuple(sorted(symbols)) == symbols else key  # a str sorts as it is
        return [w for words in walk for w in sorted(words, key=order)]
    witnesses: dict[str, tuple[str, str]] = {}
    for n in lengths:
        _count_slices(phi, n, pair_cap, folds=True)  # CF/CF counted each side alone
        for w, r, s in _folds(phi, n):
            if w not in witnesses:
                witnesses[w] = (r, s)
    return witnesses if with_witnesses else sorted(witnesses, key=lambda w: (len(w), key(w)))


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
    per call.  ResourceLimit before the masks would hold more than
    TABLE_BITS_PER_PAIR bits per candidate pair of the cap, and before a
    layer makes more than pair_cap fold stacks, counted as they are made,
    before equal stacks of a product state merge (`_too_many_stacks`)."""
    bits = (core.n_states + proc.n_states) * (max_len + 1)
    if bits > pair_cap * TABLE_BITS_PER_PAIR:
        raise ResourceLimit(f"length masks up to length {max_len} would hold {bits} bits: over "
                            f"the budget of {TABLE_BITS_PER_PAIR} bits per candidate pair of "
                            f"the cap of {pair_cap}")
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
    if pair_cap is not None:
        _check_tables(core, proc, n, pair_cap)
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


def _check_tables(core, proc, n: int, pair_cap: int) -> None:
    """ResourceLimit before a witness's window layers at n, n + 1 layers
    of up to |Q|·|P| ints of n + 1 bits, would hold more than
    TABLE_BITS_PER_PAIR bits per candidate pair of the cap.  A decision
    keeps one layer at a time, so it is not checked."""
    bits = (n + 1) ** 2 * core.n_states * proc.n_states
    if bits > pair_cap * TABLE_BITS_PER_PAIR:
        raise ResourceLimit(f"witness layers at length {n} would hold up to {bits} bits: over the "
                            f"budget of {TABLE_BITS_PER_PAIR} bits per candidate pair of "
                            f"the cap of {pair_cap}")


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

    CF/CF, and a witness search with at most FOLD_WITNESS_PAIRS pairs by
    exact count, fold the pairs one by one (`_folds`), stopping at the
    witness, once the pairs are within pair_cap (`_count_slices`).  Any
    other query walks fold windows over two DFAs (`_window_layers`, which
    reaches layer |w| iff w folds, and `_least_pair` for a witness), read
    from `_walk`, which the system keeps per length: a context-free side's
    slice is counted against pair_cap first, and a regular side is asked
    only `has_length`, so a REG/REG decision is never refused.  A witness
    walk whose layers would outgrow the budget the cap sets
    (`_check_tables`) is refused with ResourceLimit before they, or its
    u-count mask, are built."""
    if pair_cap < 0:
        raise ValueError("pair_cap must be >= 0")
    n, witness = len(w), None
    if phi.core.alphabet.covers(w) and phi.core.has_length(n) and phi.proc.has_length(n):
        cf_cf = phi.core.context_free and phi.proc.context_free
        _count_slices(phi, n, pair_cap, cf_cf)
        if not (cf_cf or with_witness):
            return sum(map(bool, _window_layers(*_walk(phi, n), w))) > n  # no layer is empty
        if cf_cf or phi.core.count_length(n) * phi.proc.count_length(n) <= FOLD_WITNESS_PAIRS:
            _count_slices(phi, n, pair_cap, folds=True)
            witness = next(((r, s) for folded, r, s in _folds(phi, n) if folded == w), None)
        else:
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
