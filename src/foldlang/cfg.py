"""Context-free engine.

`ContextFreeLang` is the context-free implementation of the Language
protocol (`foldlang.fsystem.Language`): it holds the query code itself.
Grammars are parsed from a line-oriented syntax and converted to a binary
normal form (A -> BC / A -> a, plus a start-epsilon flag).  Membership is
CYK, enumeration is per length, the pumping decomposition is taken from a
deterministic parse tree, and no DFA is built: an F-system builds a slice's.

Each normal form grammar holds one length table (`LengthTable`): bit l of
`bits[A]` is set iff A derives length l, `rev[A]` holds the same lengths
mirrored, and `at[l]` lists the nonterminals that derive length l.  It is
grown on demand, one length at a time.  A rule beside a lifted terminal
(`T_a` derives only length 1) has one split, so at[l - 1] passes on to
its head; the splits s of other rules A -> B C (B derives s, C derives
l - s) are the set bits of one AND of `bits[B]` with `rev[C]` shifted.
CYK keeps one dict of masks per nonterminal, keyed by the lengths in
`at[l]`; it, the parse tree and the memos join a fixed rule's one split
with no AND.  The tree is two flat lists, parents first.  Length queries
are bit tests, and a memo fills the cells its root reaches by length.

Grammar syntax: one production group per line, `A -> alpha | beta | eps`;
nonterminals are uppercase identifiers, terminals are single lowercase
characters, `eps` is the empty right-hand side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DecompositionError, FoldlangError, GrammarSyntaxError, ResourceLimit
from .folding import Alphabet
from .graph import closure, has_cycle, set_bits

_NONTERM = re.compile(r"[A-Z][A-Za-z0-9_]*$")

#: Most epsilon-free variants one right-hand side may expand to: k nullable
#: symbols make up to 2^k - 1 of them.
MAX_EPSILON_VARIANTS = 2 ** 16


@dataclass
class Grammar:
    nonterminals: tuple[str, ...]
    terminals: Alphabet
    productions: dict[str, list[tuple[str, ...]]]
    start: str


def parse_grammar(text: str, alphabet: Alphabet | None = None) -> Grammar:
    """Parse grammar text; the first line's head is the start symbol.

    When no alphabet is given, it is inferred from the terminals in order
    of first appearance.
    """
    productions: dict[str, list[tuple[str, ...]]] = {}
    heads: list[str] = []
    terminals_seen: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarSyntaxError(f"line {lineno}: expected 'A -> ...'")
        head, rhs_text = line.split("->", 1)
        head = head.strip()
        if not _NONTERM.match(head):
            raise GrammarSyntaxError(f"line {lineno}: bad nonterminal {head!r}")
        if head not in productions:
            productions[head] = []
            heads.append(head)
        for alt in rhs_text.split("|"):
            symbols = alt.split()
            if symbols == ["eps"]:
                productions[head].append(())
                continue
            if not symbols:
                raise GrammarSyntaxError(f"line {lineno}: empty alternative (use 'eps')")
            rhs = []
            for sym in symbols:
                if _NONTERM.match(sym):
                    rhs.append(sym)
                elif len(sym) == 1 and sym.islower():
                    if alphabet is not None and sym not in alphabet:
                        raise GrammarSyntaxError(
                            f"line {lineno}: terminal {sym!r} not in alphabet")
                    if sym not in terminals_seen:
                        terminals_seen.append(sym)
                    rhs.append(sym)
                else:
                    raise GrammarSyntaxError(f"line {lineno}: bad symbol {sym!r}")
            productions[head].append(tuple(rhs))
    if not heads:
        raise GrammarSyntaxError("no productions")
    nonterminals = tuple(heads)
    for head, alts in productions.items():
        for rhs in alts:
            for sym in rhs:
                if _NONTERM.match(sym) and sym not in productions:
                    raise GrammarSyntaxError(f"undeclared nonterminal {sym!r}")
    if alphabet is None:
        alphabet = Alphabet(terminals_seen or ["a"])
    return Grammar(nonterminals, alphabet, productions, heads[0])


# ---------------------------------------------------------------------------
# Normal form

@dataclass
class _NormalFormGrammar:
    """Binary normal form: A -> B C and A -> a only; the empty string is
    derivable exactly when start_epsilon is set."""

    nonterminals: tuple[str, ...]
    terminals: Alphabet
    bin_prods: dict[str, list[tuple[str, str]]]
    term_prods: dict[str, list[str]]
    start: str
    start_epsilon: bool
    lengths: LengthTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lengths = LengthTable(self)


class LengthTable:
    """Derivable lengths per nonterminal, for every length up to `limit`.

    bits[A] has bit l set iff A derives a string of length l (l >= 1), and
    rev[A] is its mirror, with bit cap - l set instead; `cap` only grows,
    doubling.  at[l] lists the nonterminals that derive length l, in
    normal-form order.  rules[A] lists A's rules as (B, C, side): side is
    1 when B has no binary rule, so derives only length 1 and the one
    split is s = 1; -1 when only C has none, so s = l - 1; 0 otherwise.
    feeds[C] lists the heads A of the fixed rules A -> T C and A -> C T:
    A derives l when C derives l - 1.  Only the other rules, the
    (A, B, C) in `tested`, are tested with an AND."""

    def __init__(self, nf: _NormalFormGrammar):
        self.limit = self.cap = 1
        self.at = [[], [a for a in nf.nonterminals if nf.term_prods[a]]]
        self.bits = {a: 2 if nf.term_prods[a] else 0 for a in nf.nonterminals}
        self.rev = {a: bits >> 1 for a, bits in self.bits.items()}
        self.rank = {a: i for i, a in enumerate(nf.nonterminals)}
        self.feeds: dict[str, set[str]] = {a: set() for a in nf.nonterminals}
        self.tested: list[tuple[str, str, str]] = []
        prods = nf.bin_prods
        self.rules = {a: [(b, c, 1 if not prods[b] else -1 if not prods[c] else 0)
                          for b, c in alts] for a, alts in prods.items()}
        for a, rules in self.rules.items():
            for b, c, side in rules:
                if side:
                    self.feeds[c if side > 0 else b].add(a)
                else:
                    self.tested.append((a, b, c))

    def upto(self, n: int) -> LengthTable:
        """Grow the table to cover every length up to n; returns self.  Each
        length's shifts are made once, and a one-head row is not sorted."""
        if n <= self.limit:
            return self
        if n > self.cap:
            grow = max(n, 2 * self.cap) - self.cap
            self.rev = {a: bits << grow for a, bits in self.rev.items()}
            self.cap += grow
        bits, rev, at, feeds, tested = self.bits, self.rev, self.at, self.feeds, self.tested
        for l in range(self.limit + 1, n + 1):
            shift = self.cap - l
            heads: set[str] = set()
            for x in at[l - 1]:
                heads.update(feeds[x])
            # a tested split's halves are shorter than l: set in earlier rounds
            for a, b, c in tested:
                if a not in heads and bits[b] & (rev[c] >> shift):
                    heads.add(a)
            at.append(sorted(heads, key=self.rank.__getitem__) if len(heads) > 1 else list(heads))
            bit, mirrored = 1 << l, 1 << shift
            for a in at[l]:
                bits[a] |= bit
                rev[a] |= mirrored
        self.limit = n
        return self

    def splits(self, b: str, c: str, l: int):
        """Every s with s in L(B) and l - s in L(C), ascending; the table
        must cover l."""
        return set_bits(self.bits[b] & (self.rev[c] >> (self.cap - l)))

    def rule_splits(self, b: str, c: str, side: int, l: int):
        """The splits of the rule (B, C, side) from `rules` at length l: a
        fixed rule's one split if both halves derive it, or else `splits`."""
        if side:
            s = 1 if side > 0 else l - 1
            return (s,) if self.bits[b] >> s & self.bits[c] >> (l - s) & 1 else ()
        return self.splits(b, c, l)


def _generating(prods) -> set[str]:
    """Nonterminals that derive some terminal string, from a worklist in
    time linear in the grammar: each production is [head, its nonterminal
    occurrences not yet known to generate]."""
    uses: dict[str, list[list]] = {nt: [] for nt in prods}
    ready = []
    for head, alts in prods.items():
        for rhs in alts:
            nts = [s for s in rhs if s in prods]
            entry = [head, len(nts)]
            for s in nts:
                uses[s].append(entry)
            if not nts:
                ready.append(head)
    generating: set[str] = set()
    while ready:
        head = ready.pop()
        if head not in generating:
            generating.add(head)
            for entry in uses[head]:
                entry[1] -= 1
                if not entry[1]:
                    ready.append(entry[0])
    return generating


def _nullable_set(prods) -> set[str]:
    """Nonterminals that derive the empty string: those that generate
    using only productions with no terminal."""
    return _generating({head: [rhs for rhs in alts if all(s in prods for s in rhs)]
                        for head, alts in prods.items()})


def _prune_useless(nonterminals, prods, start):
    """Drop non-generating and unreachable nonterminals."""
    generating = _generating(prods)
    if start not in generating:
        return (start,), {start: []}
    keep = closure([start], lambda a: [s for rhs in prods[a] for s in rhs
                                       if s in generating])
    new_prods = {head: [rhs for rhs in prods[head]
                        if all(s not in prods or s in keep for s in rhs)]
                 for head in keep}
    order = tuple(nt for nt in nonterminals if nt in keep)
    return order, new_prods


def _drop_nullable(rhs, nullable) -> set[tuple[str, ...]]:
    """The distinct non-empty subsequences of rhs that keep every symbol
    not in nullable, built one symbol at a time; ResourceLimit past
    MAX_EPSILON_VARIANTS of them.  Their number never falls as symbols
    are added, so the check is made after each one."""
    kept = {()}
    for s in rhs:
        kept = {k + (s,) for k in kept} | (kept if s in nullable else set())
        if len(kept) - (() in kept) > MAX_EPSILON_VARIANTS:
            raise ResourceLimit(f"a right-hand side of {len(rhs)} symbols has more than "
                                f"{MAX_EPSILON_VARIANTS} epsilon-free variants")
    return kept - {()}


def _binarize(head, rhs, bin_prods, suffix_nt, fresh) -> None:
    """Binary productions for head -> rhs (len >= 2): head -> rhs[0] X,
    X -> rhs[1] X1, ..., down to a link onto the last two symbols.  Each
    suffix gets one nonterminal, shared through suffix_nt; a new one is
    named fresh("X"), outermost first.  A loop, one link per symbol."""
    while len(rhs) > 2 and rhs[1:] not in suffix_nt:
        suffix_nt[rhs[1:]] = fresh("X")
        bin_prods[head].append((rhs[0], suffix_nt[rhs[1:]]))
        head, rhs = suffix_nt[rhs[1:]], rhs[1:]
    bin_prods[head].append(rhs if len(rhs) == 2 else (rhs[0], suffix_nt[rhs[1:]]))


def to_normal_form(g: Grammar) -> _NormalFormGrammar:
    nonterminals, prods = _prune_useless(g.nonterminals, g.productions, g.start)

    # epsilon elimination
    nullable = _nullable_set(prods)
    start_epsilon = g.start in nullable
    eps_free: dict[str, set[tuple[str, ...]]] = {nt: set() for nt in nonterminals}
    for head, alts in prods.items():
        for rhs in alts:
            eps_free[head] |= _drop_nullable(rhs, nullable)

    # unit-production elimination: A gets the other productions of every
    # B it reaches through A -> B steps
    units = {a: [rhs[0] for rhs in eps_free[a] if len(rhs) == 1 and rhs[0] in eps_free]
             for a in nonterminals}
    no_unit = {a: {rhs for b in closure([a], units.__getitem__) for rhs in eps_free[b]
                   if not (len(rhs) == 1 and rhs[0] in eps_free)}
               for a in nonterminals}

    # terminal lifting and binarization
    order = list(nonterminals)
    bin_prods: dict[str, list[tuple[str, str]]] = {nt: [] for nt in order}
    term_prods: dict[str, list[str]] = {nt: [] for nt in order}
    term_nt: dict[str, str] = {}
    suffix_nt: dict[tuple[str, ...], str] = {}
    taken: dict[str, int] = {}  # base -> a k whose every smaller k is taken

    def fresh(base):
        k = taken.get(base, 0)
        name = f"{base}{k or ''}"
        while name in bin_prods:
            k += 1
            name = f"{base}{k}"
        taken[base] = k + 1
        order.append(name)
        bin_prods[name] = []
        term_prods[name] = []
        return name

    def lift(sym):
        if sym in eps_free:
            return sym
        if sym not in term_nt:
            nt = fresh(f"T_{sym}")
            term_prods[nt].append(sym)
            term_nt[sym] = nt
        return term_nt[sym]

    for a in nonterminals:
        for rhs in sorted(no_unit[a]):
            if len(rhs) == 1:
                term_prods[a].append(rhs[0])
            else:
                _binarize(a, tuple(lift(s) for s in rhs), bin_prods, suffix_nt, fresh)

    # the eliminations can leave nonterminals that are unreachable or
    # derive nothing; the start symbol too, when it derives only epsilon
    order2, kept = _prune_useless(
        tuple(order), {nt: bin_prods[nt] + [(t,) for t in term_prods[nt]] for nt in order},
        g.start)
    return _NormalFormGrammar(
        nonterminals=order2,
        terminals=g.terminals,
        bin_prods={nt: sorted(p for p in kept[nt] if len(p) == 2) for nt in order2},
        term_prods={nt: sorted(p[0] for p in kept[nt] if len(p) == 1) for nt in order2},
        start=g.start,
        start_epsilon=start_epsilon,
    )


# ---------------------------------------------------------------------------
# CYK membership (bitmask over start positions, per nonterminal and span)

def _cyk_masks(nf: _NormalFormGrammar, w: str) -> dict[str, dict[int, int]]:
    """masks[A][l] has bit i set iff A derives w[i:i+l]: one dict per
    nonterminal, with non-zero masks only, at lengths A derives.  A fixed
    rule (`LengthTable.rules`) joins its one split, the others the splits
    the length table allows.  Every symbol of w must be a terminal."""
    table = nf.lengths.upto(len(w))
    positions = nf.terminals.positions(w)  # per symbol, a mask of where it is in w
    # distinct terminals hold disjoint positions, so their masks sum to their union
    masks = {a: {1: m} if (m := sum(positions.get(t, 0) for t in nf.term_prods[a])) else {}
             for a in nf.nonterminals}
    rules = {a: [(masks[b], masks[c], side, table.bits[b], table.rev[c]) for b, c, side in alts]
             for a, alts in table.rules.items()}
    for l in range(2, len(w) + 1):
        shift = table.cap - l
        for a in table.at[l]:
            m = 0
            for left, right, side, lengths, mirrored in rules[a]:
                if side:
                    s = 1 if side > 0 else l - 1
                    m |= left.get(s, 0) & (right.get(l - s, 0) >> s)
                    continue
                for s in set_bits(lengths & (mirrored >> shift)):
                    m |= left.get(s, 0) & (right.get(l - s, 0) >> s)
            if m:  # the right half starts s after the left, so m fits w
                masks[a][l] = m
    return masks


# ---------------------------------------------------------------------------
# Pumping decomposition

@dataclass(frozen=True)
class CfgDecomposition:
    """u v x y z with |vy| >= 1, |vxy| <= p, u v^i x y^i z in L for i >= 0.

    v or y may individually be empty; only |vy| >= 1 is guaranteed."""

    u: str
    v: str
    x: str
    y: str
    z: str

    @property
    def pieces(self) -> tuple[str, str, str, str, str]:
        """(u, v, x, y, z): fixed and pump pieces alternating, pump at odd
        indices."""
        return self.u, self.v, self.x, self.y, self.z

    @property
    def whole(self) -> str:
        return self.u + self.v + self.x + self.y + self.z

    def pumped(self, i: int) -> str:
        return self.u + self.v * i + self.x + self.y * i + self.z


def _build_tree(nf: _NormalFormGrammar, masks, w: str):
    """Deterministic parse tree of w (first production, smallest split),
    built top-down without recursion, as two flat lists, parents first:
    nodes[k] is (A, start, length), and left[k] is the index of its left
    child, whose right sibling comes next, or 0 for a leaf."""
    table = nf.lengths
    nodes, left = [(nf.start, 0, len(w))], []
    for a, i, l in nodes:  # nodes grows while it is walked
        if l == 1 and w[i] in nf.term_prods[a]:
            left.append(0)
            continue
        split = next(((b, s, c) for b, c, side in table.rules[a]
                      for s in table.rule_splits(b, c, side, l)
                      if masks[b].get(s, 0) >> i & 1
                      and masks[c].get(l - s, 0) >> (i + s) & 1), None)
        if split is None:
            raise FoldlangError(f"no derivation for {a} over w[{i}:{i + l}]")
        b, s, c = split
        left.append(len(nodes))
        nodes += [(b, i, s), (c, i + s, l - s)]
    return nodes, left


def _longest_path(nodes, left) -> list[tuple[str, int, int]]:
    """Root-to-leaf path through the taller child, the left one on a tie,
    as (A, start, length) nodes.  Every child comes after its parent, so
    one reverse pass over the lists finds the heights."""
    height = [1] * len(nodes)
    for k in range(len(nodes) - 1, -1, -1):
        if left[k]:
            height[k] = 1 + max(height[left[k]], height[left[k] + 1])
    path, k = [nodes[0]], 0
    while left[k]:
        k = left[k] + (height[left[k] + 1] > height[left[k]])
        path.append(nodes[k])
    return path


# ---------------------------------------------------------------------------
# The language

class ContextFreeLang:
    """A context-free language: grammar text, normalized once.  Strings
    and smallest strings are memoised per (nonterminal, length); only
    splits from the length table are visited, so every entry below the
    queried root is non-empty."""

    context_free = True

    def __init__(self, grammar_text: str, alphabet: Alphabet | None = None):
        self.grammar = parse_grammar(grammar_text, alphabet)
        self.alphabet = self.grammar.terminals
        self.normal_form = to_normal_form(self.grammar)
        self._strings: dict[tuple[str, int], tuple[str, ...]] = {}
        self._least: dict[tuple[str, int], str] = {}

    def member(self, w: str) -> bool:
        nf = self.normal_form
        if not w:
            return nf.start_epsilon
        if not nf.terminals.covers(w):
            return False
        return bool(_cyk_masks(nf, w)[nf.start].get(len(w), 0) & 1)

    def enumerate_length(self, n: int) -> tuple[str, ...]:
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._slice(n, None)

    def count_length(self, n: int, budget: int | None = None) -> int:
        """Exact: the size of the (memoised) slice.  A count of derivations
        would only bound it, since a grammar may be ambiguous.  With a
        budget, building stops at the first join over it and budget + 1 is
        returned.  The count is then surely over budget: a slice under
        (start, n) is only joined to non-empty slices, so it is no larger
        than slice n.  A refused call drops the memo entries it added.  A
        slice already kept is counted as it stands, whatever the budget."""
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0")
        if n < 0:
            return 0
        known = self._strings.get((self.normal_form.start, n))
        if known is not None:
            return len(known)
        if budget == 0:  # over budget iff not empty
            return int(self.has_length(n))
        kept = len(self._strings)
        try:
            return len(self._slice(n, budget))
        except ResourceLimit:
            while len(self._strings) > kept:
                self._strings.popitem()
            return budget + 1

    def _slice(self, n: int, budget: int | None) -> tuple[str, ...]:
        """Slice n, memoised per (nonterminal, length); ResourceLimit before
        a join would hold more than budget strings (None: no bound).  A part
        of a join holds |xs|·|ys| distinct strings, checked first."""
        if n == 0:
            return ("",) if self.normal_form.start_epsilon else ()
        key = self.alphabet.sort_key
        most = float("inf") if budget is None else budget

        def join(pairs):
            for xs, ys in pairs:
                if len(xs) * len(ys) > most:
                    raise ResourceLimit(f"a slice over the budget of {budget}")
            if len(pairs) == 1:  # fixed-length halves: sorted, distinct products
                return tuple(x + y for xs, ys in pairs for x in xs for y in ys)
            strings: set[str] = set()
            for xs, ys in pairs:
                strings.update([x + y for x in xs for y in ys])
                if len(strings) > most:
                    raise ResourceLimit(f"a slice over the budget of {budget}")
            return tuple(sorted(strings, key=key))

        return self._solve(self._strings, n,
                           lambda terms: tuple(sorted(terms, key=key)), join)

    def has_length(self, n: int) -> bool:
        nf = self.normal_form
        if n < 1:
            return n == 0 and nf.start_epsilon
        return bool(nf.lengths.upto(n).bits[nf.start] >> n & 1)

    def smallest_of_length(self, n: int) -> str | None:
        """Exact because all candidates per split have equal length."""
        if n == 0:
            return "" if self.normal_form.start_epsilon else None
        if not self.has_length(n):
            return None
        key = self.alphabet.sort_key

        def join(pairs):
            cands = [x + y for x, y in pairs]
            return cands[0] if len(cands) == 1 else min(cands, key=key)

        return self._solve(self._least, n, lambda terms: min(terms, key=key), join)

    def _solve(self, memo, n, leaf, join):
        """memo[(start, n)], filling first every entry it needs: the cells
        (A, l) it reaches through entries not yet kept, collected top-down
        with the part keys of their `rule_splits` and combined by ascending
        length.  leaf gets A's terminals, join the (B, C) entries of A's splits."""
        nf = self.normal_form
        root = (nf.start, n)
        if root in memo:
            return memo[root]
        table = nf.lengths.upto(n)
        cells: dict[tuple, list] = {root: []}  # cell: the part keys of its splits
        order = [root]
        for cell in order:  # order grows while it is walked
            a, l = cell
            for b, c, side in table.rules[a]:
                for s in table.rule_splits(b, c, side, l):
                    parts = (b, s), (c, l - s)
                    cells[cell].append(parts)
                    for part in parts:
                        if part not in cells and part not in memo:
                            cells[part] = []
                            order.append(part)
        for cell in sorted(order, key=lambda cell: cell[1]):
            memo[cell] = (leaf(nf.term_prods[cell[0]]) if cell[1] == 1 else
                          join([(memo[x], memo[y]) for x, y in cells[cell]]))
        return memo[root]

    def pumping_length(self) -> int:
        """2^(k+1) for k nonterminals of the normal form."""
        return 2 ** (len(self.normal_form.nonterminals) + 1)

    def decompose(self, w: str) -> CfgDecomposition:
        """Decompose via the lowest repeated-nonterminal pair on the longest
        root-to-leaf path of a deterministic parse tree."""
        nf = self.normal_form
        masks = _cyk_masks(nf, w) if nf.terminals.covers(w) else {nf.start: {}}
        if not (masks[nf.start].get(len(w), 0) & 1 if w else nf.start_epsilon):
            raise DecompositionError(f"{w!r} is not a member")
        p = self.pumping_length()
        if len(w) < p:
            raise DecompositionError(f"|w|={len(w)} < pumping length {p}")
        path = _longest_path(*_build_tree(nf, masks, w))
        tail = path[-(len(nf.nonterminals) + 1):]
        seen: dict[str, tuple[int, int]] = {}  # A: (start, length), lowest first
        for a, i, l in reversed(tail):
            if a in seen:
                j, k = seen[a]  # the lower A, inside the upper one
                return CfgDecomposition(w[:i], w[i:j], w[j:j + k], w[j + k:i + l], w[i + l:])
            seen[a] = (i, l)
        raise FoldlangError("no repeated nonterminal on the longest path")

    def is_infinite(self) -> bool:
        """Infinite iff the digraph of A -> B C edges has a cycle: every
        nonterminal of the normal form is useful, and each binary step
        derives at least one terminal beside the repeated nonterminal."""
        return has_cycle({a: {x for bc in alts for x in bc}
                          for a, alts in self.normal_form.bin_prods.items()})

    def __repr__(self):
        return f"ContextFreeLang(start={self.grammar.start!r})"
