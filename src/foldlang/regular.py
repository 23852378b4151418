"""Regular-language engine.

`RegularLang` is the regular implementation of the Language protocol
(`foldlang.fsystem.Language`): it holds the query code itself, and
`Automaton` is only the DFA it runs on.  Regexes are parsed to an AST and
compiled to a minimal complete DFA.  The compile builds the Glushkov
position automaton (one position per literal, no epsilon edges), runs the
subset construction over it with each state's follow positions bucketed
by symbol, and minimizes by Moore refinement over per-symbol target
columns.  A finite word set skips the regex compile: `from_words` sorts
it as given, so the caller's sorted runs are merged, not re-sorted, and
builds its minimal DFA word by word, merging each finished branch into a
register of built states, in linear time after the sort.  The pumping
decomposition is taken at the first repeated state along the run.

Each automaton keeps one liveness table, grown on demand: row k is the
frozenset of the states from which some length-k word leads to
acceptance.  Every length query reads it: `has_length` looks up the start
state, and enumeration, `smallest_of_length` and the F-system's walks
prune with it, so a slice is known non-empty before it is built.  Row
k + 1 is the predecessors of row k and depends on it alone, so each
distinct row is built once and equal rows are one object: a periodic
table costs one list slot per length.  Exact word counts are a second
table, built only when `count_length` asks.  Nothing recurses but the
enumeration, log2(n / 64) deep: the parser, the compile and `is_infinite`
use explicit stacks or worklists.

Concrete regex syntax: single-character literals, `|` union (lowest
precedence), juxtaposition for concatenation, postfix `*` `+` `?`,
grouping with `( )`; `()` denotes the empty string and `[]` the empty
language.  No escapes or character classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .errors import DecompositionError, FoldlangError, RegexSyntaxError
from .folding import Alphabet
from .graph import breadth_first, closure, has_cycle


# ---------------------------------------------------------------------------
# AST

class RegexAst:
    pass


@dataclass(frozen=True)
class Empty(RegexAst):
    pass


@dataclass(frozen=True)
class Epsilon(RegexAst):
    pass


@dataclass(frozen=True)
class Literal(RegexAst):
    symbol: str


@dataclass(frozen=True)
class Concat(RegexAst):
    parts: tuple[RegexAst, ...]


@dataclass(frozen=True)
class Union(RegexAst):
    parts: tuple[RegexAst, ...]


@dataclass(frozen=True)
class Star(RegexAst):
    child: RegexAst


@dataclass(frozen=True)
class Plus(RegexAst):
    child: RegexAst


@dataclass(frozen=True)
class Optional(RegexAst):
    child: RegexAst


POSTFIX = {"*": Star, "+": Plus, "?": Optional}


def parse_regex(text: str, alphabet: Alphabet) -> RegexAst:
    """Parser for the concrete syntax above.  Open groups live on an
    explicit stack, so nesting depth is not bounded by recursion."""
    # the open groups, the whole regex first: each a list of alternatives,
    # each alternative a list of parts
    groups: list[list[list[RegexAst]]] = [[[]]]
    pos = 0
    while pos < len(text):
        ch = text[pos]
        pos += 1
        if ch == "|":
            groups[-1].append([])
            continue
        if ch == "(" and text[pos:pos + 1] != ")":
            groups.append([[]])
            continue
        if ch == "(":
            node = Epsilon()
            pos += 1
        elif ch == ")" and len(groups) > 1:
            node = _alternation(groups.pop())
        elif ch == "[":
            if text[pos:pos + 1] != "]":
                raise RegexSyntaxError("expected ']'", pos)
            node = Empty()
            pos += 1
        elif ch in "*+?|)]":
            raise RegexSyntaxError(f"unexpected {ch!r}", pos - 1)
        elif ch not in alphabet:
            raise RegexSyntaxError(f"unknown symbol {ch!r}", pos - 1)
        else:
            node = Literal(ch)
        while pos < len(text) and text[pos] in POSTFIX:
            node = POSTFIX[text[pos]](node)
            pos += 1
        groups[-1][-1].append(node)
    if len(groups) > 1:
        raise RegexSyntaxError("expected ')'", pos)
    return _alternation(groups[0])


def _concat(parts: list[RegexAst]) -> RegexAst:
    if not parts:
        return Epsilon()
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def _alternation(alts: list[list[RegexAst]]) -> RegexAst:
    nodes = [_concat(parts) for parts in alts]
    return nodes[0] if len(nodes) == 1 else Union(tuple(nodes))


# ---------------------------------------------------------------------------
# Position automaton and determinization

_NOTHING = (False, (), ())


def _positions(ast: RegexAst, alphabet: Alphabet):
    """Glushkov position automaton of ast, built with an explicit stack.

    Position p >= 1 is the p-th literal, read left to right, and sym[p] is
    its symbol's index in the alphabet; position 0 is the start.  follow[p]
    holds the positions that may come right after p.  Returns (sym, follow,
    finals), where finals are the positions a match may end on."""
    index = {s: k for k, s in enumerate(alphabet.symbols)}
    sym: list[int | None] = [None]
    follow: list[set[int]] = [set()]
    results = []  # (nullable, first positions, last positions) per subtree
    stack = [(ast, None)]  # (node, None) to visit, (node, kids) to combine
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if isinstance(node, Literal):
                if node.symbol not in index:  # matches no word over the alphabet
                    results.append(_NOTHING)
                    continue
                sym.append(index[node.symbol])
                follow.append(set())
                results.append((False, (len(sym) - 1,), (len(sym) - 1,)))
                continue
            kids = node.parts if isinstance(node, (Concat, Union)) else (
                (node.child,) if isinstance(node, (Star, Plus, Optional)) else ())
            if kids:
                stack.append((node, kids))
                stack += [(kid, None) for kid in reversed(kids)]
                continue
        parts = results[len(results) - len(kids):]
        del results[len(results) - len(kids):]
        if isinstance(node, Empty):
            results.append(_NOTHING)
        elif isinstance(node, Epsilon):
            results.append((True, (), ()))
        elif isinstance(node, Union):
            results.append((any(n for n, _, _ in parts),
                            [p for _, first, _ in parts for p in first],
                            [p for _, _, last in parts for p in last]))
        elif isinstance(node, Concat):
            nullable, ahead, last = True, (), []
            for n, first, part_last in reversed(parts):
                for p in part_last:
                    follow[p].update(ahead)
                if nullable:
                    last.extend(part_last)
                ahead = [*first, *ahead] if n else first
                nullable = nullable and n
            results.append((nullable, ahead, last))
        elif isinstance(node, (Star, Plus, Optional)):
            n, first, last = parts[0]
            if not isinstance(node, Optional):
                for p in last:
                    follow[p].update(first)
            results.append((n or not isinstance(node, Plus), first, last))
        else:
            raise TypeError(node)
    nullable, first, last = results.pop()
    follow[0].update(first)
    return sym, follow, set(last) | ({0} if nullable else set())


class Automaton:
    """Deterministic, complete automaton over an Alphabet.

    States are 0..n-1; transitions is a list of per-state dicts mapping
    every alphabet symbol to a state, kept and not copied.  The language is
    fixed at construction.  Its liveness table (`live`) and its exact
    count table (`counts`, for `count_length` only) are grown on demand, a
    row for k steps never changing."""

    def __init__(self, alphabet: Alphabet, transitions, start: int, accepting):
        self.alphabet = alphabet
        self.transitions = tuple(transitions)
        self.start = start
        self.accepting = frozenset(accepting)
        symbols = set(alphabet.symbols)
        self._preds: list[list[int]] = [[] for _ in self.transitions]  # one per edge
        for q, t in enumerate(self.transitions):
            if t.keys() != symbols:
                raise FoldlangError("automaton must be complete")
            for r in t.values():
                self._preds[r].append(q)
        self._live = [self.accepting]
        self._rows = {self.accepting: self.accepting}  # each distinct row, as kept
        self._after: dict[frozenset[int], frozenset[int]] = {}  # a kept row to the next
        self._counts: list[dict[int, int]] | None = None

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, w: str) -> list[int] | None:
        """State sequence visited on w, length |w|+1; None at the first
        symbol outside the alphabet."""
        states = [self.start]
        for ch in w:
            q = self.transitions[states[-1]].get(ch)
            if q is None:
                return None
            states.append(q)
        return states

    # -- analysis -----------------------------------------------------------

    def _live_states(self) -> set[int]:
        """Reachable states from which an accepting state is reachable."""
        reach = closure([self.start], lambda q: self.transitions[q].values())
        return reach & closure(self.accepting, self._preds.__getitem__)

    def is_infinite(self) -> bool:
        """True iff the accepted language is infinite: a live state lies on
        a cycle of live states."""
        live = self._live_states()
        return has_cycle({q: set(self.transitions[q].values()) & live for q in live})

    def live(self, n: int) -> list[frozenset[int]]:
        """The liveness table grown to cover n: live[k] is the frozenset of
        the states from which some length-k word leads to acceptance.  A
        row is the predecessors of the row before it, built once per
        distinct row: equal rows are one object, and each kept row maps to
        the row after it."""
        table, after = self._live, self._after
        while len(table) <= n:
            row = table[-1]
            following = after.get(row)
            if following is None:
                following = frozenset([q for r in row for q in self._preds[r]])
                following = after[row] = self._rows.setdefault(following, following)
            table.append(following)
        return table

    def counts(self, n: int) -> list[dict[int, int]]:
        """The exact count table grown to cover n: counts[k] maps each
        state from which some length-k word leads to acceptance to the
        number of such words.  A row sums the next row over the predecessor
        edges, so two symbols into the same state count twice."""
        if self._counts is None:
            self._counts = [dict.fromkeys(self.accepting, 1)]
        table, preds = self._counts, self._preds
        while len(table) <= n:
            row: dict[int, int] = {}
            get = row.get
            for r, c in table[-1].items():
                for q in preds[r]:
                    row[q] = get(q, 0) + c
            table.append(row)
        return table


def compile_ast(ast: RegexAst, alphabet: Alphabet) -> Automaton:
    """Compile an AST to a minimal complete DFA.  The subset construction
    over the position automaton, each state's follow positions bucketed by
    symbol, numbers the subsets breadth-first from start 0; Moore
    refinement over per-symbol target columns then merges them.  Blocks are
    numbered by their first state, so the result is numbered breadth-first
    as well."""
    sym, follow, finals = _positions(ast, alphabet)

    def targets(state):
        buckets: list[list[int]] = [[] for _ in alphabet.symbols]
        for p in state:
            for q in follow[p]:
                buckets[sym[q]].append(q)
        return map(frozenset, buckets)

    order, rows = breadth_first(frozenset([0]), targets)
    columns = list(zip(*rows))  # per symbol, each state's target
    accepting = [not state.isdisjoint(finals) for state in order]
    block = accepting
    count = len(set(block))
    while True:
        classes: dict[tuple, int] = {}
        block = [classes.setdefault(sig, len(classes))
                 for sig in zip(block, *([block[r] for r in col] for col in columns))]
        if len(classes) == count:
            break
        count = len(classes)
    first_state: dict[int, int] = {}
    for q, b in enumerate(block):
        first_state.setdefault(b, q)
    transitions = [{s: block[col[q]] for s, col in zip(alphabet.symbols, columns)}
                   for q in first_state.values()]
    return Automaton(alphabet, transitions, 0,
                     {b for b, acc in zip(block, accepting) if acc})


# ---------------------------------------------------------------------------
# Decomposition and the language

@dataclass(frozen=True)
class RegDecomposition:
    """x y z with |y| >= 1, |xy| <= p, and x y^i z accepted for all i >= 0."""

    x: str
    y: str
    z: str

    @property
    def pieces(self) -> tuple[str, str, str]:
        """(x, y, z): fixed and pump pieces alternating, pump at odd indices."""
        return self.x, self.y, self.z

    @property
    def whole(self) -> str:
        return self.x + self.y + self.z

    def pumped(self, i: int) -> str:
        return self.x + self.y * i + self.z


class RegularLang:
    """A regular language: regex text + alphabet, compiled once."""

    context_free = False

    def __init__(self, regex: str, alphabet: Alphabet):
        self.regex = regex
        self.alphabet = alphabet
        self.ast = parse_regex(regex, alphabet)
        self.automaton = compile_ast(self.ast, alphabet)

    @classmethod
    def _around(cls, automaton: Automaton, ast: RegexAst | None = None) -> "RegularLang":
        """The language of an automaton already built, with no regex text."""
        obj = cls.__new__(cls)
        obj.regex, obj.alphabet, obj.ast = None, automaton.alphabet, ast
        obj.automaton = automaton
        return obj

    @classmethod
    def from_ast(cls, ast: RegexAst, alphabet: Alphabet) -> "RegularLang":
        return cls._around(compile_ast(ast, alphabet), ast)

    @classmethod
    def from_words(cls, words, alphabet: Alphabet) -> "RegularLang":
        """The words' finite language, no regex: its minimal DFA, built word by
        word in sorted order (Daciuk et al., Computational Linguistics 2000).  A
        word's key is its symbols' indices as bytes, one each, or four
        (UTF-32-BE) from 256 symbols on, so no symbol starts with byte 255.
        Keys are sorted as given (sorted input takes one linear pass), then
        deduplicated.  Ended by that byte, a key shares with the next the bytes
        above the highest set bit of their XOR, as ints padded to one length.
        The open states along the current key are lists [final, child per
        symbol]; those the next key leaves are replaced, deepest first, by their
        registered equals (0 the dead state) at the child index the key's bytes
        give.  One breadth-first pass numbers the register and writes its rows."""
        width, codec = (1, "latin-1") if len(alphabet) < 256 else (4, "utf-32-be")
        keys = [*dict.fromkeys(sorted(map(str.encode, map(alphabet.sort_key, words), repeat(codec))))]
        ended = [*map(bytes.__add__, keys, repeat(b"\xff")), b"\xff"]  # a lone end byte last
        sizes, values = [*map(len, ended)], [*map(int.from_bytes, ended, repeat("big"))]
        commons = [(a + b - ((x << 8 * b ^ y << 8 * a).bit_length() + 7) // 8) // width
                   for a, b, x, y in zip(sizes, sizes[1:], values, values[1:])]
        blank = [False] + [0] * len(alphabet)
        register, size = {tuple(blank): 0}, 1
        path, depth = [blank[:]], 0  # depth is len(path) - 1
        for key, common in zip(keys, commons):
            index = key if width == 1 else [*map(ord, key.decode(codec))]
            while depth < len(index):
                path.append(blank[:])
                depth += 1
            path[-1][0] = True
            while depth > common:
                state = tuple(path.pop())
                depth -= 1
                q = path[-1][1 + index[depth]] = register.setdefault(state, size)
                size += q == size  # a new state took id size
        root = register.setdefault(tuple(path[0]), size)
        states, symbols = list(register), alphabet.symbols  # by id, as ids follow insertion order
        number, order, transitions = {root: 0}, [root], []
        for q in order:  # order grows while it is walked
            row = {}
            for a, r in zip(symbols, states[q][1:]):
                if r not in number:
                    number[r] = len(order)
                    order.append(r)
                row[a] = number[r]
            transitions.append(row)
        return cls._around(Automaton(alphabet, transitions, 0,
                                     {n for n, q in enumerate(order) if states[q][0]}))

    def member(self, w: str) -> bool:
        states = self.automaton.run(w)
        return states is not None and states[-1] in self.automaton.accepting

    @lru_cache(maxsize=128)
    def enumerate_length(self, n: int) -> tuple[str, ...]:
        """Met in the middle: the live prefixes of length h = n // 2, each
        with its end state and in alphabet order, then each followed by its
        end state's suffixes of length n - h.  A span of over 64 symbols is
        split the same way and its halves joined, so a thin slice takes
        about n log n time, not n^2."""
        if n < 0:
            raise ValueError("n must be >= 0")
        auto = self.automaton
        live = auto.live(n)
        if auto.start not in live[n]:
            return ()
        transitions, symbols = auto.transitions, self.alphabet.symbols

        def spans(origins, left, steps):
            # per origin state, each (word, end state) of steps symbols from it,
            # left symbols short of n, that can still reach acceptance, in
            # alphabet order; plain loops, as a thin slice takes many one-path steps
            if steps > 64:
                half = steps // 2
                heads = spans(origins, left, half)
                tails = spans({q for words in heads.values() for _, q in words},
                              left - half, steps - half)
                return {q: [(x + y, r) for x, p in heads[q] for y, r in tails[p]]
                        for q in origins}
            found = {q: [("", q)] for q in origins}
            for k in range(left - 1, left - steps - 1, -1):
                alive = live[k]
                for origin, words in found.items():
                    extended = []
                    for x, q in words:
                        row = transitions[q]
                        for s in symbols:
                            if row[s] in alive:
                                extended.append((x + s, row[s]))
                    found[origin] = extended
            return found

        h = n // 2
        prefixes = spans({auto.start}, n, h)[auto.start]
        suffixes = {q: [x for x, _ in words]
                    for q, words in spans({q for _, q in prefixes}, n - h, n - h).items()}
        return tuple([p + x for p, q in prefixes for x in suffixes[q]])

    def count_length(self, n: int, budget: int | None = None) -> int:
        """Exact, from the count table, whatever the budget; no string is
        built, and no count row when the liveness table says 0."""
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0")
        return self.automaton.counts(n)[n][self.automaton.start] if self.has_length(n) else 0

    def has_length(self, n: int) -> bool:
        return n >= 0 and self.automaton.start in self.automaton.live(n)[n]

    def smallest_of_length(self, n: int) -> str | None:
        """Greedy walk: the smallest symbol whose target still reaches an
        accepting state in the remaining number of steps."""
        if not self.has_length(n):
            return None
        auto = self.automaton
        live = auto.live(n)
        q = auto.start
        word = []
        for remaining in range(n - 1, -1, -1):
            q, s = next((auto.transitions[q][s], s) for s in self.alphabet
                        if auto.transitions[q][s] in live[remaining])
            word.append(s)
        return "".join(word)

    def pumping_length(self) -> int:
        """The state count."""
        return self.automaton.n_states

    def decompose(self, w: str) -> RegDecomposition:
        """Decompose via the first repeated state along w's run (leftmost,
        shortest loop), so the output is deterministic."""
        auto = self.automaton
        states = auto.run(w)
        if states is None or states[-1] not in auto.accepting:
            raise DecompositionError(f"{w!r} is not a member")
        p = self.pumping_length()
        if len(w) < p:
            raise DecompositionError(f"|w|={len(w)} < pumping length {p}")
        first_seen: dict[int, int] = {}
        for idx, q in enumerate(states):
            if q in first_seen:
                i, j = first_seen[q], idx
                return RegDecomposition(w[:i], w[i:j], w[j:])
            first_seen[q] = idx
        raise FoldlangError("no repeated state within the pumping length")

    def is_infinite(self) -> bool:
        return self.automaton.is_infinite()

    def __repr__(self):
        return f"RegularLang({self.regex!r})"
