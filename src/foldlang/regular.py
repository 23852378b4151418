"""Regular-language engine.

Regexes are parsed to an AST, compiled through a Thompson NFA and subset
construction to a complete DFA, then minimized.  The automaton supports
membership, per-length enumeration, and the regular pumping-lemma
decomposition (first repeated state along the run).

Concrete regex syntax: single-character literals, `|` union (lowest
precedence), juxtaposition for concatenation, postfix `*` `+` `?`,
grouping with `( )`; `()` denotes the empty string and `[]` the empty
language.  No escapes or character classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DecompositionError, RegexSyntaxError
from .folding import Alphabet


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
    """Recursive-descent parser for the concrete syntax above."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def parse_union():
        nonlocal pos
        parts = [parse_concat()]
        while peek() == "|":
            pos += 1
            parts.append(parse_concat())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def parse_concat():
        parts = []
        while peek() is not None and peek() not in "|)":
            parts.append(parse_postfix())
        if not parts:
            return Epsilon()
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix():
        nonlocal pos
        node = parse_atom()
        while peek() in POSTFIX:
            node = POSTFIX[text[pos]](node)
            pos += 1
        return node

    def parse_atom():
        nonlocal pos
        ch = peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of regex", pos)
        if ch == "(":
            pos += 1
            if peek() == ")":
                pos += 1
                return Epsilon()
            node = parse_union()
            if peek() != ")":
                raise RegexSyntaxError("expected ')'", pos)
            pos += 1
            return node
        if ch == "[":
            pos += 1
            if peek() != "]":
                raise RegexSyntaxError("expected ']'", pos)
            pos += 1
            return Empty()
        if ch in "*+?|)]":
            raise RegexSyntaxError(f"unexpected {ch!r}", pos)
        if ch not in alphabet:
            raise RegexSyntaxError(f"unknown symbol {ch!r}", pos)
        pos += 1
        return Literal(ch)

    node = parse_union()
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return node


def literal_word(word: str) -> RegexAst:
    """AST matching exactly the given word (no parsing involved)."""
    if not word:
        return Epsilon()
    if len(word) == 1:
        return Literal(word)
    return Concat(tuple(Literal(ch) for ch in word))


# ---------------------------------------------------------------------------
# NFA construction and determinization

class _Nfa:
    def __init__(self):
        self.n = 0
        self.eps: list[set[int]] = []
        self.edges: list[dict[str, set[int]]] = []

    def new_state(self):
        self.eps.append(set())
        self.edges.append({})
        self.n += 1
        return self.n - 1

    def add_eps(self, a, b):
        self.eps[a].add(b)

    def add_edge(self, a, sym, b):
        self.edges[a].setdefault(sym, set()).add(b)


def _thompson(nfa: _Nfa, node: RegexAst) -> tuple[int, int]:
    start = nfa.new_state()
    end = nfa.new_state()
    if isinstance(node, Empty):
        pass
    elif isinstance(node, Epsilon):
        nfa.add_eps(start, end)
    elif isinstance(node, Literal):
        nfa.add_edge(start, node.symbol, end)
    elif isinstance(node, Concat):
        cur = start
        for part in node.parts:
            s, e = _thompson(nfa, part)
            nfa.add_eps(cur, s)
            cur = e
        nfa.add_eps(cur, end)
    elif isinstance(node, Union):
        for part in node.parts:
            s, e = _thompson(nfa, part)
            nfa.add_eps(start, s)
            nfa.add_eps(e, end)
    elif isinstance(node, (Star, Plus, Optional)):
        s, e = _thompson(nfa, node.child)
        nfa.add_eps(start, s)
        nfa.add_eps(e, end)
        if isinstance(node, (Star, Optional)):
            nfa.add_eps(start, end)
        if isinstance(node, (Star, Plus)):
            nfa.add_eps(e, s)
    else:
        raise TypeError(node)
    return start, end


def _eps_closure(nfa: _Nfa, states: frozenset[int]) -> frozenset[int]:
    stack = list(states)
    closure = set(states)
    while stack:
        q = stack.pop()
        for r in nfa.eps[q]:
            if r not in closure:
                closure.add(r)
                stack.append(r)
    return frozenset(closure)


class Automaton:
    """Deterministic, complete automaton over an Alphabet.

    States are 0..n-1; transitions is a list of per-state dicts mapping
    every alphabet symbol to a state.  Immutable after construction.
    """

    def __init__(self, alphabet: Alphabet, transitions, start: int, accepting):
        self.alphabet = alphabet
        self.transitions = tuple(dict(t) for t in transitions)
        self.start = start
        self.accepting = frozenset(accepting)
        for t in self.transitions:
            assert set(t) == set(alphabet.symbols), "automaton must be complete"

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][symbol]

    def run(self, w: str) -> list[int]:
        """State sequence visited on w, length |w|+1."""
        states = [self.start]
        q = self.start
        for ch in self.alphabet.validate(w):
            q = self.transitions[q][ch]
            states.append(q)
        return states

    # -- analysis -----------------------------------------------------------

    def _live_states(self) -> set[int]:
        """Reachable states from which an accepting state is reachable."""
        reach = {self.start}
        frontier = [self.start]
        while frontier:
            q = frontier.pop()
            for r in self.transitions[q].values():
                if r not in reach:
                    reach.add(r)
                    frontier.append(r)
        rev: dict[int, set[int]] = {q: set() for q in range(self.n_states)}
        for q, t in enumerate(self.transitions):
            for r in t.values():
                rev[r].add(q)
        co = set(self.accepting)
        frontier = list(co)
        while frontier:
            q = frontier.pop()
            for r in rev[q]:
                if r not in co:
                    co.add(r)
                    frontier.append(r)
        return reach & co

    def is_infinite(self) -> bool:
        """True iff the accepted language is infinite (a live state on a cycle)."""
        live = self._live_states()
        color: dict[int, int] = {}

        def dfs(q):
            color[q] = 1
            for r in self.transitions[q].values():
                if r not in live:
                    continue
                if color.get(r) == 1:
                    return True
                if r not in color and dfs(r):
                    return True
            color[q] = 2
            return False

        return any(dfs(q) for q in live if q not in color)

    def _accepting_within(self, max_len: int) -> list[set[int]]:
        """within[k] = states from which some accepting state is reachable
        in exactly k steps."""
        within = [set(self.accepting)]
        for _ in range(max_len):
            prev = within[-1]
            cur = {q for q, t in enumerate(self.transitions)
                   if any(r in prev for r in t.values())}
            within.append(cur)
        return within


def compile_ast(ast: RegexAst, alphabet: Alphabet) -> Automaton:
    """Compile an AST to a complete DFA, minimized."""
    nfa = _Nfa()
    start, end = _thompson(nfa, ast)
    start_set = _eps_closure(nfa, frozenset([start]))
    dfa_index: dict[frozenset[int], int] = {start_set: 0}
    transitions: list[dict[str, int]] = []
    order = [start_set]
    i = 0
    while i < len(order):
        cur = order[i]
        row = {}
        for sym in alphabet:
            nxt = set()
            for q in cur:
                nxt |= nfa.edges[q].get(sym, set())
            nxt = _eps_closure(nfa, frozenset(nxt))
            if nxt not in dfa_index:
                dfa_index[nxt] = len(order)
                order.append(nxt)
            row[sym] = dfa_index[nxt]
        transitions.append(row)
        i += 1
    accepting = {dfa_index[s] for s in order if end in s}
    dfa = Automaton(alphabet, transitions, 0, accepting)
    return _minimize(dfa)


def _minimize(dfa: Automaton) -> Automaton:
    """Moore partition refinement; keeps the automaton complete."""
    n = dfa.n_states
    # restrict to reachable states first
    reach = [dfa.start]
    seen = {dfa.start}
    for q in reach:
        for r in dfa.transitions[q].values():
            if r not in seen:
                seen.add(r)
                reach.append(r)
    states = reach
    block = {q: (q in dfa.accepting) for q in states}
    while True:
        sig = {q: (block[q],) + tuple(block[dfa.transitions[q][s]] for s in dfa.alphabet)
               for q in states}
        classes: dict[tuple, int] = {}
        new_block = {}
        for q in states:
            new_block[q] = classes.setdefault(sig[q], len(classes))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    n_blocks = len(set(block.values()))
    transitions = [dict() for _ in range(n_blocks)]
    accepting = set()
    for q in states:
        b = block[q]
        transitions[b] = {s: block[dfa.transitions[q][s]] for s in dfa.alphabet}
        if q in dfa.accepting:
            accepting.add(b)
    return Automaton(dfa.alphabet, transitions, block[dfa.start], accepting)


# ---------------------------------------------------------------------------
# Queries

def member(auto: Automaton, w: str) -> bool:
    return auto.run(w)[-1] in auto.accepting


def enumerate_length(auto: Automaton, n: int) -> list[str]:
    """All accepted strings of length n, lexicographic by alphabet order.

    Descends transitions, pruning prefixes that cannot reach an accepting
    state in the remaining number of steps.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    within = auto._accepting_within(n)
    out: list[str] = []
    prefix: list[str] = []

    def descend(q, remaining):
        if remaining == 0:
            if q in auto.accepting:
                out.append("".join(prefix))
            return
        for sym in auto.alphabet:
            r = auto.transitions[q][sym]
            if r in within[remaining - 1]:
                prefix.append(sym)
                descend(r, remaining - 1)
                prefix.pop()

    descend(auto.start, n)
    return out


def has_length(auto: Automaton, n: int) -> bool:
    """True iff the language contains a string of length n."""
    cur = {auto.start}
    for _ in range(n):
        cur = {auto.transitions[q][s] for q in cur for s in auto.alphabet}
    return bool(cur & auto.accepting)


def smallest_of_length(auto: Automaton, n: int) -> str | None:
    """Lexicographically smallest accepted string of length n, or None."""
    within = auto._accepting_within(n)
    word = []
    q = auto.start
    if q not in within[n]:
        return None
    for remaining in range(n, 0, -1):
        for sym in auto.alphabet:
            r = auto.transitions[q][sym]
            if r in within[remaining - 1]:
                word.append(sym)
                q = r
                break
        else:
            return None
    return "".join(word)


def pumping_length(auto: Automaton) -> int:
    """The state count, a valid pumping length for the accepted language."""
    return auto.n_states


@dataclass(frozen=True)
class RegDecomposition:
    """x y z with |y| >= 1, |xy| <= p, and x y^i z accepted for all i >= 0."""

    x: str
    y: str
    z: str

    @property
    def whole(self) -> str:
        return self.x + self.y + self.z

    def pumped(self, i: int) -> str:
        return self.x + self.y * i + self.z


def reg_decompose(auto: Automaton, w: str) -> RegDecomposition:
    """Decompose via the first repeated state along w's run (leftmost,
    shortest loop), so the output is deterministic."""
    if not member(auto, w):
        raise DecompositionError(f"{w!r} is not a member")
    p = pumping_length(auto)
    if len(w) < p:
        raise DecompositionError(f"|w|={len(w)} < pumping length {p}")
    states = auto.run(w)
    first_seen: dict[int, int] = {}
    for idx, q in enumerate(states):
        if q in first_seen:
            i, j = first_seen[q], idx
            return RegDecomposition(w[:i], w[i:j], w[j:])
        first_seen[q] = idx
    raise AssertionError("no repeated state within pumping length")  # unreachable


# ---------------------------------------------------------------------------
# Language facade

class RegularLang:
    """A regular language: regex text + alphabet, compiled once."""

    def __init__(self, regex: str, alphabet: Alphabet):
        self.regex = regex
        self.alphabet = alphabet
        self.ast = parse_regex(regex, alphabet)
        self.automaton = compile_ast(self.ast, alphabet)

    @classmethod
    def from_ast(cls, ast: RegexAst, alphabet: Alphabet) -> "RegularLang":
        obj = cls.__new__(cls)
        obj.regex = None
        obj.alphabet = alphabet
        obj.ast = ast
        obj.automaton = compile_ast(ast, alphabet)
        return obj

    def member(self, w: str) -> bool:
        return member(self.automaton, w)

    @lru_cache(maxsize=None)
    def enumerate_length(self, n: int) -> tuple[str, ...]:
        return tuple(enumerate_length(self.automaton, n))

    def has_length(self, n: int) -> bool:
        return has_length(self.automaton, n)

    def smallest_of_length(self, n: int) -> str | None:
        return smallest_of_length(self.automaton, n)

    def pumping_length(self) -> int:
        return pumping_length(self.automaton)

    def decompose(self, w: str) -> RegDecomposition:
        return reg_decompose(self.automaton, w)

    def is_infinite(self) -> bool:
        return self.automaton.is_infinite()

    def __repr__(self):
        return f"RegularLang({self.regex!r})"
