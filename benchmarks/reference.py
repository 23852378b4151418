"""Independent reference for the benchmark's correctness checks.

Nothing here imports foldlang.  Languages are handled with other
algorithms than the toolkit's: a regex is matched with Python's `re` and
its length-n slice is generated from the regex syntax tree; a grammar's
slice is generated by splitting n over each right-hand side.  Membership
in L(Phi) is decided by unfolding: for a direction string s with
k = #u(s), a `u` step at up-index i reads w[k-1-i] and a `d` step at
down-index j reads w[k+j], which forces the one r with fold(r, s) == w.

The slice generators are exponential in general; they are meant for the
corpus systems at the lengths the workloads use.
"""

from __future__ import annotations

import re
from itertools import product
from operator import itemgetter


# ---------------------------------------------------------------------------
# Spec files

def parse_spec(text: str) -> dict:
    """Read the `key = value` spec format into {'alphabet': [...],
    'core': Regex | Grammar, 'proc': Regex | Grammar}."""
    values: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            values.setdefault(key.strip(), []).append(value.strip())

    def side(name):
        if values[f"{name}.kind"][0] == "regex":
            return Regex(values[f"{name}.regex"][0])
        return Grammar(values[f"{name}.cfg"])

    return {"alphabet": values["alphabet"][0].split(),
            "core": side("core"), "proc": side("proc")}


# ---------------------------------------------------------------------------
# Regular expressions: `|`, juxtaposition, postfix `* + ?`, `( )`, `()`.

def _parse_regex(text: str):
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def union():
        nonlocal pos
        node = concat()
        while peek() == "|":
            pos += 1
            node = ("alt", node, concat())
        return node

    def concat():
        node = ("eps",)
        while peek() not in (None, "|", ")"):
            node = ("cat", node, postfix())
        return node

    def postfix():
        nonlocal pos
        node = atom()
        while peek() in ("*", "+", "?"):
            op = text[pos]
            pos += 1
            if op == "*":
                node = ("star", node)
            elif op == "+":
                node = ("cat", node, ("star", node))
            else:
                node = ("alt", ("eps",), node)
        return node

    def atom():
        nonlocal pos
        ch = text[pos]
        pos += 1
        if ch == "(":
            node = union()
            if peek() != ")":
                raise ValueError(f"unbalanced regex {text!r}")
            pos += 1
            return node
        return ("lit", ch)

    tree = union()
    if pos != len(text):
        raise ValueError(f"cannot parse regex {text!r}")
    return tree


class Regex:
    def __init__(self, text: str):
        self._pattern = re.compile(text)
        self._tree = _parse_regex(text)
        self._memo: dict = {}

    def contains(self, w: str) -> bool:
        return self._pattern.fullmatch(w) is not None

    def slice(self, n: int) -> frozenset:
        """Every member of length n, generated from the syntax tree."""
        return self._gen(self._tree, n)

    def _gen(self, node, n):
        key = (node, n)
        if key in self._memo:
            return self._memo[key]
        tag = node[0]
        if tag == "eps":
            out = {""} if n == 0 else set()
        elif tag == "lit":
            out = {node[1]} if n == 1 else set()
        elif tag == "alt":
            out = self._gen(node[1], n) | self._gen(node[2], n)
        elif tag == "cat":
            out = {x + y for k in range(n + 1)
                   for y in self._gen(node[2], n - k)
                   for x in self._gen(node[1], k)}
        else:  # star: one non-empty iteration, then the rest
            out = {""} if n == 0 else {
                x + y for k in range(1, n + 1)
                for x in self._gen(node[1], k)
                for y in self._gen(node, n - k)}
        result = frozenset(out)
        self._memo[key] = result
        return result


# ---------------------------------------------------------------------------
# Grammars: `A -> alpha | beta | eps`, uppercase nonterminals.

class Grammar:
    def __init__(self, lines):
        self.rules: dict[str, list[tuple[str, ...]]] = {}
        for line in lines:
            head, body = (part.strip() for part in line.split("->", 1))
            for alt in body.split("|"):
                symbols = alt.split()
                self.rules.setdefault(head, []).append(
                    () if symbols == ["eps"] else tuple(symbols))
        self.start = next(iter(self.rules))
        self._min = self._min_lengths()
        self._memo: dict = {}
        self._active: set = set()

    def _min_lengths(self) -> dict[str, float]:
        """Shortest derivable length per nonterminal (inf if none)."""
        best = {a: float("inf") for a in self.rules}
        changed = True
        while changed:
            changed = False
            for head, alts in self.rules.items():
                for rhs in alts:
                    size = sum(best.get(sym, 1) for sym in rhs)
                    if size < best[head]:
                        best[head] = size
                        changed = True
        return best

    def _min_len(self, symbols) -> float:
        return sum(self._min.get(sym, 1) for sym in symbols)

    def contains(self, w: str) -> bool:
        return w in self.slice(len(w))

    def slice(self, n: int) -> frozenset:
        return self._seq((self.start,), n)

    def _seq(self, symbols, n):
        key = (symbols, n)
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            raise ValueError("grammar derives a symbol from itself at the same length")
        self._active.add(key)
        if not symbols:
            out = {""} if n == 0 else set()
        elif len(symbols) == 1 and symbols[0] in self.rules:
            out = set()
            for rhs in self.rules[symbols[0]]:
                out |= self._seq(rhs, n)
        elif len(symbols) == 1:
            out = {symbols[0]} if n == 1 else set()
        else:
            # Each part is only asked for lengths it can have, so a
            # nonterminal is never asked for the length it is defining.
            head, rest = symbols[:1], symbols[1:]
            lo = self._min_len(head)
            hi = n - self._min_len(rest)
            out = {x + y for k in range(int(lo), int(hi) + 1) if lo <= hi
                   for x in self._seq(head, k)
                   for y in self._seq(rest, n - k)}
        self._active.discard(key)
        result = frozenset(out)
        self._memo[key] = result
        return result


# ---------------------------------------------------------------------------
# Folding and the F-system language

def _picker(positions):
    """Function mapping a string x to x[positions[0]] x[positions[1]] ..."""
    if not positions:
        return lambda x: ""
    if len(positions) == 1:
        p = positions[0]
        return lambda x: x[p]
    get = itemgetter(*positions)
    return lambda x: "".join(get(x))


def fold_positions(s: str) -> list[int]:
    """fold(r, s)[t] == r[fold_positions(s)[t]]: the up positions of s in
    reverse order, then its down positions in order."""
    ups = [t for t, c in enumerate(s) if c == "u"]
    downs = [t for t, c in enumerate(s) if c == "d"]
    return ups[::-1] + downs


def unfold_positions(s: str) -> list[int]:
    """r[t] == w[unfold_positions(s)[t]] for the r with fold(r, s) == w."""
    k = s.count("u")
    out = []
    i = j = 0
    for c in s:
        if c == "u":
            out.append(k - 1 - i)
            i += 1
        else:
            out.append(k + j)
            j += 1
    return out


def fold(r: str, s: str) -> str:
    return _picker(fold_positions(s))(r)


class System:
    """L(Phi) for one spec, with per-length memos."""

    def __init__(self, text: str):
        spec = parse_spec(text)
        self.alphabet = spec["alphabet"]
        self.core = spec["core"]
        self.proc = spec["proc"]
        self._unfolders: dict[int, list] = {}
        self._members: dict[str, bool] = {}
        self._lengths: dict[int, frozenset] = {}

    def member(self, w: str) -> bool:
        if w not in self._members:
            n = len(w)
            if n not in self._unfolders:
                self._unfolders[n] = [_picker(unfold_positions(s))
                                      for s in sorted(self.proc.slice(n))]
            core = self.core
            self._members[w] = any(core.contains(unfold(w))
                                   for unfold in self._unfolders[n])
        return self._members[w]

    def of_length(self, n: int) -> frozenset:
        """Every member of L(Phi) of length n: each core string folded by
        each procedure string."""
        if n not in self._lengths:
            rs = self.core.slice(n)
            folds = [_picker(fold_positions(s)) for s in self.proc.slice(n)] if rs else []
            self._lengths[n] = frozenset(f(r) for r in rs for f in folds)
        return self._lengths[n]

    def listing(self, max_len: int) -> list[str]:
        """Members of length <= max_len, by length then alphabet order."""
        rank = {c: i for i, c in enumerate(self.alphabet)}
        words = [w for n in range(max_len + 1) for w in self.of_length(n)]
        return sorted(words, key=lambda w: (len(w), [rank[c] for c in w]))


def all_strings(alphabet, n: int):
    return ("".join(t) for t in product(alphabet, repeat=n))


#: Closed forms of L(Phi), keyed by corpus file stem: a second check that
#: does not go through folding at all.
CLOSED_FORMS = {
    "ab_star_dense": lambda w: re.fullmatch("b*a*b*", w) is not None,
    "any_dyck_proc": lambda w: len(w) % 2 == 0,
}


def assemble(parts, pumped, i: int) -> str:
    """The family string for repetition count i."""
    return "".join(p * i if k in pumped else p for k, p in enumerate(parts))
