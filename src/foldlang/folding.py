"""The folding operation on strings.

A string w over an alphabet is folded under a direction string v over
{u, d} of the same length: each step takes the next symbol of w and
either prepends it to the stack built so far (fold up, 'u') or appends
it (fold down, 'd').  The result reads the final stack top to bottom.
`fold` is the one walk over the string; the up/down split and the
step-by-step trace are read off it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .errors import AlphabetError, UndefinedFold

GAMMA = ("u", "d")


class Direction(enum.Enum):
    """One folding step: up prepends, down appends."""

    UP = "u"
    DOWN = "d"

    def __str__(self):
        return self.value

    @classmethod
    def from_char(cls, ch: str) -> "Direction":
        if ch == "u":
            return cls.UP
        if ch == "d":
            return cls.DOWN
        raise AlphabetError(f"direction must be 'u' or 'd', got {ch!r}")


class _Rank(dict):
    """str.translate table: a symbol's code point to chr(its index).  A
    LookupError would leave a foreign symbol untranslated, so it raises."""

    def __missing__(self, code):
        raise AlphabetError(f"symbol {chr(code)!r} not in alphabet")


class Alphabet:
    """Ordered set of distinct single-character symbols."""

    def __init__(self, symbols):
        syms = list(symbols)
        if not syms:
            raise AlphabetError("alphabet must be non-empty")
        seen = set()
        for s in syms:
            if len(s) != 1:
                raise AlphabetError(f"symbols must be single characters, got {s!r}")
            if s in seen:
                raise AlphabetError(f"duplicate symbol {s!r}")
            seen.add(s)
        self.symbols = tuple(syms)
        self._set = frozenset(self.symbols)
        self._index = {s: i for i, s in enumerate(self.symbols)}
        self._rank = _Rank({ord(s): chr(i) for i, s in enumerate(self.symbols)})
        self._indicators: dict[str, _Rank] = {}  # per symbol, built by positions

    def __contains__(self, symbol):
        return symbol in self._index

    def covers(self, word: str) -> bool:
        """Whether every symbol of word is in the alphabet: one set test."""
        return self._set.issuperset(word)

    def positions(self, word: str) -> dict[str, int]:
        """Per symbol a of word, in alphabet order, the int with bit i set
        iff word[i] == a: word reversed, translated to 1 at a and 0 at every
        other symbol, read in base 2.  AlphabetError when a symbol of word
        is not in the alphabet."""
        backwards, masks = word[::-1], {}
        for a in self.symbols:
            if a in word:
                if a not in self._indicators:
                    self._indicators[a] = _Rank({ord(b): "01"[b == a] for b in self.symbols})
                masks[a] = int(backwards.translate(self._indicators[a]), 2)
        if word and not masks:  # no symbol of word is in the alphabet
            raise AlphabetError(f"symbol {word[0]!r} not in alphabet")
        return masks

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"

    def index(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet") from None

    def validate(self, word: str) -> str:
        for ch in word:
            if ch not in self._index:
                raise AlphabetError(f"symbol {ch!r} not in alphabet")
        return word

    def sort_key(self, word: str) -> str:
        """Key ordering words by declared symbol order, compared as str."""
        return word.translate(self._rank)


#: The folding-procedure alphabet, fixed to {u, d}.
PROC_ALPHABET = Alphabet(GAMMA)


def check_proc(v: str) -> str:
    for ch in v:
        if ch not in GAMMA:
            raise AlphabetError(f"procedure symbol must be 'u' or 'd', got {ch!r}")
    return v


@dataclass(frozen=True)
class FoldStep:
    stack: str
    symbol: str
    direction: Direction


@dataclass(frozen=True)
class FoldTrace:
    """Step-by-step record of a fold; steps[t].stack has length t+1."""

    steps: tuple[FoldStep, ...]

    @property
    def result(self) -> str:
        return self.steps[-1].stack if self.steps else ""


def fold_step(stack: str, symbol: str, direction, alphabet: Alphabet | None = None) -> str:
    """One application of the single-step fold: prepend on UP, append on DOWN."""
    if alphabet is not None and symbol not in alphabet:
        raise AlphabetError(f"symbol {symbol!r} not in alphabet")
    if not isinstance(direction, Direction):
        direction = Direction.from_char(direction)
    if direction is Direction.UP:
        return symbol + stack
    return stack + symbol


def fold(w: str, v: str) -> str:
    """Fold w under direction string v; undefined (raises) when |w| != |v|.

    Total work is O(n) symbol moves: the stack is kept as a deque with
    constant-time prepend/append.
    """
    if len(w) != len(v):
        raise UndefinedFold(f"|w|={len(w)} != |v|={len(v)}")
    check_proc(v)
    stack: deque[str] = deque()
    for a, b in zip(w, v):
        if b == "u":
            stack.appendleft(a)
        else:
            stack.append(a)
    return "".join(stack)


def split_updown(w: str, v: str) -> tuple[str, str]:
    """Split w into (w_up, w_down), the subsequences at up/down positions of v.

    Read off the fold by the two-way identity
    reverse(w_up) + w_down == fold(w, v).
    """
    folded = fold(w, v)
    k = v.count("u")
    return folded[:k][::-1], folded[k:]


def fold_trace(w: str, v: str) -> FoldTrace:
    """Like fold, but records the stack after every step: fold_step once
    per symbol, after fold's own checks."""
    fold(w, v)
    stack = ""
    steps = []
    for a, b in zip(w, v):
        direction = Direction(b)
        stack = fold_step(stack, a, direction)
        steps.append(FoldStep(stack, a, direction))
    return FoldTrace(tuple(steps))


def fold_permutation(v: str) -> list[int]:
    """Position permutation induced by v: result[k] = index into w of the
    symbol landing at output position k.  fold(w, v)[k] == w[perm[k]]."""
    check_proc(v)
    order: deque[int] = deque()
    for i, b in enumerate(v):
        if b == "u":
            order.appendleft(i)
        else:
            order.append(i)
    return list(order)
