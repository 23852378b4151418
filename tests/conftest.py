import random

import pytest
from hypothesis import strategies as st

from foldlang import Alphabet, ContextFreeLang, FSystem, PROC_ALPHABET, RegularLang
from foldlang.regular import Concat, Empty, Epsilon, Literal, Optional, Plus, Star, Union

AB = Alphabet("ab")
ABC = Alphabet("abc")


def lang(text, alphabet):
    """Build a RegularLang or ContextFreeLang from a one-line description."""
    if "->" in text:
        return ContextFreeLang(text, alphabet)
    return RegularLang(text, alphabet)


def system(core, proc, alphabet=AB):
    return FSystem(lang(core, alphabet), lang(proc, PROC_ALPHABET))


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def random_word(rng, alphabet, n):
    return "".join(rng.choice(alphabet.symbols) for _ in range(n))


def random_proc(rng, n):
    return "".join(rng.choice("ud") for _ in range(n))


def _nary(node_type, children):
    return st.lists(children, max_size=3).map(lambda parts: node_type(tuple(parts)))


def regex_asts(symbols):
    """Regex ASTs over two symbols: the empty language, the empty word,
    nested postfix operators, and unions and concatenations of 0-3 parts."""
    return st.recursive(
        st.sampled_from([Empty(), Epsilon(), *map(Literal, symbols)]),
        lambda children: st.one_of(
            st.builds(Star, children), st.builds(Plus, children),
            st.builds(Optional, children),
            _nary(Union, children), _nary(Concat, children)),
        max_leaves=8)


@st.composite
def small_grammars(draw, symbols, max_rhs=3):
    """Grammar text over two terminals: 1-3 nonterminals, 1-3 alternatives
    each, right-hand sides of 0-max_rhs symbols (0 is `eps`)."""
    nts = ("S", "A", "B")[:draw(st.integers(1, 3))]
    rhs = st.lists(st.sampled_from(nts + tuple(symbols)), max_size=max_rhs)
    lines = []
    for head in nts:
        alts = draw(st.lists(rhs, min_size=1, max_size=3))
        lines.append(f"{head} -> " + " | ".join(" ".join(r) or "eps" for r in alts))
    return "\n".join(lines)
