"""The Language protocol: both engines answer every query the same way."""

import itertools

import pytest

from foldlang import ContextFreeLang, RegularLang
from foldlang.errors import DecompositionError

from conftest import AB

#: The same language written as a regex and as a grammar.
SAME_LANGUAGE = [
    ("(ab)*", "S -> a b S | eps"),
    ("a*b", "S -> a S | b"),
    ("ab|ba", "S -> a b | b a"),
]


@pytest.mark.parametrize("regex,grammar", SAME_LANGUAGE)
def test_engines_agree_on_every_query(regex, grammar):
    reg, cf = RegularLang(regex, AB), ContextFreeLang(grammar, AB)
    assert reg.context_free is False and cf.context_free is True
    assert reg.alphabet == cf.alphabet == AB
    assert reg.is_infinite() == cf.is_infinite()
    for n in range(-1, 9):
        assert reg.has_length(n) == cf.has_length(n)
        assert reg.smallest_of_length(n) == cf.smallest_of_length(n)
        assert reg.count_length(n) == cf.count_length(n)
        for lang, budget in itertools.product((reg, cf), (-1, -5)):
            with pytest.raises(ValueError, match="budget"):
                lang.count_length(n, budget)
        if n < 0:
            for lang in (reg, cf):
                with pytest.raises(ValueError):
                    lang.enumerate_length(n)
            continue
        assert reg.enumerate_length(n) == cf.enumerate_length(n)
        assert reg.count_length(n) == len(reg.enumerate_length(n))
        for w in map("".join, itertools.product("abc", repeat=n)):
            assert reg.member(w) == cf.member(w), w


@pytest.mark.parametrize("lang", [
    RegularLang("a*", AB),
    ContextFreeLang("S -> a S | eps", AB),
], ids=["regular", "context-free"])
def test_foreign_symbols_are_not_members(lang):
    assert not lang.member("c")
    assert not lang.member("a" * 40 + "c")
    with pytest.raises(DecompositionError, match="not a member"):
        lang.decompose("a" * 40 + "c")
    assert lang.decompose("a" * 40).whole == "a" * 40


def test_decomposition_pieces_alternate_fixed_and_pump():
    d = RegularLang("aaaab*", AB).decompose("aaaabbb")
    assert d.pieces == (d.x, d.y, d.z) and "".join(d.pieces) == d.whole
    d = ContextFreeLang("S -> a S b | eps", AB).decompose("a" * 16 + "b" * 16)
    assert d.pieces == (d.u, d.v, d.x, d.y, d.z) and "".join(d.pieces) == d.whole
