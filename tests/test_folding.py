"""The folding operation: worked examples and algebraic identities."""

import collections

import pytest
from hypothesis import given, strategies as st

from foldlang import (Alphabet, Direction, fold, fold_permutation, fold_step,
                      fold_trace, split_updown)
from foldlang.errors import AlphabetError, UndefinedFold

from conftest import random_proc, random_word, ABC


# Equal-length (w, v) pairs over a 3-symbol alphabet.
pairs = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.text("abc", min_size=n, max_size=n),
                        st.text("ud", min_size=n, max_size=n)))


def test_worked_example():
    assert fold("abcde", "dduud") == "dcabe"


def test_worked_example_trace():
    trace = fold_trace("abcde", "dduud")
    assert [s.direction for s in trace.steps] == [
        Direction.DOWN, Direction.DOWN, Direction.UP, Direction.UP,
        Direction.DOWN]
    assert [s.stack for s in trace.steps] == ["a", "ab", "cab", "dcab", "dcabe"]
    assert trace.result == "dcabe"


def test_fold_step():
    assert fold_step("bc", "a", Direction.UP) == "abc"
    assert fold_step("bc", "a", Direction.DOWN) == "bca"
    assert fold_step("", "a", "u") == "a"
    with pytest.raises(AlphabetError):
        fold_step("x", "y", "sideways")


def test_empty_fold():
    assert fold("", "") == ""
    assert fold_trace("", "").result == ""
    assert split_updown("", "") == ("", "")


@pytest.mark.parametrize("walk", [fold, split_updown, fold_trace],
                         ids=lambda walk: walk.__name__)
def test_length_mismatch_is_undefined(walk):
    with pytest.raises(UndefinedFold):
        walk("ab", "u")
    with pytest.raises(UndefinedFold):
        walk("a", "ud")


@pytest.mark.parametrize("walk", [
    lambda v: fold("ab", v),
    lambda v: split_updown("ab", v),
    lambda v: fold_trace("ab", v),
    fold_permutation,
], ids=["fold", "split_updown", "fold_trace", "fold_permutation"])
def test_bad_direction_symbol(walk):
    with pytest.raises(AlphabetError):
        walk("ux")


def test_all_down_is_identity():
    assert fold("abcab", "ddddd") == "abcab"


def test_all_up_is_reversal():
    assert fold("abcab", "uuuuu") == "bacba"


@given(pairs)
def test_two_way_identity(pair):
    w, v = pair
    up, down = split_updown(w, v)
    # checked against v's positions, not only against the fold it is read off
    assert up == "".join(a for a, b in zip(w, v) if b == "u")
    assert down == "".join(a for a, b in zip(w, v) if b == "d")
    assert up[::-1] + down == fold(w, v)


@given(pairs)
def test_composition_identity_at_every_split(pair):
    # fold(w, v) = fold(fold(w[:k], v[:k]) placed around fold of the rest)
    w, v = pair
    steps = fold_trace(w, v).steps
    for t, step in enumerate(steps):
        assert step.stack == fold(w[:t + 1], v[:t + 1])
        assert (step.symbol, step.direction) == (w[t], Direction(v[t]))
    for k in range(len(w) + 1):
        left = fold(w[:k], v[:k])
        up, down = split_updown(w[:k], v[:k])
        rest_up, rest_down = split_updown(w[k:], v[k:])
        assert rest_up[::-1] + up[::-1] + down + rest_down == fold(w, v)
        # equivalently: folding the suffix starting from the prefix's stack
        stack = left
        for a, b in zip(w[k:], v[k:]):
            stack = fold_step(stack, a, b)
        assert stack == fold(w, v)


@given(pairs)
def test_length_and_multiset_preserved(pair):
    w, v = pair
    out = fold(w, v)
    assert len(out) == len(w)
    assert collections.Counter(out) == collections.Counter(w)


@given(pairs)
def test_first_direction_is_irrelevant(pair):
    w, v = pair
    if not w:
        return
    flipped = ("d" if v[0] == "u" else "u") + v[1:]
    assert fold(w, v) == fold(w, flipped)


@given(pairs)
def test_positional_bijection(pair):
    w, v = pair
    perm = fold_permutation(v)
    assert sorted(perm) == list(range(len(w)))
    out = fold(w, v)
    assert all(out[k] == w[perm[k]] for k in range(len(w)))


def test_identities_random_sample(rng):
    # the fixed-seed analogue of the property suite, 1000 pairs
    for _ in range(1000):
        n = rng.randrange(13)
        w = random_word(rng, ABC, n)
        v = random_proc(rng, n)
        up, down = split_updown(w, v)
        out = fold(w, v)
        assert up == "".join(a for a, b in zip(w, v) if b == "u")
        assert up[::-1] + down == out
        assert collections.Counter(out) == collections.Counter(w)


@given(st.lists(st.text("abc", max_size=6), max_size=12),
       st.sampled_from(["abc", "cab", "bca"]))
def test_sort_key_orders_by_symbol_index(words, order):
    alphabet = Alphabet(order)
    by_index = sorted(words, key=lambda w: tuple(alphabet.index(c) for c in w))
    assert sorted(words, key=alphabet.sort_key) == by_index


def test_sort_key_rejects_foreign_symbols():
    with pytest.raises(AlphabetError, match="'c'"):
        Alphabet("ab").sort_key("abc")


def test_index_validate_and_fold_step_reject_foreign_symbols():
    alphabet = Alphabet("ab")
    assert alphabet.index("b") == 1 and alphabet.validate("ba") == "ba"
    assert fold_step("b", "a", "u", alphabet=alphabet) == "ab"
    with pytest.raises(AlphabetError, match="'c' not in alphabet"):
        alphabet.index("c")
    with pytest.raises(AlphabetError, match="'c' not in alphabet"):
        alphabet.validate("abc")
    with pytest.raises(AlphabetError, match="'c' not in alphabet"):
        fold_step("ab", "c", "d", alphabet=alphabet)


@pytest.mark.parametrize("word", ["abx", "xab", "x", "xx"])
def test_positions_reject_foreign_symbols(word):
    alphabet = Alphabet("ab")
    alphabet.positions("ab")  # the indicator tables are kept, and still refuse
    with pytest.raises(AlphabetError, match="'x' not in alphabet"):
        alphabet.positions(word)


@pytest.mark.parametrize("symbols,message", [
    ("", "non-empty"),
    (["a", "bc"], "single characters"),
    ("aba", "duplicate symbol 'a'"),
], ids=["empty", "multi-character", "duplicate"])
def test_alphabet_constructor_errors(symbols, message):
    with pytest.raises(AlphabetError, match=message):
        Alphabet(symbols)
