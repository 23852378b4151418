"""Regex parsing, DFA compilation, enumeration, and pumping decompositions."""

import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from foldlang import Alphabet, RegularLang, finite_language_system, fs_enumerate, parse_regex
from foldlang.errors import (AlphabetError, DecompositionError, FoldlangError,
                             RegexSyntaxError)
from foldlang.regular import COUNT_CEILING, Automaton, Concat, Epsilon, Literal, Star, Union

from conftest import AB, random_word, regex_asts
from regex_oracle import match_backtrack

UD = Alphabet("ud")
BA = Alphabet("ba")

FIXTURES = [
    ("aaaab*", AB, "aaaab*"),
    ("(uu)*ddd", UD, "(uu)*ddd"),
    ("a*", AB, "a*"),
    ("(ab)*", AB, "(ab)*"),
    ("a+b?", AB, "a+b?"),
    ("(a|b)*a", AB, "(a|b)*a"),
    ("()", AB, ""),              # epsilon
]


def brute_words(alphabet, n):
    return ("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))


# -- parsing ----------------------------------------------------------------

def test_parse_shapes():
    ast = parse_regex("a|ba*", AB)
    assert isinstance(ast, Union)
    left, right = ast.parts
    assert left == Literal("a")
    assert isinstance(right, Concat)
    assert isinstance(right.parts[1], Star)


def test_parse_epsilon_and_empty():
    assert isinstance(parse_regex("()", AB), Epsilon)
    lang = RegularLang("[]", AB)
    assert not lang.member("")
    assert not lang.member("a")
    assert not lang.is_infinite()


@pytest.mark.parametrize("bad", ["(", ")", "*", "a(b", "a)b", "[a]"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(RegexSyntaxError):
        parse_regex(bad, AB)


def test_symbols_outside_alphabet_rejected():
    with pytest.raises(RegexSyntaxError):
        parse_regex("axb", AB)


def test_trailing_bar_is_epsilon_alternative():
    lang = RegularLang("a|", AB)
    assert lang.member("a") and lang.member("") and not lang.member("b")


# -- compiled DFA vs oracles --------------------------------------------------

@pytest.mark.parametrize("pattern,alphabet,pyre", FIXTURES)
def test_member_matches_backtracking_oracle(pattern, alphabet, pyre, rng):
    lang = RegularLang(pattern, alphabet)
    ast = parse_regex(pattern, alphabet)
    compiled = re.compile(pyre) if pyre else None
    for _ in range(1000):
        w = random_word(rng, alphabet, rng.randrange(10))
        got = lang.member(w)
        assert got == match_backtrack(ast, w)
        if compiled is not None:
            assert got == bool(compiled.fullmatch(w))


@pytest.mark.parametrize("pattern,alphabet,pyre", FIXTURES)
def test_enumerate_length_matches_filter(pattern, alphabet, pyre):
    lang = RegularLang(pattern, alphabet)
    for n in range(9):
        expect = [w for w in brute_words(alphabet, n) if lang.member(w)]
        got = list(lang.enumerate_length(n))
        assert got == sorted(got, key=alphabet.sort_key)
        assert sorted(got) == sorted(expect)
        assert lang.has_length(n) == bool(expect)
        smallest = lang.smallest_of_length(n)
        if expect:
            assert smallest == min(expect, key=alphabet.sort_key)
        else:
            assert smallest is None


@settings(max_examples=300, deadline=None)
@given(regex_asts("ab"))
def test_position_automaton_matches_oracles(ast):
    lang = RegularLang.from_ast(ast, AB)
    reversed_order = RegularLang.from_ast(ast, BA)
    # out of order, so the length table is read both grown and growing
    for n in (6, 0, 3, 1, 5, 2, 4):
        words = list(brute_words(AB, n))
        expect = [w for w in words if match_backtrack(ast, w)]
        assert [w for w in words if lang.member(w)] == expect
        assert list(lang.enumerate_length(n)) == expect
        assert lang.count_length(n) == len(expect)
        assert list(reversed_order.enumerate_length(n)) == sorted(expect, key=BA.sort_key)
        assert lang.has_length(n) == reversed_order.has_length(n) == bool(expect)
        assert lang.smallest_of_length(n) == (expect[0] if expect else None)
        assert reversed_order.smallest_of_length(n) == min(expect, key=BA.sort_key, default=None)


def test_enumeration_respects_declared_symbol_order():
    lang = RegularLang("(a|b)(a|b)", Alphabet("ba"))
    assert list(lang.enumerate_length(2)) == ["bb", "ba", "ab", "aa"]


# -- pumping ------------------------------------------------------------------

def test_pumping_length_examples():
    assert RegularLang("aaaab*", AB).pumping_length() == 6
    assert RegularLang("(uu)*ddd", UD).pumping_length() == 6
    assert RegularLang("a*", Alphabet("a")).pumping_length() == 1


def test_decompose_splits_first_loop():
    lang = RegularLang("aaaab*", AB)
    d = lang.decompose("aaaabbb")
    assert d.x + d.y + d.z == "aaaabbb"
    assert d.y != ""
    assert len(d.x + d.y) <= lang.pumping_length()


@pytest.mark.parametrize("pattern,alphabet,pyre", FIXTURES)
def test_decomposition_pump_property(pattern, alphabet, pyre):
    lang = RegularLang(pattern, alphabet)
    if not lang.is_infinite():
        return
    p = lang.pumping_length()
    n = next(n for n in range(p, p + 20) if lang.has_length(n))
    w = lang.smallest_of_length(n)
    d = lang.decompose(w)
    assert d.whole == w
    for i in range(5):
        assert lang.member(d.pumped(i))


def test_decompose_rejects_short_or_foreign_strings():
    lang = RegularLang("aaaab*", AB)
    with pytest.raises(DecompositionError):
        lang.decompose("aaaab")  # shorter than the pumping length
    with pytest.raises(DecompositionError):
        lang.decompose("bbbbbbbb")  # not in the language
    # one run serves member and decompose; it stops at a foreign symbol
    assert lang.automaton.run("aaaacbb") is None
    assert not lang.member("aaaacbb")
    with pytest.raises(DecompositionError, match="not a member"):
        lang.decompose("aaaacbb")


def test_long_enumeration_needs_no_recursion():
    assert RegularLang("a*", AB).enumerate_length(3000) == ("a" * 3000,)


def test_counts_need_no_slice():
    lang = RegularLang("(a|b)*b(a|b)", AB)
    assert lang.count_length(-1) == lang.count_length(1) == 0
    assert lang.count_length(2) == 2
    assert lang.count_length(200) == 2 ** 199


def test_enumeration_cache_is_bounded():
    for n in range(300):
        RegularLang("a*", AB).enumerate_length(n % 3)
    assert RegularLang.enumerate_length.cache_info().currsize <= 128


def test_deep_ast_compiles_without_recursion():
    ast = Literal("a")
    for _ in range(3000):
        ast = Star(ast)
    deep = RegularLang.from_ast(ast, AB)
    assert deep.member("a" * 5) and not deep.member("ab")


def test_deep_regex_nesting_parses_without_recursion():
    lang = RegularLang("(" * 600 + "a" + ")" * 600, AB)
    assert lang.member("a") and not lang.member("aa")
    ast = parse_regex("(" * 600 + "a|b()" + ")" * 600 + "*", AB)
    assert ast == Star(Union((Literal("a"), Concat((Literal("b"), Epsilon())))))
    with pytest.raises(RegexSyntaxError, match=r"expected '\)' \(at position 601\)"):
        parse_regex("(" * 600 + "a", AB)


def test_long_regex_finiteness_needs_no_recursion():
    assert not RegularLang("a" * 1200, AB).is_infinite()


def test_incomplete_automaton_is_rejected():
    with pytest.raises(FoldlangError, match="complete"):
        Automaton(AB, [{"a": 0}], 0, [0])


@pytest.mark.parametrize("rows", [[{"a": 0, "b": 1}, {"b": 1}], [{"a": 0, "b": 0, "c": 0}]],
                         ids=["a later row misses a symbol", "a row has a foreign symbol"])
def test_every_row_is_checked_though_none_is_copied(rows):
    with pytest.raises(FoldlangError, match="complete"):
        Automaton(AB, rows, 0, [0])
    rows = [{"a": 1, "b": 0}, {"a": 1, "b": 1}]
    auto = Automaton(AB, rows, 0, [1])
    assert all(kept is row for kept, row in zip(auto.transitions, rows))


def test_is_infinite():
    assert RegularLang("a*", AB).is_infinite()
    assert not RegularLang("a|ab|abb", AB).is_infinite()
    assert not RegularLang("[]", AB).is_infinite()


@settings(max_examples=300, deadline=None)
@given(regex_asts("ab"))
def test_is_infinite_matches_the_length_oracle(ast):
    # infinite iff some length in [p, 2p) is accepted: pumping down the
    # shortest member of length >= p leaves one of length >= p
    lang = RegularLang.from_ast(ast, AB)
    p = lang.pumping_length()
    assert lang.is_infinite() == any(lang.has_length(n) for n in range(p, 2 * p))


def test_literal_word_roundtrip():
    lang = RegularLang.from_words(["abba"], AB)
    assert lang.member("abba")
    assert not lang.member("abb")
    assert list(lang.enumerate_length(4)) == ["abba"]


def naive_from_words(words, alphabet):
    """Reference: the words' prefix tree (dead node None), numbered
    breadth-first and minimized by Moore refinement over per-symbol target
    columns, blocks numbered by their first node."""
    rank = {s: k for k, s in enumerate(alphabet.symbols)}
    trie = {0: [None] * len(rank), None: [None] * len(rank)}  # child per symbol
    final = set()
    for w in words:
        node = 0
        for ch in alphabet.validate(w):
            row = trie[node]
            node = row[rank[ch]]
            if node is None:
                node = row[rank[ch]] = len(trie)
                trie[node] = [None] * len(rank)
        final.add(node)
    number, order = {0: 0}, [0]
    columns = [[] for _ in alphabet.symbols]
    for node in order:
        for column, nxt in zip(columns, trie[node]):
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            column.append(number[nxt])
    accepting = [node in final for node in order]
    block, count = accepting, len(set(accepting))
    while True:
        classes = {}
        block = [classes.setdefault(sig, len(classes))
                 for sig in zip(block, *([block[r] for r in col] for col in columns))]
        if len(classes) == count:
            break
        count = len(classes)
    first_state = {}
    for q, b in enumerate(block):
        first_state.setdefault(b, q)
    transitions = [{s: block[col[q]] for s, col in zip(alphabet.symbols, columns)}
                   for q in first_state.values()]
    return Automaton(alphabet, transitions, 0,
                     {b for b, acc in zip(block, accepting) if acc})


def same_automaton(got, expect):
    return (got.transitions, got.start, got.accepting) == (
        expect.transitions, expect.start, expect.accepting)


@st.composite
def word_sets(draw):
    """Lists of 0-60 words of length 0-12 over 1-3 symbols, duplicates
    allowed, and those symbols in declared order or reversed."""
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    words = draw(st.lists(st.text(symbols, max_size=12), max_size=60))
    return words, Alphabet(symbols[::-1] if draw(st.booleans()) else symbols)


@settings(max_examples=300, deadline=None)
@given(word_sets())
@example(([], AB))
@example(([""], BA))
@example((["", "ab", "ba", "abba", "ab", ""], BA))
@example((["aaa", "aa", "a", "aaaa"], Alphabet("a")))
@example((["abc", "ab", "cab", "bca", "ca"], Alphabet("cba")))
def test_from_words_matches_the_regex_compile(case):
    words, alphabet = case
    lang = RegularLang.from_words((w for w in words), alphabet)
    got = lang.automaton
    assert same_automaton(got, naive_from_words(words, alphabet))
    regex = "|".join(w or "()" for w in words) or "[]"
    assert same_automaton(got, RegularLang(regex, alphabet).automaton)
    for n in range(max(map(len, words), default=0) + 1):
        distinct = len({w for w in words if len(w) == n})
        assert lang.count_length(n) == distinct
        assert lang.has_length(n) == (distinct > 0)


def test_from_words_matches_the_reference_on_benchmark_sized_sets():
    rng = random.Random(10)
    for _ in range(200):
        words = {random_word(rng, AB, rng.randint(4, 12))
                 for _ in range(rng.randint(1000, 2000))}
        alphabet = AB if rng.random() < 0.5 else BA
        assert same_automaton(RegularLang.from_words(words, alphabet).automaton,
                              naive_from_words(words, alphabet))


def test_from_words_is_linear_in_the_total_length():
    # the prefix tree plus Moore refinement is quadratic in word depth:
    # it took about 1.5 s on two 3,000-letter words
    start = time.perf_counter()
    phi = finite_language_system(["a" * 20000, "b" * 20000])
    assert time.perf_counter() - start < 1.0
    assert phi.core.automaton.n_states == 40001
    assert phi.core.member("b" * 20000) and not phi.core.member("a" * 19999)


#: 300 symbols, past the one byte per symbol of a narrow alphabet's keys.
WIDE = Alphabet([chr(0x100 + k) for k in range(300)])


@pytest.mark.parametrize("alphabet", [WIDE, Alphabet(WIDE.symbols[::-1]), Alphabet(WIDE.symbols[:255]),
                                      Alphabet(WIDE.symbols[:256])],
                         ids=["declared", "reversed", "255 symbols", "256 symbols"])
def test_from_words_matches_the_reference_past_256_symbols(alphabet):
    rng = random.Random(25)
    symbols = alphabet.symbols
    low, high = symbols[0], symbols[-1]  # the first and the last index
    for _ in range(40):
        common = [random_word(rng, alphabet, rng.randint(0, 3)) for _ in range(4)]
        words = {prefix + random_word(rng, alphabet, rng.randint(0, 5))
                 for _ in range(rng.randint(1, 60)) for prefix in [rng.choice(common)]}
        words |= {"", low, low * 2, low + high, high, high + low * 3}
        assert same_automaton(RegularLang.from_words(words, alphabet).automaton,
                              naive_from_words(words, alphabet))


@pytest.mark.parametrize("alphabet", [AB, BA, WIDE], ids=["ab", "ba", "wide"])
def test_from_words_with_keys_that_prefix_their_successors(alphabet):
    # each key a prefix of the next, padded with the symbol whose index is 0
    first, second = alphabet.symbols[:2]
    for words in (["", first, first * 2, first + second], [first * k for k in range(6)],
                  ["", first, first + second, first + second + first, second]):
        lang = RegularLang.from_words(words, alphabet)
        assert same_automaton(lang.automaton, naive_from_words(words, alphabet))
        assert [lang.count_length(n) for n in range(7)] == [
            sum(len(w) == n for w in set(words)) for n in range(7)]


def test_from_words_rejects_foreign_symbols():
    with pytest.raises(AlphabetError, match="'c'"):
        RegularLang.from_words(["ab", "abc"], AB)


def five_orders(rng, alphabet, lengths):
    """A seeded set of 1,000-2,000 distinct words over alphabet, of lengths
    drawn from lengths, sorted in alphabet order, then the five ways of
    giving it: sorted, reverse-sorted, shuffled, every word twice, and a
    one-shot generator."""
    words, size = set(), rng.randint(1000, 2000)
    while len(words) < size:
        words.add(random_word(rng, alphabet, rng.choice(lengths)))
    ordered = sorted(words, key=alphabet.sort_key)
    shuffled = rng.sample(ordered, len(ordered))
    return ordered, {"sorted": ordered, "reversed": ordered[::-1], "shuffled": shuffled,
                     "twice": shuffled + ordered[::-1], "generator": (w for w in shuffled)}


#: Per alphabet, the word lengths of its five_orders sets.  The wide sets
#: are short words, so that keys still share prefixes over 300 symbols.
ORDER_CASES = {"ab": (AB, range(4, 13)), "ba": (BA, range(4, 13)), "wide": (WIDE, (0, 1, 2, 2, 3))}


@pytest.mark.parametrize("alphabet, lengths", ORDER_CASES.values(), ids=ORDER_CASES.keys())
def test_from_words_ignores_the_order_and_repeats_of_its_words(alphabet, lengths):
    rng = random.Random(28)
    for _ in range(3):
        ordered, ways = five_orders(rng, alphabet, lengths)
        expect = naive_from_words(ordered, alphabet)
        for way, words in ways.items():
            assert same_automaton(RegularLang.from_words(words, alphabet).automaton, expect), way


@pytest.mark.parametrize("alphabet, lengths", ORDER_CASES.values(), ids=ORDER_CASES.keys())
def test_finite_language_system_ignores_the_order_and_repeats_of_its_words(alphabet, lengths):
    rng = random.Random(29)
    for _ in range(2):
        ordered, ways = five_orders(rng, alphabet, lengths)
        # the system's alphabet is its words' symbols in code-point order
        listed = sorted(ordered, key=lambda w: (len(w), w))
        expect = naive_from_words(ordered, Alphabet(sorted(set("".join(ordered)))))
        for way, words in ways.items():
            phi = finite_language_system(words)
            assert same_automaton(phi.core.automaton, expect), way
            assert fs_enumerate(phi, max(lengths)) == listed, way


@st.composite
def regular_languages(draw):
    """A generated regex or word set's language, over a or a, b in declared
    order or reversed."""
    if draw(st.booleans()):
        words, alphabet = draw(word_sets())
        return RegularLang.from_words(words, alphabet)
    alphabet = draw(st.sampled_from([AB, BA]))
    return RegularLang.from_ast(draw(regex_asts("ab")), alphabet)


@settings(max_examples=300, deadline=None)
@given(regular_languages())
def test_liveness_rows_are_the_support_of_the_counts(lang):
    auto = lang.automaton
    live = auto.live(20)
    assert len(live) == 21
    counts = auto.counts(20)
    for k in range(21):
        assert live[k] == counts[k].keys(), k
    # a row depends on the row before alone, so equal rows are one object
    kept = {}
    for row in live:
        assert kept.setdefault(row, row) is row
    kept = {}
    for row in counts:
        assert kept.setdefault(frozenset(row.items()), row) is row
    # and the exact counts stay those of the language, word by word
    for n in range(7):
        members = sum(map(lang.member, brute_words(lang.alphabet, n)))
        assert lang.count_length(n) == members, n
        assert lang.has_length(n) == (members > 0), n


def test_periodic_liveness_keeps_one_object_per_distinct_row():
    # the rows repeat with period 6 from the start: 10,001 slots, 6 sets
    auto = RegularLang("(ab)*|(aaa)*", AB).automaton
    live = auto.live(10_000)
    assert len({id(row) for row in live}) == len(set(live)) == 6
    assert [0 in live[k] for k in range(7)] == [True, False, True, True, True, False, True]
    # so are equal count rows, which repeat from row 1 on: 7 dicts in 10,001 slots
    counts = auto.counts(10_000)
    assert len({id(row) for row in counts}) == len({frozenset(row.items()) for row in counts}) == 7
    assert [counts[k].get(0, 0) for k in range(7)] == [1, 0, 1, 1, 1, 0, 2]
    # a dense table is held at COUNT_CEILING, one row from 61 on; a count
    # over a budget under the ceiling is the ceiling, and others are exact
    lang = RegularLang("(a|b)*", AB)
    dense = lang.automaton.counts(100)
    assert [dense[k][0] for k in (60, 61, 62, 100)] == [2**60, 2**61, 2**61, 2**61]
    assert dense[61] is dense[100] and COUNT_CEILING == 2**61
    assert lang.count_length(100, 10) == lang.count_length(100, 2**61 - 1) == 2**61
    assert lang.count_length(100) == lang.count_length(100, 2**61) == 2**100


def naive_enumerate_length(lang, n):
    """The depth-first enumeration the meet-in-the-middle kernel replaced:
    an explicit stack, pruning prefixes that cannot reach acceptance in
    the steps left.  Kept as the reference for order and content."""
    auto = lang.automaton
    counts = auto.counts(n)
    if auto.start not in counts[n]:
        return ()
    if n == 0:
        return ("",)
    symbols = lang.alphabet.symbols
    out = []
    stack = [("", auto.start)]
    while stack:
        prefix, q = stack.pop()
        row = auto.transitions[q]
        remaining = n - len(prefix) - 1
        if remaining:
            stack += [(prefix + s, row[s]) for s in reversed(symbols)
                      if row[s] in counts[remaining]]
        else:
            out += [prefix + s for s in symbols if row[s] in auto.accepting]
    return tuple(out)


def asts_over_some_symbols():
    """(symbols, AST) over 1-3 symbols."""
    return st.sampled_from(["a", "ab", "abc"]).flatmap(
        lambda symbols: st.tuples(st.just(symbols), regex_asts(symbols)))


@settings(max_examples=300, deadline=None)
@given(asts_over_some_symbols())
@example(("ab", Star(Union((Literal("a"), Literal("b"))))))
@example(("ab", Concat((Literal("a"), Star(Literal("b")), Literal("a")))))
def test_met_in_the_middle_slices_match_the_depth_first_walk(case):
    symbols, ast = case
    for alphabet in {Alphabet(symbols), Alphabet(symbols[::-1])}:
        lang = RegularLang.from_ast(ast, alphabet)
        for n in range(11):
            assert lang.enumerate_length(n) == naive_enumerate_length(lang, n), n


@settings(max_examples=100, deadline=None)
@given(word_sets())
def test_met_in_the_middle_slices_of_word_sets(case):
    words, alphabet = case
    lang = RegularLang.from_words(words, alphabet)
    for n in range(11):
        assert lang.enumerate_length(n) == naive_enumerate_length(lang, n), n


def test_dense_slice_is_met_in_the_middle():
    lang = RegularLang("(u|d)*", UD)
    got = lang.enumerate_length(16)
    assert got == tuple("".join(p) for p in itertools.product("ud", repeat=16))
    assert RegularLang("(ud)*", UD).enumerate_length(252) == ("ud" * 126,)


def test_literal_outside_the_alphabet_matches_nothing():
    # an AST is not parsed, so it may name a symbol the alphabet lacks
    never = RegularLang.from_ast(Concat((Literal("a"), Literal("c"))), AB)
    assert not never.is_infinite()
    assert [never.count_length(n) for n in range(4)] == [0, 0, 0, 0]
    only_a = RegularLang.from_ast(Union((Literal("c"), Literal("a"))), AB)
    assert [only_a.enumerate_length(n) for n in range(4)] == [(), ("a",), (), ()]
    assert only_a.member("a") and not only_a.member("c")
