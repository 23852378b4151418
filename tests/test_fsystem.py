"""F-system semantics: enumeration, membership, pairing, spec files."""

import dataclasses
import gc
import itertools
import re
import string
import weakref

import pytest
from hypothesis import event, given, settings, strategies as st

from foldlang import (PROC_ALPHABET, Alphabet, ContextFreeLang, FSystem, RegularLang,
                      auto_plan, equal_length_pair, finite_language_system, fold,
                      fold_permutation, fs_enumerate, fs_member, fsystem, parse_regex,
                      parse_spec, plan_to_family, load_spec)
from foldlang.regular import Union
from foldlang.errors import (AlphabetError, NoEqualLengthPair, ResourceLimit,
                             SpecFileError)

from conftest import AB, lang, random_word, regex_asts, small_grammars, system

BB_FRONT = system("aaaab*", "(uu)*ddd")

BB_FRONT_13 = ["aaaab", "aaaabbb", "bbaaaabbb", "bbbbaaaabbb", "bbbbbbaaaabbb"]


def test_bb_front_enumeration():
    assert fs_enumerate(BB_FRONT, 13) == BB_FRONT_13


def test_enumeration_is_sorted_by_length_then_lex():
    phi = system("(a|b)(a|b)", "(u|d)(u|d)")
    assert fs_enumerate(phi, 2) == ["aa", "ab", "ba", "bb"]
    # lex is the declared symbol order, not the code points'
    phi = system("(a|b)(a|b)|b", "(u|d)(u|d)|d", Alphabet("ba"))
    assert fs_enumerate(phi, 2) == ["b", "bb", "ba", "ab", "aa"]


def test_enumeration_with_witnesses():
    wit = fs_enumerate(BB_FRONT, 13, with_witnesses=True)
    assert set(wit) == set(BB_FRONT_13)
    for w, (r, s) in wit.items():
        assert fold(r, s) == w
        assert BB_FRONT.core.member(r) and BB_FRONT.proc.member(s)


def pairwise_witnesses(phi, max_len, min_len=0):
    """The first (r, s) folding to each member, one fold per pair."""
    witnesses = {}
    for n in range(min_len, max_len + 1):
        for r in phi.core.enumerate_length(n):
            for s in phi.proc.enumerate_length(n):
                witnesses.setdefault(fold(r, s), (r, s))
    return witnesses


@pytest.mark.parametrize("core,proc", [
    ("aaaab*", "(uu)*ddd"),
    ("(a|b)*", "(u|d)*"),
    ("a?b*", "d|ud*"),
    ("S -> a S b | eps", "(ud)*"),
    ("(ab)*|b", "S -> u S d S | eps"),
    ("S -> a S b S | b | eps", "S -> u S d | d | eps"),
    ("(ab)*", "S -> u S | d S | eps"),
    ("S -> a S | b S | eps", "(ud)*"),
    ("S -> a S b | eps", "d(u|d)*"),
])
def test_gathered_enumeration_matches_pairwise_folds(core, proc, monkeypatch):
    phi = system(core, proc)
    # at n = 1 a gather is a one-index itemgetter, which returns a str
    for max_len in (0, 1, 9):
        got = fs_enumerate(phi, max_len, with_witnesses=True)
        assert list(got.items()) == list(pairwise_witnesses(phi, max_len).items())
        # the plain listing walks the product of two DFAs when one side is
        # regular, a context-free side entering as the DFA of its slices
        assert fs_enumerate(phi, max_len) == sorted(got, key=lambda w: (len(w), AB.sort_key(w)))

    def no_gather(*indices):
        raise AssertionError(f"gather {indices} built")

    # a slice at n = 0 holds the empty string at most: nothing to gather
    monkeypatch.setattr(fsystem, "itemgetter", no_gather)
    assert fs_enumerate(phi, 0, with_witnesses=True) == pairwise_witnesses(phi, 0)


def by_length_then_lex(words):
    return sorted(words, key=lambda w: (len(w), AB.sort_key(w)))


def summed_pairs(phi, max_len):
    return sum(phi.core.count_length(n) * phi.proc.count_length(n) for n in range(max_len + 1))


def cf_cf_listing(phi, max_len, walks):
    """fs_enumerate(phi, max_len) with the other route's first call made to
    fail: a walk builds no gather, and a fold builds no slice DFA."""
    def refuse(*args):
        raise AssertionError("the other route ran")

    with pytest.MonkeyPatch.context() as patch:
        if walks:
            patch.setattr(fsystem, "itemgetter", refuse)
        else:
            patch.setattr(RegularLang, "from_words", classmethod(refuse))
        return fs_enumerate(phi, max_len)


def test_dyck_dyck_enumeration_matches_the_folds_on_both_routes():
    phi = system("S -> a S b S | eps", "S -> u S d S | eps")
    assert [summed_pairs(phi, n) for n in (6, 8, 10, 12)] == [31, 227, 1991, 19415]
    # 227 pairs in all up to 9 are folded, 1,991 from 10 on are walked
    for max_len in range(6, 13):
        listing = cf_cf_listing(phi, max_len, walks=max_len >= 10)
        assert listing == by_length_then_lex(pairwise_witnesses(phi, max_len)), max_len
    assert len(listing) == 302


@pytest.mark.parametrize("core,proc,walks", [
    ("S -> A A A A A\nA -> a | b", "S -> U U U U U\nU -> u | d", False),
    ("S -> A A A A A | a\nA -> a | b", "S -> U U U U U | u\nU -> u | d", True),
], ids=["1024 pairs", "1025 pairs"])
def test_cf_cf_enumeration_folds_up_to_its_crossover_and_walks_above(core, proc, walks):
    # 32 strings of length 5 on each side, and in the second system one more pair at n = 1
    phi = system(core, proc)
    assert fsystem.FOLD_CF_CF_PAIRS == 1024
    assert summed_pairs(phi, 5) == fsystem.FOLD_CF_CF_PAIRS + walks
    assert cf_cf_listing(phi, 5, walks) == by_length_then_lex(pairwise_witnesses(phi, 5))
    # witnesses always fold, whatever the pair count
    assert list(fs_enumerate(phi, 5, with_witnesses=True).items()) == list(
        pairwise_witnesses(phi, 5).items())


#: Context-free languages with slices that grow with n, over symbols x, y.
DENSE_GRAMMARS = ["D -> x D y D | eps", "D -> x D | y D | eps", "D -> x D x | y D y | x | y | eps",
                  "D -> x D y | y D x | D D | eps", "D -> x D y | x D | eps"]


def dense_or_small_grammars(alphabet):
    """A small grammar, or its union with a dense one, so that generated
    CF/CF systems fall on both sides of the enumeration crossover."""
    x, y = alphabet.symbols
    dense = st.sampled_from([None, *DENSE_GRAMMARS]).map(
        lambda text: text and f"T -> D | S\n{text.replace('x', x).replace('y', y)}\n")
    return st.tuples(dense, small_grammars(alphabet.symbols)).map(
        lambda texts: ContextFreeLang((texts[0] or "") + texts[1], alphabet))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_cf_cf_enumeration_matches_the_folds_on_both_routes(data):
    phi = FSystem(data.draw(dense_or_small_grammars(AB)),
                  data.draw(dense_or_small_grammars(PROC_ALPHABET)))
    max_len = data.draw(st.integers(4, 7))
    pairs = summed_pairs(phi, max_len)
    walks = pairs > fsystem.FOLD_CF_CF_PAIRS
    event("walks" if walks else "folds")
    assert cf_cf_listing(phi, max_len, walks) == by_length_then_lex(
        pairwise_witnesses(phi, max_len)), pairs


#: Regular languages with slices that grow with n, over symbols x, y.
DENSE_REGEXES = ["(x|y)*", "(xy|y)*", "x*y*", "(x|yy)*x?"]


def dense_or_small_languages(alphabet, context_free):
    """A small language, or its union with a dense one, so that the routes
    build amounts of more than a few strings."""
    if context_free:
        return dense_or_small_grammars(alphabet)
    x, y = alphabet.symbols
    dense = st.sampled_from([None, *DENSE_REGEXES]).map(
        lambda text: text and parse_regex(text.replace("x", x).replace("y", y), alphabet))
    return st.tuples(dense, regex_asts(alphabet.symbols)).map(lambda asts: RegularLang.from_ast(
        Union(asts) if asts[0] else asts[1], alphabet))


def languages(alphabet, context_free):
    symbols = alphabet.symbols
    if context_free:
        return small_grammars(symbols).map(lambda text: ContextFreeLang(text, alphabet))
    return regex_asts(symbols).map(lambda ast: RegularLang.from_ast(ast, alphabet))


def fold_oracle(phi, n):
    """Every fold of an equal-length pair at length n, mapped to its least
    pair: r by core order, then s by procedure order.  The pairs are found
    by asking member of every string in Sigma^n and {u, d}^n."""
    def members(lang):
        strings = map("".join, itertools.product(lang.alphabet.symbols, repeat=n))
        return sorted(filter(lang.member, strings), key=lang.alphabet.sort_key)

    least = {}
    for r in members(phi.core):
        for s in members(phi.proc):
            least.setdefault(fold(r, s), (r, s))
    return least


def fold_route_witness(phi, w):
    """The witness the fold route finds: the first pair `_folds` yields
    that folds to w, or None."""
    n = len(w)
    if not (phi.core.has_length(n) and phi.proc.has_length(n)):
        return None
    return next(((r, s) for folded, r, s in fsystem._folds(phi, n) if folded == w), None)


@pytest.mark.parametrize("core_cf,proc_cf", itertools.product((False, True), repeat=2),
                         ids=["REG/REG", "REG/CF", "CF/REG", "CF/CF"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_systems_match_fold_oracle(core_cf, proc_cf, data):
    phi = FSystem(data.draw(languages(AB, core_cf)),
                  data.draw(languages(PROC_ALPHABET, proc_cf)))
    least = [fold_oracle(phi, n) for n in range(6)]
    assert fs_enumerate(phi, 5) == [w for n in range(6) for w in sorted(least[n], key=AB.sort_key)]
    assert list(fs_enumerate(phi, 5, with_witnesses=True).items()) == list(
        pairwise_witnesses(phi, 5).items())
    walks = not (core_cf and proc_cf)
    for n in range(6):
        for w in map("".join, itertools.product(AB.symbols, repeat=n)):
            ok, witness = fs_member(phi, w, with_witness=True)
            assert ok == (w in least[n]), w
            # the decision agrees with the witness, whichever route each takes
            assert fs_member(phi, w) is ok, w
            # the witness is the least pair that folds to w, on either route
            assert witness == least[n].get(w) == fold_route_witness(phi, w), w
            if walks and phi.core.has_length(n) and phi.proc.has_length(n):
                assert fsystem._least_pair(*fsystem._walk(phi, n), w) == witness, w
    if not walks:
        return
    # longer words: folds of drawn pairs and random words, on both routes
    rng = data.draw(st.randoms(use_true_random=False))
    for n in data.draw(st.lists(st.integers(6, 9), min_size=1, max_size=2)):
        if not (phi.core.has_length(n) and phi.proc.has_length(n)) or (
                phi.core.count_length(n, 1000) * phi.proc.count_length(n, 1000) > 20_000):
            continue
        least = pairwise_witnesses(phi, n, n)
        walk = fsystem._walk(phi, n)
        r, s = (random_member(auto, n, rng) for auto in walk[:2])
        for w in [fold(r, s), random_word(rng, AB, n), random_word(rng, AB, n)]:
            witness = least.get(w)
            assert fs_member(phi, w, with_witness=True) == (witness is not None, witness), w
            assert fsystem._least_pair(*walk, w) == witness == fold_route_witness(phi, w), w


def test_membership():
    assert fs_member(BB_FRONT, "bbaaaabbb")
    assert not fs_member(BB_FRONT, "ababababa")
    ok, (r, s) = fs_member(BB_FRONT, "aaaabbb", with_witness=True)
    assert ok and fold(r, s) == "aaaabbb"
    ok, witness = fs_member(BB_FRONT, "bbbbbbb", with_witness=True)
    assert not ok and witness is None


@pytest.mark.parametrize("core,proc", [("(ab)*", "u*d*"), ("abb", "udd|duu"), ("(aa|b)*", "u*d*")])
def test_walk_prunes_the_procedure_by_its_counts(core, proc):
    # a walk that kept a u step into a procedure state with no accepted
    # word in the steps left would end on such a state, and take bbaa as a
    # member of the first system
    phi = system(core, proc)
    for n in range(6):
        least = fold_oracle(phi, n)
        for w in map("".join, itertools.product(AB.symbols, repeat=n)):
            assert fs_member(phi, w) == (w in least), w


def test_member_stops_at_its_witness(monkeypatch):
    folded = []

    def counted_fold(r, s):
        folded.append(s)
        return fold(r, s)

    def no_permutation(s):
        raise AssertionError(f"gather built for {s!r}")

    monkeypatch.setattr(fsystem, "fold", counted_fold)
    monkeypatch.setattr(fsystem, "fold_permutation", no_permutation)
    # thin: one core string and 6 direction strings at n = 6, so a witness
    # search folds the pairs and stops at its witness
    phi = system("(ab)*", "u*d*d")
    assert phi.proc.count_length(6) == 6
    kept = {}  # the first direction string of each tail, in slice order
    for s in phi.proc.enumerate_length(6):
        kept.setdefault(s[1:], s)
    for k, s in enumerate(kept.values(), 1):
        folded.clear()
        assert fs_member(phi, fold("ababab", s), with_witness=True)[0] is True
        assert len(folded) <= k
        # a non-member folds every kept direction string, and no more
        folded.clear()
        assert fs_member(phi, "abbbaa", with_witness=True) == (False, None)
        assert folded == list(kept.values())

    def no_fold(r, s):
        raise AssertionError(f"fold({r!r}, {s!r}) called")

    # a decision with a regular side walks, however few its pairs
    monkeypatch.setattr(fsystem, "fold", no_fold)
    assert fs_member(phi, fold("ababab", "uuuddd")) is True
    assert fs_member(phi, "abbbaa") is False
    # the cut-off: (ab)* / (u|d)* has 2^n pairs at even n, and a witness
    # search folds up to FOLD_WITNESS_PAIRS of them
    assert fsystem.FOLD_WITNESS_PAIRS == 64
    phi = system("(ab)*", "(u|d)*")
    for n, folds in [(4, True), (6, True), (8, False)]:
        for w in (fold("ab" * (n // 2), "d" * n), "b" * n):
            monkeypatch.setattr(fsystem, "fold", counted_fold if folds else no_fold)
            folded.clear()
            fs_member(phi, w, with_witness=True)
            assert bool(folded) == folds, (n, w)
    # dense: 256 pairs at n = 8, so the windows are walked and no pair folded
    monkeypatch.setattr(fsystem, "fold", no_fold)
    directions = phi.proc.enumerate_length(8)
    for s in directions:
        w = fold("abababab", s)
        assert fs_member(phi, w) is True
        least = next(v for v in directions if fold("abababab", v) == w)
        assert fs_member(phi, w, with_witness=True) == (True, ("abababab", least))
    assert fs_member(phi, "abbbaaba") is False
    assert fs_member(phi, "abbbaaba", with_witness=True) == (False, None)
    # a CF/CF decision and witness still fold the pairs, however many
    monkeypatch.setattr(fsystem, "fold", counted_fold)
    folded.clear()
    phi = system("S -> a S b | eps", "S -> u S d S | eps")
    assert fs_member(phi, fold("aaabbb", "ududud")) is True
    assert fs_member(phi, fold("aaabbb", "uduudd"), with_witness=True)[0] is True
    assert folded


def test_decision_builds_no_regular_slice(monkeypatch):
    def build_slice(self, n):
        raise AssertionError(f"slice {n} built")

    monkeypatch.setattr(RegularLang, "enumerate_length", build_slice)
    phi = system("(ab)*", "(u|d)*")  # 2^26 direction strings at n = 26
    assert fs_member(phi, fold("ab" * 13, "u" * 13 + "d" * 13), pair_cap=10**9) is True
    # 13 a's and 13 b's, and still no fold of (ab)^13
    assert fs_member(phi, "ab" * 11 + "bbaa", pair_cap=10**9) is False
    # a witness walks the same windows: 2^40 direction strings at n = 40, and
    # the least s that folds (ab)^20 onto w, found by a depth-first search
    for s, least in [("ud" * 20, "ud" * 20), ("uud" * 13 + "d", "uud" * 13 + "d"),
                     ("dduduudduuudddudud" + "ud" * 11, "ududuuuuddudddudud" + "ud" * 11)]:
        assert fs_member(phi, fold("ab" * 20, s), pair_cap=2**41, with_witness=True) == (
            True, ("ab" * 20, least))
    assert fs_member(phi, "ab" * 18 + "bbaa", pair_cap=2**41, with_witness=True) == (False, None)


def tuple_walk_windows(core, proc, w):
    """The window walk one (core state, procedure state, j) tuple at a
    time, with its own tables: the reference for `fsystem._window_layers`.
    live[q] has bit k set iff q reaches acceptance in k steps, ups[k][p]
    bit j iff p does so in k steps with exactly j u steps."""
    n = len(w)
    live = [0] * core.n_states
    for k, row in enumerate(core.counts(n)[:n + 1]):
        for q in row:
            live[q] |= 1 << k
    ups = [[int(p in proc.accepting) for p in range(proc.n_states)]]
    for _ in range(n):
        ups.append([ups[-1][t["u"]] << 1 | ups[-1][t["d"]] for t in proc.transitions])
    starts = ups[n][proc.start] if live[core.start] >> n & 1 else 0
    layer = {(core.start, proc.start, j) for j in range(n + 1) if starts >> j & 1}
    for t in range(n):
        bit, left = 1 << (n - t - 1), ups[n - t - 1]
        following = set()
        for q, p, j in layer:
            step, moves = core.transitions[q], proc.transitions[p]
            # (procedure state, j after, index read); j2 >= 0 and the mask keep it in w
            for p2, j2, at in ((moves["u"], j - 1, j - 1), (moves["d"], j, j + t)):
                if j2 >= 0 and left[p2] >> j2 & 1 and live[step[w[at]]] & bit:
                    following.add((step[w[at]], p2, j2))
        layer = following
    return bool(layer)


def walks_to_the_end(phi, w):
    """Whether the window walk at |w| the system keeps yields layer |w|:
    the decision fs_member makes."""
    return sum(1 for _ in fsystem._window_layers(*fsystem._walk(phi, len(w)), w)) == len(w) + 1


def walk_automata(phi, n):
    """The DFAs a walk at length n reads, as the system keeps them: a
    regular side's own, a context-free side's slice DFA."""
    return fsystem._walk(phi, n)[:2]


def random_member(auto, n, rng):
    """A member of length n of the automaton's language, one live symbol
    at a time, or None when there is none."""
    counts = auto.counts(n)
    if auto.start not in counts[n]:
        return None
    q, word = auto.start, []
    for k in range(n - 1, -1, -1):
        a, q = rng.choice([(a, r) for a, r in auto.transitions[q].items() if r in counts[k]])
        word.append(a)
    return "".join(word)


@pytest.mark.parametrize("core_cf,proc_cf", [(False, False), (False, True), (True, False)],
                         ids=["REG/REG", "REG/CF", "CF/REG"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bit_parallel_walk_matches_the_tuple_walk(core_cf, proc_cf, data):
    phi = FSystem(data.draw(languages(AB, core_cf)),
                  data.draw(languages(PROC_ALPHABET, proc_cf)))

    for n in range(8):
        for w in map("".join, itertools.product(AB.symbols, repeat=n)):
            ok = fs_member(phi, w)
            assert ok == tuple_walk_windows(*walk_automata(phi, n), w), w
            assert ok == fs_member(phi, w, with_witness=True)[0], w
    # longer words on infinite sides only: most drawn languages have no
    # word of length 16, and a long member needs both sides
    infinite = lambda lang: lang.is_infinite()
    phi = FSystem(data.draw(languages(AB, core_cf).filter(infinite)),
                  data.draw(languages(PROC_ALPHABET, proc_cf).filter(infinite)))
    rng = data.draw(st.randoms(use_true_random=False))
    for n in data.draw(st.lists(st.integers(16, 64), min_size=1, max_size=4)):
        # a context-free side enters as its slice DFA: only while the slice is small
        if any(side.context_free and side.count_length(n, 2000) > 2000
               for side in (phi.core, phi.proc)):
            continue
        sides = walk_automata(phi, n)
        words = [random_word(rng, AB, n) for _ in range(4)]
        r, s = (random_member(auto, n, rng) for auto in sides)
        if r is not None and s is not None:
            member, k = fold(r, s), rng.randrange(n)
            flipped = member[:k] + ("b" if member[k] == "a" else "a") + member[k + 1:]
            words += [member, flipped]
            assert walks_to_the_end(phi, member)
        for w in words:
            assert walks_to_the_end(phi, w) == tuple_walk_windows(*sides, w), w


def unfold_witness(phi, w):
    """The least (r, s) that folds to w, with no window walk: every s of
    the procedure slice fixes r, r[fold_permutation(s)[k]] == w[k], and
    the r the core accepts are compared, the least r first, then the least
    s (the slice is in procedure order, so the first s of each r)."""
    best = None
    for s in phi.proc.enumerate_length(len(w)):
        r = [""] * len(w)
        for k, i in enumerate(fold_permutation(s)):
            r[i] = w[k]
        r = "".join(r)
        if phi.core.member(r) and (best is None or AB.sort_key(r) < AB.sort_key(best[0])):
            best = r, s
    return best


@pytest.mark.parametrize("core_cf,proc_cf", [(False, False), (False, True), (True, False)],
                         ids=["REG/REG", "REG/CF", "CF/REG"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_walk_witnesses_are_least_on_long_words(core_cf, proc_cf, data):
    # infinite sides only: most drawn languages have no word of length 16
    infinite = lambda lang: lang.is_infinite()
    phi = FSystem(data.draw(languages(AB, core_cf).filter(infinite)),
                  data.draw(languages(PROC_ALPHABET, proc_cf).filter(infinite)))
    rng = data.draw(st.randoms(use_true_random=False))
    for n in data.draw(st.lists(st.integers(16, 64), min_size=1, max_size=4)):
        # the reference unfolds the whole procedure slice, and a context-free
        # core enters the walk as its slice DFA: only while each is small
        if any(side.count_length(n, 2000) > 2000 for side in (phi.core, phi.proc)
               if side is phi.proc or side.context_free):
            continue
        walk = fsystem._walk(phi, n)
        r, s = (random_member(auto, n, rng) for auto in walk[:2])
        if r is None or s is None:
            continue
        member, k = fold(r, s), rng.randrange(n)
        flipped = member[:k] + ("b" if member[k] == "a" else "a") + member[k + 1:]
        for w in (member, flipped):
            assert fsystem._least_pair(*walk, w) == unfold_witness(phi, w), w


#: REG/REG, CF/REG and REG/CF, with a member and a non-member per length.
KEPT_TABLE_SYSTEMS = [("(ab)*", "(u|d)*"), ("S -> a S b S | eps", "(u|d)*"),
                      ("(ab)*", "S -> u S d S | eps"), ("a*b*", "(u|d)*d")]


@pytest.mark.parametrize("core,proc", KEPT_TABLE_SYSTEMS)
def test_kept_tables_never_go_stale(core, proc, rng):
    fresh = system(core, proc)
    lengths = [n for n in range(11) if fresh.core.has_length(n) and fresh.proc.has_length(n)]
    words = {}
    for n in lengths:
        r, s = (random_member(auto, n, rng) for auto in walk_automata(fresh, n))
        words[n] = [fold(r, s), random_word(rng, AB, n), "b" * n]
    expected = {w: fs_member(system(core, proc), w) for ws in words.values() for w in ws}
    assert any(expected.values()) and not all(expected.values())
    phi = system(core, proc)
    interleaved = [n for pair in zip(lengths[::-1], lengths) for n in pair]
    for order in (lengths[::-1], lengths, interleaved):
        for n in order:
            for w in words[n]:
                assert fs_member(phi, w) is expected[w], w
    # the decisions left fs_enumerate's output as it was
    assert fs_enumerate(phi, 11) == fs_enumerate(system(core, proc), 11)


def test_slice_dfa_is_built_once_per_side_and_length(monkeypatch):
    built = []
    from_words = RegularLang.from_words.__func__

    def counted(cls, words, alphabet):
        words = tuple(words)
        built.append((alphabet.symbols, len(words[0])))
        return from_words(cls, words, alphabet)

    monkeypatch.setattr(RegularLang, "from_words", classmethod(counted))
    systems = [system("S -> a S b S | eps", "(u|d)*"), system("(a|b)*", "S -> u S d S | eps")]
    words = [fold("aabbab", "ududuu"), "abab", "ab" * 5, fold("aababb", "uuuddd"), "abba", "b" * 10]
    for k in range(50):
        for phi in systems:
            fs_member(phi, words[k % len(words)])
    assert sorted(built) == sorted({(side.alphabet.symbols, len(w)) for w in words
                                    for side in (systems[0].core, systems[1].proc)})
    # a decision refused by the cap keeps no DFA, and builds none: the cap
    # bounds the Dyck slice the walk builds, 132 strings at 12 and 14 at 8
    built.clear()
    phi = system("(a|b)*", "S -> u S d S | eps")
    with pytest.raises(ResourceLimit):
        fs_member(phi, "ab" * 6, pair_cap=131)
    with pytest.raises(ResourceLimit):
        fs_member(phi, "ab" * 4, pair_cap=13)
    assert built == [] and phi._walks == {}
    assert fs_member(phi, "ab" * 4, pair_cap=14) is True
    assert list(phi._walks) == [8]


def test_each_system_builds_its_own_slice_dfa_once(monkeypatch):
    built = []
    from_words = RegularLang.from_words.__func__

    def counted(cls, words, alphabet):
        built.append(alphabet.symbols)
        return from_words(cls, words, alphabet)

    monkeypatch.setattr(RegularLang, "from_words", classmethod(counted))
    dyck = lang("S -> u S d S | eps", PROC_ALPHABET)
    systems = [FSystem(lang("(ab)*", AB), dyck), FSystem(lang("(ab|ba)*", AB), dyck)]
    for _ in range(3):
        for phi in systems:
            assert fs_member(phi, fold("abab", "uudd")) is True
            assert fs_member(phi, "bbbb") is False
    # the DFA is the system's, not the language's: one per system
    assert built == [PROC_ALPHABET.symbols] * 2
    assert systems[0]._walks[4][1] is not systems[1]._walks[4][1]


def test_a_refused_or_pairless_decision_keeps_no_walk():
    phi = system("(a|b)*", "S -> u S d S | eps")
    with pytest.raises(ResourceLimit):
        fs_member(phi, "ab" * 4, pair_cap=13)  # 14 Dyck words at 8
    assert fs_member(phi, "abc") is False  # a foreign symbol
    assert fs_member(phi, "aba") is False  # no Dyck word of odd length
    assert phi._walks == {}


def test_walks_go_with_the_system():
    core, proc = lang("(ab)*", AB), lang("S -> u S d | eps", PROC_ALPHABET)
    phi = FSystem(core, proc)
    assert fs_member(phi, fold("abab", "uudd")) is True
    slice_dfa = weakref.ref(phi._walks[4][1])
    del phi
    gc.collect()
    # the languages live on, and the slice DFA went with the system
    assert slice_dfa() is None
    assert proc.enumerate_length(4) == ("uudd",) and core.member("abab")


def test_fsystem_is_frozen_and_hashable():
    phi = system("(ab)*", "(ud)*")
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.core = phi.proc
    same = FSystem(phi.core, phi.proc)
    assert same == phi and hash(same) == hash(phi)
    assert fs_member(phi, "abab") is False and len({phi, same}) == 1


def test_walk_tables_are_bounded_before_they_grow(monkeypatch):
    # a*b* has n + 1 strings at each n and (ud)* one at even n: n + 1 pairs,
    # so the pairing walks; each DFA has three states
    w = fold("a" * 200 + "b" * 200, "ud" * 200)
    phi = system("a*b*", "(ud)*")
    # a decision keeps one layer at a time, and of the procedure only its
    # counts and one int of u counts per length: it answers at the least cap
    # that lets the 401 pairs through
    assert fs_member(phi, w, pair_cap=401) is True
    assert {n: starts for n, (_, _, starts) in phi._walks.items()} == {400: 1 << 200}
    # 1,000 pairs buy 512,000 bits, not enough for a witness's 401 layers of
    # up to 9 ints of 401 bits; the refusal comes before the first layer
    refusal = ("^witness layers at length 400 would hold up to 1447209 bits: over the budget "
               "of 512 bits per candidate pair of the cap of 1000$")
    with monkeypatch.context() as patch:
        patch.setattr(fsystem, "_window_layers", None)
        with pytest.raises(ResourceLimit, match=refusal):
            fs_member(phi, w, pair_cap=1000, with_witness=True)
        # on a system with no walk kept, the refusal also comes before the
        # u-count mask's pass, and keeps no walk
        fresh = system("a*b*", "(ud)*")
        patch.setattr(fsystem, "reduce", None)
        with pytest.raises(ResourceLimit, match=refusal):
            fs_member(fresh, w, pair_cap=1000, with_witness=True)
        assert fresh._walks == {}
    ok, (r, s) = fs_member(phi, w, pair_cap=3000, with_witness=True)
    assert ok and fold(r, s) == w and phi.core.member(r) and phi.proc.member(s)


@pytest.mark.parametrize("context_free", [False, True], ids=["regex", "slice DFA"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_u_counts_match_the_slice(context_free, data):
    side = data.draw(languages(PROC_ALPHABET, context_free))
    phi = FSystem(lang("(a|b)*", AB), side)
    for n in range(11):
        expected = 0
        for s in side.enumerate_length(n):
            expected |= 1 << s.count("u")
        assert fsystem._walk(phi, n)[2] == expected, n


def test_u_counts_of_empty_slices_and_the_empty_word():
    for text, n, expected in [("[]", 0, 0), ("()", 0, 1), ("()", 3, 0), ("(ud)*", 0, 1),
                              ("(ud)*", 5, 0), ("(ud)*", 6, 1 << 3), ("(u|d)*", 3, 0b1111),
                              ("S -> u S d | eps", 4, 1 << 2), ("S -> u S d | eps", 3, 0)]:
        phi = FSystem(lang("(a|b)*", AB), lang(text, PROC_ALPHABET))
        assert fsystem._walk(phi, n)[2] == expected, (text, n)


#: The six systems of demos/pumping_pipelines.py, one or more per pairing.
DEMO_SYSTEMS = [
    ("aaaab*", "(uu)*ddd"),
    ("S -> a S b | eps", "(ud)*"),
    ("(ab)*", "S -> u S d | eps"),
    ("S -> a S b | eps", "S -> u S d | eps"),
    ("S -> a a S b | eps", "S -> u S d | eps"),
    ("S -> a S | eps", "S -> u S | eps"),
]


@pytest.mark.parametrize("core,proc", DEMO_SYSTEMS)
def test_long_family_strings_are_members_on_both_paths(core, proc):
    phi = system(core, proc)
    family = plan_to_family(auto_plan(phi))
    for i in range(7):  # pump --imax 6: up to 264 symbols
        w = family.assemble(i)
        assert fs_member(phi, w) is True, i  # a walk, unless CF/CF
        ok, (r, s) = fs_member(phi, w, with_witness=True)
        assert ok and fold(r, s) == w, i
        if not (phi.core.context_free and phi.proc.context_free):
            # a witness search folds these few pairs, so its walk is called directly
            pairs = phi.core.count_length(len(w)) * phi.proc.count_length(len(w))
            assert pairs <= fsystem.FOLD_WITNESS_PAIRS, i
            assert fsystem._least_pair(*fsystem._walk(phi, len(w)), w) == (r, s), i


def test_membership_with_cf_components():
    phi = system("S -> a S b | eps", "S -> u S d | eps")
    # fold(a^n b^n, u^n d^n) = reverse(first half) ++ second half
    assert fs_member(phi, fold("aabb", "uudd"))
    assert not fs_member(phi, "bbaa")


def test_proc_alphabet_enforced():
    with pytest.raises(AlphabetError):
        FSystem(RegularLang("a*", AB), RegularLang("a*", AB))


def test_equal_length_pair():
    r, s = equal_length_pair(BB_FRONT, 9)
    assert (r, s) == ("aaaabbbbb", "uuuuuuddd")
    r, s = equal_length_pair(BB_FRONT, 0)
    assert (r, s) == ("aaaab", "uuddd")


def test_equal_length_pair_not_found():
    phi = system("aa", "ddd")
    with pytest.raises(NoEqualLengthPair):
        equal_length_pair(phi, 0, ceiling=16)


def test_pair_cap_guards_blowup():
    phi = system("(a|b)*", "(u|d)*")
    with pytest.raises(ResourceLimit):
        fs_enumerate(phi, 12, pair_cap=1000)


def test_pair_cap_is_checked_from_counts(monkeypatch):
    def build_slice(self, n):
        raise AssertionError(f"slice {n} built")

    monkeypatch.setattr(RegularLang, "enumerate_length", build_slice)
    phi = system("(a|b)*", "(u|d)*")
    # a decision with regular sides builds neither slice, so no cap refuses it
    assert fs_member(phi, "ab" * 10) is True
    assert fs_member(phi, "ab" * 10, pair_cap=0) is True
    # enumeration walks, and the cap bounds the fold stacks a layer makes:
    # four moves from each of the 2^(k-1) stacks of length k - 1
    with pytest.raises(ResourceLimit, match="^the walk would make more than 100 fold stacks of "
                                            "length 6: over the cap of 100 per layer$"):
        fs_enumerate(phi, 9, pair_cap=100)
    assert len(fs_enumerate(phi, 9, pair_cap=1024)) == 1023
    with pytest.raises(ResourceLimit, match=" of length 9: "):
        fs_enumerate(phi, 9, pair_cap=1023)
    # 26^3100 has 4,387 digits: no route counts it, and a refusal shows only
    # the cap, never a count over it
    letters = Alphabet(string.ascii_lowercase)
    phi = system(f"({'|'.join(letters)})*", "(u|d)*", letters)
    assert fs_member(phi, "a" * 3100) is True
    with pytest.raises(ResourceLimit, match="^the walk would make more than 500000 fold stacks "
                                            "of length 4: ") as refusal:
        fs_enumerate(phi, 3100)
    assert max(map(int, re.findall(r"\d+", str(refusal.value)))) <= 500000
    # an empty core slice has no pairs, whatever the procedure's size
    assert fs_member(system("(aa)*", "(u|d)*"), "a" * 21, pair_cap=0) is False


def test_enumeration_walk_is_refused_before_its_masks_grow(monkeypatch):
    # (a^1000)* / (u|d)* has pairs at 0 and 1000 up to 1999, so the walk
    # would keep 1001 bits for each of 1001 + 1 states
    phi = system("(" + "a" * 1000 + ")*", "(u|d)*")
    monkeypatch.setattr(RegularLang, "count_length", None)  # no side is counted
    with pytest.raises(ResourceLimit, match="^length masks up to length 1000 would hold "
                                            "1003002 bits: over the budget of 512 bits per "
                                            "candidate pair of the cap of 1000$"):
        fs_enumerate(phi, 1999, pair_cap=1000)
    assert fs_enumerate(phi, 1999, pair_cap=1959) == ["", "a" * 1000]


def test_negative_pair_cap_is_refused_before_any_slice(monkeypatch):
    def no_slice(self, n, budget=None):
        raise AssertionError(f"slice {n} counted or built")

    for engine in (RegularLang, ContextFreeLang):
        monkeypatch.setattr(engine, "enumerate_length", no_slice)
        monkeypatch.setattr(engine, "count_length", no_slice)
    for phi in (system("(a|b)*", "(u|d)*"), system("S -> a S b S | eps", "S -> u S d S | eps")):
        for call in (lambda: fs_member(phi, "ab", pair_cap=-1),
                     lambda: fs_member(phi, "zz", pair_cap=-1),
                     lambda: fs_enumerate(phi, 4, pair_cap=-1)):
            with pytest.raises(ValueError, match="pair_cap"):
                call()
        for min_len, ceiling in ((-1, 16), (0, -1)):
            with pytest.raises(ValueError, match="min_len and ceiling"):
                equal_length_pair(phi, min_len, ceiling)


def slice_size(lang, symbols, n):
    """|lang's slice at n|, by asking member of every string in symbols^n."""
    return sum(map(lang.member, map("".join, itertools.product(symbols, repeat=n))))


def refused(call):
    try:
        call()
    except ResourceLimit:
        return True
    return False


def walk_stacks(phi, lengths):
    """The most fold stacks one layer of the enumeration walk to the last
    of lengths makes, by brute force: at each i >= 1, the distinct
    (core state, procedure state, fold(x, y), a, d) over the length-i
    prefixes x + a of a core member and y + d of a procedure member of one
    length in i..last, the states those of the walk's DFAs after x and y.
    Each is one stack made from fold(x, y) by one move."""
    core, proc = fsystem._automata(phi, lengths)
    last = lengths[-1]
    prefixes = [[{w[:i] for w in map("".join, itertools.product(symbols, repeat=m))
                  if side.member(w) for i in range(m + 1)} for m in range(last + 1)]
                for side, symbols in ((phi.core, AB.symbols), (phi.proc, "ud"))]
    most = 0
    for i in range(1, last + 1):
        made = set()
        for x in map("".join, itertools.product(AB.symbols, repeat=i)):
            for y in map("".join, itertools.product("ud", repeat=i)):
                if any(x in prefixes[0][m] and y in prefixes[1][m] for m in range(i, last + 1)):
                    made.add((core.run(x[:-1])[-1], proc.run(y[:-1])[-1],
                              fold(x[:-1], y[:-1]), x[-1], y[-1]))
        most = max(most, len(made))
    return most


def route_amounts(phi, n):
    """What the route of each call at n builds, the amount the pair cap
    must cover, from brute-force slice sizes: for fs_member(phi, "a" * n)
    and its witness search, then fs_enumerate(phi, n) and its witness
    listing.  A walk builds the context-free slices; fold routes build
    every pair; window layers and length masks cost one pair per
    TABLE_BITS_PER_PAIR bits."""
    sizes = [(slice_size(phi.core, AB.symbols, m), slice_size(phi.proc, "ud", m))
             for m in range(n + 1)]
    lengths = [m for m in range(n + 1) if all(sizes[m])]
    if not lengths:
        return 0, 0, 0, 0
    cf_cf = phi.core.context_free and phi.proc.context_free
    products = {m: sizes[m][0] * sizes[m][1] for m in lengths}
    built = {m: max([size for size, side in zip(sizes[m], (phi.core, phi.proc))
                     if side.context_free], default=0) for m in lengths}

    def pairs_for(bits):
        return -(-bits // fsystem.TABLE_BITS_PER_PAIR)

    member = witness = 0
    if n in lengths:
        member = products[n] if cf_cf else built[n]
        witness = products[n]
        if not cf_cf and products[n] > fsystem.FOLD_WITNESS_PAIRS:
            core, proc = fsystem._automata(phi, [n])
            witness = max(built[n], pairs_for((n + 1) ** 2 * core.n_states * proc.n_states))
    core, proc = fsystem._automata(phi, lengths)
    walk = max(*built.values(), walk_stacks(phi, lengths),
               pairs_for((core.n_states + proc.n_states) * (lengths[-1] + 1)))
    folds = cf_cf and sum(products.values()) <= fsystem.FOLD_CF_CF_PAIRS
    return member, witness, max(products.values()) if folds else walk, max(products.values())


@pytest.mark.parametrize("core_cf,proc_cf", itertools.product((False, True), repeat=2),
                         ids=["REG/REG", "REG/CF", "CF/REG", "CF/CF"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_cap_refuses_exactly_the_products_over_it(core_cf, proc_cf, data):
    """The product a call must keep within the cap is what its route builds
    (`route_amounts`): refused exactly above it, and otherwise the answer of
    the fold oracle."""
    phi = FSystem(data.draw(dense_or_small_languages(AB, core_cf)),
                  data.draw(dense_or_small_languages(PROC_ALPHABET, proc_cf)))
    n = data.draw(st.integers(0, 5))
    w = "a" * n
    least = [fold_oracle(phi, m) for m in range(n + 1)]
    calls = [(lambda cap: fs_member(phi, w, pair_cap=cap), w in least[n]),
             (lambda cap: fs_member(phi, w, pair_cap=cap, with_witness=True),
              (w in least[n], least[n].get(w))),
             (lambda cap: fs_enumerate(phi, n, pair_cap=cap),
              [v for m in range(n + 1) for v in sorted(least[m], key=AB.sort_key)]),
             (lambda cap: list(fs_enumerate(phi, n, pair_cap=cap, with_witnesses=True).items()),
              [(v, least[len(v)][v]) for v in pairwise_witnesses(phi, n)])]
    for (call, expected), amount in zip(calls, route_amounts(phi, n)):
        for cap in {0, max(amount - 1, 0), amount, amount + 1, 10**9}:
            try:
                got = call(cap)
            except ResourceLimit:
                assert amount > cap, (amount, cap)
            else:
                assert amount <= cap and got == expected, (amount, cap)


def test_pair_check_reads_both_length_tables_first(monkeypatch):
    def build_slice(self, n):
        raise AssertionError(f"slice {n} built")

    monkeypatch.setattr(ContextFreeLang, "enumerate_length", build_slice)
    phi = system("S -> a S b S | eps", "(ud)*d")  # even core, odd procedure lengths
    assert fs_enumerate(phi, 12) == []
    assert fs_member(phi, "abab") is False


def test_context_free_count_stops_at_its_budget():
    dyck = "S -> a S b S | eps"
    phi = system(dyck, "S -> u S d S | eps")
    phi.core.enumerate_length(6)
    memo = dict(phi.core._strings)
    # CF/CF: the core is counted against the cap itself, and refused first
    with pytest.raises(ResourceLimit, match="^core slice at length 252 has more than 1000 "
                                            "strings: over the cap of 1000 candidate pairs$"):
        fs_member(phi, "ab" * 126, pair_cap=1000)
    # the refused count left the core's memo as it found it, and the
    # procedure was never counted
    assert phi.core._strings == memo
    assert phi.proc._strings == {}
    # CF/REG: the walk builds the core's slices alone, each counted against
    # the cap itself, and asks the regular side only has_length; the Dyck
    # slice at 8 holds 14 strings
    with pytest.raises(ResourceLimit, match="^core slice at length 8 has more than 13 strings: "
                                            "over the cap of 13 candidate pairs$"):
        fs_enumerate(system(dyck, "(u|d)*"), 8, pair_cap=13)
    # listing witnesses folds every pair: the regular side goes first, and the
    # core's budget is 1000 // 256
    with pytest.raises(ResourceLimit, match="^core slice at length 8 has more than 3 strings, "
                                            "against 256 procedure strings: over the cap "):
        fs_enumerate(system(dyck, "(u|d)*"), 8, pair_cap=1000, with_witnesses=True)
    # under budget the count is exact, and over it one past the budget
    lang = ContextFreeLang(dyck, AB)
    assert lang.count_length(12, 132) == 132
    assert lang.count_length(12, 131) == 132
    assert ContextFreeLang(dyck, AB).count_length(12, 131) == 132
    assert ContextFreeLang(dyck, AB).count_length(12, 0) == 1
    # (a|b)^12: every join has one part, and it is refused before it is built
    fixed = ContextFreeLang("S -> " + "A " * 12 + "\nA -> a | b", AB)
    assert fixed.count_length(12, 100) == 101
    assert fixed._strings == {}  # unchanged by the refused count
    assert fixed.count_length(12) == 4096


def test_regular_side_over_the_cap_is_refused_before_the_other_is_counted(monkeypatch):
    def no_count(self, n, budget=None):
        raise AssertionError(f"context-free slice {n} counted")

    # a route that folds every pair counts the regular side first: (a|b)^10
    # has 1,024 strings, over the cap, and the Dyck side is never counted
    phi = system("(a|b)" * 10, "S -> u S d S | eps")
    with monkeypatch.context() as patch:
        patch.setattr(ContextFreeLang, "count_length", no_count)
        with pytest.raises(ResourceLimit, match="^core slice at length 10 has more than 1000 "
                                                "strings: over the cap of 1000 candidate pairs$"):
            fs_enumerate(phi, 10, pair_cap=1000, with_witnesses=True)

    def no_regular_count(self, n, budget=None):
        raise AssertionError(f"regular slice {n} counted")

    # a decision walks: the regular side is asked only has_length, and the
    # cap bounds the 42 Dyck words at 10 alone
    monkeypatch.setattr(RegularLang, "count_length", no_regular_count)
    assert fs_member(phi, fold("ab" * 5, "ud" * 5), pair_cap=42) is True
    with pytest.raises(ResourceLimit, match="^procedure slice at length 10 has more than 41 "
                                            "strings: over the cap of 41 candidate pairs$"):
        fs_member(system("(a|b)" * 10, "S -> u S d S | eps"), "ab" * 5, pair_cap=41)


def test_foreign_symbol_is_refused_before_any_slice():
    # pair_cap=0 refuses every slice: only the alphabet check can answer
    phi = system("(a|b)*", "(u|d)*")
    assert fs_member(phi, "zz", pair_cap=0) is False
    assert fs_member(phi, "az", pair_cap=0, with_witness=True) == (False, None)


def test_finite_language_system():
    words = {"ab", "ba", "abba", ""}
    phi = finite_language_system(words)
    assert set(fs_enumerate(phi, 6)) == words
    assert fs_member(phi, "abba")
    assert not fs_member(phi, "aab")


def test_finite_language_system_empty_set():
    phi = finite_language_system([])
    assert fs_enumerate(phi, 5) == []


# -- spec files -----------------------------------------------------------------

GOOD_SPEC = """
# pairs of u steps send b-pairs to the front
alphabet = a b
core.kind = regex
core.regex = aaaab*
proc.kind = regex
proc.regex = (uu)*ddd
"""

CF_SPEC = """
alphabet = a b
core.kind = cfg
core.cfg = S -> a S b | eps
proc.kind = cfg
proc.cfg = S -> u S d | eps
"""

MULTILINE_CF_SPEC = """
alphabet = a b
core.kind = cfg
core.cfg = S -> a T
core.cfg = T -> b | eps
proc.kind = regex
proc.regex = d*
"""


def test_parse_spec_regex():
    phi = parse_spec(GOOD_SPEC)
    assert fs_enumerate(phi, 13) == BB_FRONT_13


def test_parse_spec_cfg():
    phi = parse_spec(CF_SPEC)
    assert fs_member(phi, fold("aabb", "uudd"))


def test_parse_spec_repeated_cfg_lines():
    phi = parse_spec(MULTILINE_CF_SPEC)
    assert set(fs_enumerate(phi, 3)) == {"a", "ab"}


@pytest.mark.parametrize("text,fragment", [
    ("alphabet = a b\ncore.kind = regex\nproc.kind = regex\nproc.regex = d*",
     "core.regex"),
    ("core.kind = regex\ncore.regex = a*\nproc.kind = regex\nproc.regex = d*",
     "alphabet"),
    (GOOD_SPEC + "proc.alphabet = u d", "implicitly"),
    (GOOD_SPEC + "core.kind = regex", "duplicate"),
    ("alphabet = a b\ncore.kind = dfa\nproc.kind = regex\nproc.regex = d*",
     "kind"),
    ("what is this", "key = value"),
    ("alphabet = a b\ncore.kind = cfg\nproc.kind = regex\nproc.regex = d*",
     "^missing key core.cfg$"),
])
def test_spec_errors(text, fragment):
    with pytest.raises(SpecFileError, match=fragment):
        parse_spec(text)


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "bb_front.fsys"
    path.write_text(GOOD_SPEC, encoding="utf-8")
    phi = load_spec(path)
    assert fs_member(phi, "aaaab")
