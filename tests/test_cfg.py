"""Grammar parsing, normal form, CYK membership, and CF pumping."""

import itertools
import random
import time
from dataclasses import dataclass, field
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from foldlang import (PROC_ALPHABET, Alphabet, ContextFreeLang, auto_plan, cfg, parse_grammar,
                      pumping, to_normal_form)
from foldlang.cfg import _drop_nullable, _nullable_set, _prune_useless
from foldlang.errors import DecompositionError, FoldlangError, GrammarSyntaxError, ResourceLimit

from conftest import AB, small_grammars, system

ANBN = "S -> a S b | eps"
DYCK = "S -> a S b S | eps"          # balanced a=open, b=close
ASTAR = "S -> a S | eps"
PALIN = "S -> a S a | b S b | a | b | eps"

FIXTURES = [ANBN, DYCK, ASTAR, PALIN]


def derivation_oracle(text, max_len):
    """All strings of length <= max_len derivable from the raw grammar: the
    least fixpoint of its productions with every set cut to lengths
    <= max_len (independent of the normal form and of CYK)."""
    g = parse_grammar(text, AB)
    derives = {a: set() for a in g.productions}
    changed = True
    while changed:
        changed = False
        for head, alts in g.productions.items():
            for rhs in alts:
                words = {""}
                for sym in rhs:
                    parts = derives.get(sym, {sym})
                    words = {x + y for x in words for y in parts
                             if len(x) + len(y) <= max_len}
                if not words <= derives[head]:
                    derives[head] |= words
                    changed = True
    return derives[g.start]


def brute_words(n):
    return ("".join(t) for t in itertools.product("ab", repeat=n))


# -- parsing ------------------------------------------------------------------

def test_parse_basic():
    g = parse_grammar("S -> a S b | eps\nT -> a\nS -> T T", AB)
    assert g.start == "S"
    assert g.nonterminals == ("S", "T")
    assert () in g.productions["S"]
    assert ("T", "T") in g.productions["S"]


def test_parse_infers_alphabet():
    g = parse_grammar("S -> b a")
    assert g.terminals.symbols == ("b", "a")


def test_parse_skips_comment_only_and_blank_lines():
    text = "# balanced a and b\n\n   \nS -> a S b | eps  # nested\n  # done\n"
    g = parse_grammar(text, AB)
    assert g.nonterminals == ("S",)
    assert g.productions == parse_grammar("S -> a S b | eps", AB).productions
    assert ContextFreeLang(text, AB).enumerate_length(4) == ("aabb",)


@pytest.mark.parametrize("bad", [
    "",                       # no productions
    "S -> ",                  # empty alternative
    "S -> a |",               # empty alternative after bar
    "s -> a",                 # lowercase head
    "S -> T",                 # undeclared nonterminal
    "S -> ab",                # multi-char terminal
    "S = a",                  # wrong arrow
])
def test_parse_errors(bad):
    with pytest.raises(GrammarSyntaxError):
        parse_grammar(bad, AB)


def test_terminal_outside_alphabet():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S -> c", AB)


# -- normal form & membership --------------------------------------------------

@pytest.mark.parametrize("text", FIXTURES)
def test_normal_form_preserves_language(text):
    oracle = derivation_oracle(text, 8)
    lang = ContextFreeLang(text, AB)
    for n in range(9):
        for w in brute_words(n):
            assert lang.member(w) == (w in oracle), w


@pytest.mark.parametrize("text", FIXTURES)
def test_enumerate_length_matches_oracle(text):
    oracle = derivation_oracle(text, 8)
    lang = ContextFreeLang(text, AB)
    for n in range(9):
        got = list(lang.enumerate_length(n))
        assert got == sorted(got, key=AB.sort_key)
        assert set(got) == {w for w in oracle if len(w) == n}


def test_normal_form_is_binary():
    nf = to_normal_form(parse_grammar(DYCK, AB))
    assert all(len(rhs) == 2 for alts in nf.bin_prods.values() for rhs in alts)
    assert all(len(t) == 1 for alts in nf.term_prods.values() for t in alts)
    assert nf.start_epsilon


@settings(max_examples=200, deadline=None)
@given(small_grammars("ab"))
def test_length_pruned_kernels_match_oracle(text):
    oracle = derivation_oracle(text, 6)
    lang = ContextFreeLang(text, AB)
    ba = Alphabet("ba")
    reversed_order = ContextFreeLang(text, ba)
    for n in range(7):
        expect = sorted((w for w in oracle if len(w) == n), key=AB.sort_key)
        assert list(lang.enumerate_length(n)) == expect
        assert list(reversed_order.enumerate_length(n)) == sorted(expect, key=ba.sort_key)
        assert lang.has_length(n) == bool(expect)
        assert lang.smallest_of_length(n) == (expect[0] if expect else None)
        assert reversed_order.smallest_of_length(n) == min(expect, key=ba.sort_key, default=None)
        for w in brute_words(n):
            assert lang.member(w) == (w in oracle), w


def test_length_queries_need_no_recursion():
    lang = ContextFreeLang("S -> a S | a", AB)
    assert lang.has_length(3000)
    assert lang.smallest_of_length(3000) == "a" * 3000
    assert not ContextFreeLang("S -> a S b | eps", AB).has_length(2999)


def test_length_queries_on_a_long_chain_stay_linear():
    # 3,000 chain links, each deriving one length: testing every rule at
    # every length would take 9 million ANDs of 3,000-bit ints
    lang = ContextFreeLang("S -> " + "a " * 3000, AB)
    start = time.perf_counter()
    assert lang.has_length(3000)
    assert not lang.has_length(2999)
    assert lang.smallest_of_length(3000) == "a" * 3000
    assert time.perf_counter() - start < 1.0


def test_decompose_needs_no_recursion():
    lang = ContextFreeLang("S -> a S | a", AB)
    d = lang.decompose("a" * 1500)
    assert d.whole == "a" * 1500 and d.v + d.y
    assert lang.member(d.pumped(0)) and lang.member(d.pumped(2))


def test_cyk_long_input():
    lang = ContextFreeLang(ANBN, AB)
    assert lang.member("a" * 150 + "b" * 150)
    assert not lang.member("a" * 150 + "b" * 149)


# -- pumping -------------------------------------------------------------------

def test_pumping_length_is_exponential_in_nonterminals():
    lang = ContextFreeLang(ANBN, AB)
    assert lang.pumping_length() == 2 ** (len(lang.normal_form.nonterminals) + 1)
    assert lang.pumping_length() == 32


def test_decompose_anbn():
    lang = ContextFreeLang(ANBN, AB)
    p = lang.pumping_length()
    w = "a" * (p // 2) + "b" * (p // 2)
    d = lang.decompose(w)
    assert d.u + d.v + d.x + d.y + d.z == w
    assert len(d.v + d.y) >= 1
    assert len(d.v + d.x + d.y) <= p
    for i in range(5):
        assert lang.member(d.pumped(i))


@pytest.mark.parametrize("text", FIXTURES)
def test_decomposition_pump_property(text):
    lang = ContextFreeLang(text, AB)
    p = lang.pumping_length()
    n = next(n for n in range(p, p + 20) if lang.has_length(n))
    w = lang.smallest_of_length(n)
    d = lang.decompose(w)
    assert d.whole == w
    assert len(d.v + d.y) >= 1
    for i in range(5):
        assert lang.member(d.pumped(i))


def test_decompose_rejects_short_or_foreign_strings():
    lang = ContextFreeLang(ANBN, AB)
    with pytest.raises(DecompositionError):
        lang.decompose("ab")
    with pytest.raises(DecompositionError):
        lang.decompose("b" * 40)
    with pytest.raises(DecompositionError):
        lang.decompose("a" * 20 + "c" + "b" * 20)


def test_is_infinite():
    assert ContextFreeLang(ANBN, AB).is_infinite()
    assert not ContextFreeLang("S -> a | a b", AB).is_infinite()
    assert not ContextFreeLang("S -> S | a", AB).is_infinite()
    assert ContextFreeLang("S -> S S | a", AB).is_infinite()  # a one-node cycle


def test_finiteness_needs_no_recursion():
    chain = "\n".join(f"S{k} -> a S{k + 1}" for k in range(1500)) + "\nS1500 -> a"
    assert not ContextFreeLang(chain, AB).is_infinite()


@settings(max_examples=200, deadline=None)
@given(small_grammars("ab"))
@example("S -> eps | S S")           # {eps}: S -> S S survives epsilon elimination
@example("S -> eps | A S\nA -> S S")
def test_is_infinite_matches_the_length_oracle(text):
    # infinite iff some length in [p, 2p) is derivable: pumping down the
    # shortest member of length >= p leaves one of length >= p
    lang = ContextFreeLang(text, AB)
    p = lang.pumping_length()
    assert lang.is_infinite() == any(lang.has_length(n) for n in range(p, 2 * p))


def naive_prune_useless(nonterminals, prods, start):
    """Reference: generating nonterminals by whole passes to a fixpoint."""
    generating = set()
    changed = True
    while changed:
        changed = False
        for head, alts in prods.items():
            if head not in generating and any(
                    all(s in generating or s not in prods for s in rhs) for rhs in alts):
                generating.add(head)
                changed = True
    if start not in generating:
        return (start,), {start: []}
    reach, frontier = {start}, [start]
    while frontier:
        for rhs in prods[frontier.pop()]:
            for s in rhs:
                if s in generating and s not in reach:
                    reach.add(s)
                    frontier.append(s)
    keep = generating & reach
    return (tuple(nt for nt in nonterminals if nt in keep),
            {head: [rhs for rhs in prods[head] if all(s not in prods or s in keep for s in rhs)]
             for head in keep})


# the chain as in test_finiteness_needs_no_recursion, shortened: the
# reference makes one pass per nonterminal
CHAIN_300 = "\n".join(f"S{k} -> a S{k + 1}" for k in range(300)) + "\nS300 -> a"


@settings(max_examples=300, deadline=None)
@given(small_grammars("ab"))
@example(CHAIN_300)
def test_prune_useless_matches_the_fixpoint(text):
    g = parse_grammar(text, AB)
    args = (g.nonterminals, g.productions, g.start)
    assert _prune_useless(*args) == naive_prune_useless(*args)


def naive_nullable_set(prods):
    """Reference: nullable nonterminals by whole passes to a fixpoint."""
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, alts in prods.items():
            if head not in nullable and any(all(s in nullable for s in rhs) for rhs in alts):
                nullable.add(head)
                changed = True
    return nullable


# a chain that is a unit chain after epsilon elimination, listed from the
# start symbol down: the reference makes one pass per nonterminal
UNIT_CHAIN_300 = "\n".join(f"S{k} -> a S{k + 1} | S{k + 1} S{k + 1}"
                           for k in range(300)) + "\nS300 -> a | eps"


@settings(max_examples=300, deadline=None)
@given(small_grammars("ab"))
@example(UNIT_CHAIN_300)
def test_nullable_worklist_matches_the_fixpoint(text):
    prods = parse_grammar(text, AB).productions
    assert _nullable_set(prods) == naive_nullable_set(prods)


def naive_drop_nullable(rhs, nullable):
    """Reference: one subsequence per subset of the nullable occurrences."""
    opt = [i for i, s in enumerate(rhs) if s in nullable]
    out = set()
    for mask in itertools.product((False, True), repeat=len(opt)):
        drop = {opt[i] for i, d in enumerate(mask) if d}
        new = tuple(s for i, s in enumerate(rhs) if i not in drop)
        if new:
            out.add(new)
    return out


@settings(max_examples=300, deadline=None)
@given(small_grammars("ab"))
@example("S -> A B a A S B b\nA -> a | eps\nB -> A A | b")
def test_drop_nullable_matches_the_mask_loop(text):
    prods = parse_grammar(text, AB).productions
    nullable = _nullable_set(prods)
    for alts in prods.values():
        for rhs in alts:
            assert _drop_nullable(rhs, nullable) == naive_drop_nullable(rhs, nullable)


def test_long_nullable_right_hand_side():
    # the mask loop would expand 2^40 subsets; 41 subsequences are distinct
    start = time.perf_counter()
    lang = ContextFreeLang("S -> " + " A" * 40 + "\nA -> a | eps", AB)
    assert lang.normal_form.start_epsilon
    assert time.perf_counter() - start < 1.0
    assert lang.has_length(40) and not lang.has_length(41)


def nullable_run(k):
    """S -> A0 ... A(k-1), each Ai -> a | eps: 2^k - 1 epsilon-free variants."""
    return "S -> " + " ".join(f"A{i}" for i in range(k)) + "".join(
        f"\nA{i} -> a | eps" for i in range(k))


def test_nullable_run_builds_up_to_the_variant_bound():
    lang = ContextFreeLang(nullable_run(16), AB)  # 65,535 variants
    assert lang.member("a" * 16) and not lang.member("a" * 17)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="more than 65536 epsilon-free variants"):
        ContextFreeLang(nullable_run(20), AB)
    assert time.perf_counter() - start < 1.0


def test_fresh_names_skip_declared_ones():
    # X1, X3 and T_a are declared: the chain links take X, X2, X4, ... in
    # order, and the lifted a takes T_a1
    nf = ContextFreeLang("S -> a b a b a b X1 | b a b X3\nX1 -> T_a b X3\nX3 -> a\n"
                         "T_a -> a", AB).normal_form
    assert nf.nonterminals == ("S", "X1", "X3", "T_a", "T_a1", "T_b",
                               "X", "X2", "X4", "X5", "X6", "X7", "X8")
    assert nf.bin_prods["S"] == [("T_a1", "X"), ("T_b", "X7")]
    assert nf.bin_prods["X6"] == [("T_b", "X1")]


def naive_binarize(head, rhs, bin_prods, suffix_nt, fresh):
    """Reference: the recursive chain, one Python frame per suffix."""
    def chain(symbols):
        if symbols in suffix_nt:
            return suffix_nt[symbols]
        nt = fresh("X")
        suffix_nt[symbols] = nt
        if len(symbols) == 2:
            bin_prods[nt].append((symbols[0], symbols[1]))
        else:
            bin_prods[nt].append((symbols[0], chain(symbols[1:])))
        return nt

    bin_prods[head].append(rhs if len(rhs) == 2 else (rhs[0], chain(rhs[1:])))


@settings(max_examples=300, deadline=None)
@given(small_grammars("ab", max_rhs=6))
@example("S -> a b a b a b | b a b a b | a b a b")  # shared suffixes
@example("S -> A a A b A a\nA -> a | eps")
def test_binarize_loop_matches_the_recursion(text):
    g = parse_grammar(text, AB)
    got = to_normal_form(g)
    with mock.patch.object(cfg, "_binarize", naive_binarize):
        expect = to_normal_form(g)
    assert (got.nonterminals, got.bin_prods, got.term_prods, got.start_epsilon) == (
        expect.nonterminals, expect.bin_prods, expect.term_prods, expect.start_epsilon)


@pytest.fixture(scope="module")
def long_chain():
    """S -> a ... a with 1,500 symbols: 1,500 nonterminals, one length each."""
    return ContextFreeLang("S -> " + "a " * 1500, AB)


def test_long_right_hand_side_needs_no_recursion(long_chain):
    # the recursive chain raised RecursionError from about 1,000 symbols
    assert long_chain.member("a" * 1500)
    assert not long_chain.member("a" * 1499)


def flat_masks(masks):
    """The CYK masks keyed by (A, l), from their per-nonterminal dicts."""
    return {(a, l): m for a, row in masks.items() for l, m in row.items()}


def test_cyk_keeps_only_derivable_cells(long_chain):
    nf = long_chain.normal_form
    masks = flat_masks(cfg._cyk_masks(nf, "a" * 1500))
    table = nf.lengths
    assert all(table.bits[a] >> l & 1 for a, l in masks)
    # each chain nonterminal derives one length, so one cell each
    assert len(masks) == len(nf.nonterminals)
    assert masks[(nf.start, 1500)] == 1


def test_unit_chain_normal_form():
    nf = ContextFreeLang(UNIT_CHAIN_300, AB).normal_form
    assert nf.start_epsilon
    # S_k inherits the binary productions of every S_j below it
    assert len(nf.bin_prods["S0"]) == 2 * 300
    assert nf.term_prods["S0"] == ["a"]


def test_unary_grammar_decompose_degenerates():
    d = ContextFreeLang(ASTAR, AB).decompose("a" * 20)
    assert (d.v == "") != (d.y == "")  # exactly one pump piece is empty


class NaiveLengthTable:
    """The list-walking length table the bitset one replaced: lists[A]
    holds A's lengths ascending, and a split walks the shorter of the two
    lists.  Kept as the reference."""

    def __init__(self, nf):
        self.prods = nf.bin_prods
        self.limit = 1
        self.bits = {a: 2 if nf.term_prods[a] else 0 for a in nf.nonterminals}
        self.lists = {a: [1] if nf.term_prods[a] else [] for a in nf.nonterminals}

    def upto(self, n):
        for l in range(self.limit + 1, n + 1):
            for a, alts in self.prods.items():
                if any(s for b, c in alts for s in self.splits(b, c, l)):
                    self.bits[a] |= 1 << l
                    self.lists[a].append(l)
        self.limit = max(self.limit, n)
        return self

    def splits(self, b, c, l):
        lb, lc = self.lists[b], self.lists[c]
        if len(lb) <= len(lc):
            return [s for s in lb if s < l and self.bits[c] >> (l - s) & 1]
        return [l - t for t in lc if t < l and self.bits[b] >> (l - t) & 1]


def naive_cyk_masks(nf, w, table):
    """The CYK that visited every (A, l) cell and kept empty masks."""
    n = len(w)
    table.upto(n)
    masks = {}
    for a in nf.nonterminals:
        masks[(a, 1)] = sum(1 << i for t in nf.term_prods[a]
                            for i, ch in enumerate(w) if ch == t)
    for l in range(2, n + 1):
        for a in nf.nonterminals:
            m = 0
            if table.bits[a] >> l & 1:
                for b, c in nf.bin_prods[a]:
                    for s in table.splits(b, c, l):
                        m |= masks[(b, s)] & (masks[(c, l - s)] >> s)
            masks[(a, l)] = m & ((1 << (n - l + 1)) - 1)
    return masks


@settings(max_examples=200, deadline=None)
@given(small_grammars("ab"), st.lists(st.text("ab", max_size=8), max_size=6))
@example(DYCK, ["abab", "aabbab", "abba"])
@example(PALIN, ["abaaba", "ab"])
def test_bitset_kernels_match_the_list_walk(text, words):
    nf = ContextFreeLang(text, AB).normal_form
    naive = NaiveLengthTable(nf).upto(30)
    table = nf.lengths.upto(30)
    assert table.bits == naive.bits
    for l in range(1, 31):
        assert table.at[l] == [a for a in nf.nonterminals if naive.bits[a] >> l & 1]
        for b, c in itertools.product(nf.nonterminals, repeat=2):
            assert list(table.splits(b, c, l)) == sorted(naive.splits(b, c, l))
    for w in words:
        expect = {cell: m for cell, m in naive_cyk_masks(nf, w, naive).items() if m}
        assert flat_masks(cfg._cyk_masks(nf, w)) == expect


def one_symbol_edits(w):
    """w with its first, middle and last symbol flipped, with its middle
    symbol dropped, and with an a put in the middle."""
    flip = {"a": "b", "b": "a"}
    mid = len(w) // 2
    edits = [w[:i] + flip[w[i]] + w[i + 1:] for i in (0, mid, len(w) - 1)]
    return edits + [w[:mid] + w[mid + 1:], w[:mid] + "a" + w[mid:]]


_rng = random.Random(27)
#: Grammars whose every rule is beside a lifted terminal on the left, on the
#: right, on both sides, or on neither, with members of 100-264 symbols.
LONG_CYK_WORDS = [
    ("S -> a S | a", ["a" * n for n in (100, 181, 264)]),
    ("S -> S a | a", ["a" * n for n in (100, 181, 264)]),
    ("S -> a a S b | eps", ["a" * 2 * k + "b" * k for k in (34, 61, 88)]),
    ("S -> S S | a | b", ["".join(_rng.choice("ab") for _ in range(n)) for n in (100, 264)]),
]


@pytest.mark.parametrize("text, members", LONG_CYK_WORDS)
def test_cyk_matches_the_list_walk_on_long_inputs(text, members):
    nf = ContextFreeLang(text, AB).normal_form
    naive = NaiveLengthTable(nf)
    for w in members:
        assert flat_masks(cfg._cyk_masks(nf, w))[(nf.start, len(w))] == 1
        for v in [w, *one_symbol_edits(w)]:
            expect = {cell: m for cell, m in naive_cyk_masks(nf, v, naive).items() if m}
            assert flat_masks(cfg._cyk_masks(nf, v)) == expect


class ScanningLengthTable:
    """The length table that tested every rule at every length, with no
    propagation from the previous length.  Kept as the reference."""

    def __init__(self, nf):
        self.prods = nf.bin_prods
        self.limit = self.cap = 1
        self.at = [[], [a for a in nf.nonterminals if nf.term_prods[a]]]
        self.bits = {a: 2 if nf.term_prods[a] else 0 for a in nf.nonterminals}
        self.rev = {a: bits >> 1 for a, bits in self.bits.items()}

    def upto(self, n):
        if n > self.cap:
            grow = max(n, 2 * self.cap) - self.cap
            self.rev = {a: bits << grow for a, bits in self.rev.items()}
            self.cap += grow
        bits, rev, cap = self.bits, self.rev, self.cap
        for l in range(self.limit + 1, n + 1):
            self.at.append([a for a, alts in self.prods.items()
                            if any(bits[b] & (rev[c] >> (cap - l)) for b, c in alts)])
            for a in self.at[l]:
                bits[a] |= 1 << l
                rev[a] |= 1 << (cap - l)
        self.limit = max(self.limit, n)
        return self


@settings(max_examples=200, deadline=None)
@given(small_grammars("ab", max_rhs=6))
@example(DYCK)
@example(PALIN)
@example("S -> a a S b | eps")      # every rule beside a lifted terminal
@example("S -> S S | a | b")        # no rule beside one
@example("S -> A a | b A A\nA -> a A | A b | b")
def test_propagated_length_table_matches_the_scan(text):
    nf = ContextFreeLang(text, AB).normal_form
    reference = ScanningLengthTable(nf)
    # 9 and 40 double the cap, the others grow it to n; 20 is covered
    for n in (7, 9, 30, 40, 20, 64, 130):
        table = nf.lengths.upto(n)
        reference.upto(n)
        assert (table.limit, table.cap) == (reference.limit, reference.cap)
        assert table.bits == reference.bits
        assert table.rev == reference.rev
        assert table.at == reference.at


def fill(memo, root, parts, combine):
    """Reference: memo[root] from a depth-first stack, children before
    parents, rescanning a node's parts each time it is back on top."""
    stack = [(root, None)]
    while stack:
        node, node_parts = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if node_parts is None:
            node_parts = parts(node)
            stack[-1] = (node, node_parts)
        todo = [(k, None) for part in node_parts for k in part if k not in memo]
        if todo:
            stack.extend(todo)
            continue
        memo[node] = combine(node, [(memo[p], memo[q]) for p, q in node_parts])
        stack.pop()
    return memo[root]


class DepthFirstContextFreeLang(ContextFreeLang):
    """The language with its memos filled depth first, as before they were
    filled in length order.  Kept as the reference."""

    def _solve(self, memo, n, leaf, join):
        nf = self.normal_form
        table = nf.lengths.upto(n)

        def parts(node):
            x, l = node
            return [] if l == 1 else [((b, s), (c, l - s)) for b, c in nf.bin_prods[x]
                                      for s in table.splits(b, c, l)]

        def combine(node, entries):
            return leaf(nf.term_prods[node[0]]) if node[1] == 1 else join(entries)

        return fill(memo, (nf.start, n), parts, combine)


def assert_memos_match(lang, reference, calls):
    for call in calls:
        kept = dict(lang._strings)
        assert call(lang) == call(reference)
        assert lang._least == reference._least
        assert lang._strings == reference._strings
        assert kept.items() <= lang._strings.items()


@settings(max_examples=150, deadline=None)
@given(small_grammars("ab", max_rhs=6))
@example(DYCK)
@example(PALIN)
@example("S -> a a S b | eps")
@example("S -> S S | a | b")
def test_length_ordered_memos_match_the_depth_first_fill(text):
    calls = [
        lambda x: x.smallest_of_length(5),
        lambda x: x.enumerate_length(4),
        lambda x: x.count_length(9, 0),    # read off the length table: builds nothing
        lambda x: x.smallest_of_length(12),
        lambda x: x.count_length(11, 30),  # refused after smaller slices are built
        lambda x: x.enumerate_length(7),
        lambda x: x.count_length(10, 10 ** 6),
        lambda x: x.smallest_of_length(9),
    ]
    assert_memos_match(ContextFreeLang(text, AB), DepthFirstContextFreeLang(text, AB), calls)


#: The two sides of the CF/CF greater pump demo, at the lengths of its
#: strands (132-264).
@pytest.mark.parametrize("text, alphabet", [("S -> a a S b | eps", AB),
                                            ("S -> u S d | eps", PROC_ALPHABET)])
def test_length_ordered_memos_match_the_depth_first_fill_at_pump_lengths(text, alphabet):
    calls = [
        lambda x: x.smallest_of_length(132),
        lambda x: x.count_length(192, 64),
        lambda x: x.enumerate_length(264),
        lambda x: x.count_length(264, 0),  # the kept slice, counted as it stands
    ]
    assert_memos_match(ContextFreeLang(text, alphabet),
                       DepthFirstContextFreeLang(text, alphabet), calls)


def test_a_count_with_budget_0_reads_only_the_length_table(monkeypatch):
    kept = ContextFreeLang(DYCK, AB)
    kept.enumerate_length(6)

    def no_solve(*args):
        raise AssertionError("a count with budget 0 collected a slice")

    monkeypatch.setattr(ContextFreeLang, "_solve", no_solve)
    lang = ContextFreeLang(DYCK, AB)
    assert lang.count_length(254, 0) == 1  # over budget: slice 254 is not empty
    assert lang.count_length(253, 0) == 0
    assert lang._strings == {}
    assert kept.count_length(6, 0) == 5    # a kept slice is counted as it stands


@dataclass
class Node:
    nt: str
    start: int
    length: int
    children: list = field(default_factory=list)


def node_tree(nf, masks, w):
    """The parse tree as linked nodes, parents first, from the split loop
    over every rule, as before the tree was kept in flat lists.  Kept as the
    reference."""
    nodes = [Node(nf.start, 0, len(w))]
    for node in nodes:
        a, i, l = node.nt, node.start, node.length
        if l == 1 and w[i] in nf.term_prods[a]:
            continue
        node.children = next(
            ([Node(b, i, s), Node(c, i + s, l - s)]
             for b, c in nf.bin_prods[a] for s in nf.lengths.splits(b, c, l)
             if masks.get((b, s), 0) >> i & 1 and masks.get((c, l - s), 0) >> (i + s) & 1),
            None)
        if node.children is None:
            raise FoldlangError(f"no derivation for {a} over w[{i}:{i + l}]")
        nodes += node.children
    return nodes


def node_longest_path(nodes):
    height = {}
    for nd in reversed(nodes):
        height[id(nd)] = 1 + max((height[id(ch)] for ch in nd.children), default=0)
    path = [nodes[0]]
    while path[-1].children:
        path.append(max(path[-1].children, key=lambda ch: height[id(ch)]))
    return path


def reference_decomposition(lang, w):
    """(decompose(w).pieces, the longest path as (A, start, length) nodes)
    from the linked-node tree, or the DecompositionError text."""
    nf = lang.normal_form
    masks = flat_masks(cfg._cyk_masks(nf, w)) if nf.terminals.covers(w) else {}
    if not (masks.get((nf.start, len(w)), 0) & 1 if w else nf.start_epsilon):
        return f"{w!r} is not a member"
    p = lang.pumping_length()
    if len(w) < p:
        return f"|w|={len(w)} < pumping length {p}"
    path = node_longest_path(node_tree(nf, masks, w))
    seen = {}
    for node in reversed(path[-(len(nf.nonterminals) + 1):]):
        if node.nt in seen:
            upper, lower = node, seen[node.nt]
            break
        seen[node.nt] = node
    i, l, j, k = upper.start, upper.length, lower.start, lower.length
    pieces = (w[:i], w[i:j], w[j:j + k], w[j + k:i + l], w[i + l:])
    return pieces, [(nd.nt, nd.start, nd.length) for nd in path]


def decomposition(lang, w):
    try:
        pieces = lang.decompose(w).pieces
    except DecompositionError as e:
        return str(e)
    nf = lang.normal_form
    return pieces, cfg._longest_path(*cfg._build_tree(nf, cfg._cyk_masks(nf, w), w))


def flip_last(w):
    return w[:-1] + {"a": "b", "b": "a", "u": "d", "d": "u"}[w[-1]] if w else "b"


@settings(max_examples=150, deadline=None)
@given(small_grammars("ab", max_rhs=6))
@example("S -> S S | a | b")        # several splits, none fixed
@example("S -> S S | a S b | eps")
@example("S -> a a S b | eps")      # every split fixed
@example("S -> A a | b A A\nA -> a A | A b | b")
def test_flat_parse_tree_matches_the_node_tree(text):
    lang = ContextFreeLang(text, AB)
    p = lang.pumping_length()
    assume(p <= 128)
    words = ["", "c", "ab", "b" * (p - 1)]
    for n in range(p, p + 9):
        w = lang.smallest_of_length(n)
        if w is not None:
            words += [w, flip_last(w)]
    for w in words:
        assert decomposition(lang, w) == reference_decomposition(lang, w)


#: The systems of the pumping demos that have a context-free side.
DEMO_SYSTEMS = [
    ("S -> a S b | eps", "(ud)*"),
    ("(ab)*", "S -> u S d | eps"),
    ("S -> a S b | eps", "S -> u S d | eps"),
    ("S -> a a S b | eps", "S -> u S d | eps"),
    ("S -> a S | eps", "S -> u S | eps"),
]


@pytest.mark.parametrize("core, proc", DEMO_SYSTEMS)
def test_flat_parse_tree_on_the_demo_strands(core, proc):
    phi = system(core, proc)
    plan = auto_plan(phi)
    strands = [pumping._base_pair(phi)]
    strands += [(plan.r_at(j), plan.s_at(j)) for j in range(plan.j0, plan.j0 + 4)]
    for k, side in enumerate((phi.core, phi.proc)):
        if isinstance(side, ContextFreeLang):
            for pair in strands:
                w = pair[k]
                for v in (w, flip_last(w), w[:side.pumping_length() - 1]):
                    assert decomposition(side, v) == reference_decomposition(side, v)


def test_decompose_a_long_member_stays_fast():
    lang = ContextFreeLang("S -> a a S b | eps", AB)
    w = "a" * 8000 + "b" * 4000
    start = time.perf_counter()
    pieces = lang.decompose(w).pieces
    assert time.perf_counter() - start < 1.0
    assert pieces == reference_decomposition(lang, w)[0]
