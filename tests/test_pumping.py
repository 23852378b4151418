"""Pumping pipelines: strand plans, families, verification, refutation."""

import json

import pytest

from foldlang import (PumpFamily, auto_plan, fold, lemma1_plan,
                      lemma2_plan_cf_reg, lemma2_plan_reg_cf, lemma3_plan,
                      plan_to_family, refute_unary_family, verify_family,
                      verify_plan)
from foldlang.errors import CaseValidationFailed, FiniteComponent, FoldlangError
from foldlang.pumping import (LEMMA_CF_CF, LEMMA_CF_REG, LEMMA_REG_CF,
                              LEMMA_REG_REG, Block, _search_plan, materialize,
                              is_prime, PREDICATES)

from conftest import system

BB_FRONT = ("aaaab*", "(uu)*ddd")

L2_SYSTEMS = [
    ("S -> a S b | eps", "d*"),
    ("S -> a S b | eps", "(ud)*"),
    ("a*", "S -> u S d | eps"),
    ("(ab)*", "S -> u S d | eps"),
    ("ba*a", "S -> S u | eps"),   # left-recursive procedure: empty v_s
]

L3_SYSTEMS = [
    ("equal", "S -> a S b | eps", "S -> u S d | eps"),
    ("greater", "S -> a a S b | eps", "S -> u S d | eps"),
    ("less", "S -> a S b | eps", "S -> u u S d | eps"),
    ("degenerate", "S -> a S | eps", "S -> u S | eps"),
    ("proc-single", "S -> a S b | eps", "S -> u S | eps"),
    ("core-single", "S -> a S | eps", "S -> u S d | eps"),
    ("core-single", "S -> S a | eps", "S -> u S d | eps"),  # empty v_r
]

ALL_SYSTEMS = [BB_FRONT] + L2_SYSTEMS + [(c, p) for _, c, p in L3_SYSTEMS]

#: CF,REG systems that need a large j0 (79..82), still below |r|, the
#: length of the base core string
LATE_J0_SYSTEMS = [
    ("S -> b a S a | b a | eps", "uduu*uud"),
    ("S -> b a S a | b a | eps", "udu*ud"),
    ("S -> b a S a | a | eps", "uduu*uud"),
    ("S -> a b S b | a | eps", "duu*dd"),
]

#: plan_to_family(auto_plan(phi)).to_json() for every system in ALL_SYSTEMS.
FAMILY_JSON = {
    ('aaaab*', '(uu)*ddd'):
        ('{"parts": ["", "bb", "aaaa", "", "bbb"], "pumped": [1, 3], '
         '"lemma": "L1", "j0": 0}'),
    ('S -> a S b | eps', 'd*'):
        ('{"parts": ["", "", "", "", "aaaaaaaaaaaaaa", "a", '
         '"aaaaaaaaaaaaaaaaa", "b", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"], '
         '"pumped": [1, 3, 5, 7], "lemma": "L2cfreg", "j0": 15}'),
    ('S -> a S b | eps', '(ud)*'):
        ('{"parts": ["bbbbbbbbbbbbbbb", "b", "aaaaaaaa", "a", '
         '"aaaaaaaaaaaaaa", "a", "aaaaaaaa", "b", "bbbbbbbbbbbbbbb"], '
         '"pumped": [1, 3, 5, 7], "lemma": "L2cfreg", "j0": 7}'),
    ('a*', 'S -> u S d | eps'):
        ('{"parts": ["", "", "aa", "a", "aaaaaaaaaaaaaa", "", "a", "a", '
         '"aaaaaaaaaaaaaaa"], "pumped": [1, 3, 5, 7], "lemma": "L2regcf", '
         '"j0": 0}'),
    ('(ab)*', 'S -> u S d | eps'):
        ('{"parts": ["", "", "ba", "ba", "bababababababa", "", "a", "ba", '
         '"bababababababab"], "pumped": [1, 3, 5, 7], "lemma": "L2regcf", '
         '"j0": 0}'),
    ('S -> a S b | eps', 'S -> u S d | eps'):
        ('{"parts": ["", "", "", "", "aa", "aa", "aaaaaaaaaaaaaa", "", "b", '
         '"", "b", "bb", "bbbbbbbbbbbbbb"], "pumped": [1, 3, 5, 7, 9, 11], '
         '"lemma": "L3", "j0": 0}'),
    ('S -> a a S b | eps', 'S -> u S d | eps'):
        ('{"parts": ["", "", "", "", "aaaaaaaaaaaa", "aaaaaa", '
         '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", '
         '"", "a", "aa", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbb", '
         '"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"], '
         '"pumped": [1, 3, 5, 7, 9, 11], "lemma": "L3", "j0": 5}'),
    ('S -> a S b | eps', 'S -> u u S d | eps'):
        ('{"parts": ["", "", "bb", "bb", '
         '"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbaaaaaaaaaaaa", "aaaaaa", '
         '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", '
         '"", "", "", "", "bbbb", '
         '"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"], '
         '"pumped": [1, 3, 5, 7, 9, 11], "lemma": "L3", "j0": 5}'),
    ('S -> a S | eps', 'S -> u S | eps'):
        ('{"parts": ["aaa", "a", "", "", "", "", "aaaaa", "", "", "", "", '
         '"", ""], "pumped": [1, 11], "lemma": "L3", "j0": 0}'),
    ('S -> a S b | eps', 'S -> u S | eps'):
        ('{"parts": ["bbbbbbbbbbbbbb", "b", "bbbbbbbbbbbbbbb", "", "", "a", '
         '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "", "", "", "", "", ""], '
         '"pumped": [1, 5, 7, 11], "lemma": "L3", "j0": 13}'),
    ('S -> a S | eps', 'S -> u S d | eps'):
        ('{"parts": ["", "", "", "", "", "a", '
         '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "", "", "", "a", "a", '
         '"aaaaaaaaaaaaaaaaaaaaaaaaaaaa"], "pumped": [1, 5, 7, 11], "lemma": '
         '"L3", "j0": 13}'),
    ('S -> S a | eps', 'S -> u S d | eps'):
        ('{"parts": ["", "", "aa", "", "", "a", "aaaaaaaaaaaaaa", "", "", "", '
         '"a", "a", "aaaaaaaaaaaaaaa"], "pumped": [1, 5, 7, 11], "lemma": '
         '"L3", "j0": 0}'),
    ('ba*a', 'S -> S u | eps'):
        ('{"parts": ["aaaaaa", "a", "", "", "ab", "", "", "", ""], "pumped": '
         '[1, 3, 5, 7], "lemma": "L2regcf", "j0": 0}'),
}

PLANNERS = {
    LEMMA_REG_REG: lemma1_plan,
    LEMMA_CF_REG: lemma2_plan_cf_reg,
    LEMMA_REG_CF: lemma2_plan_reg_cf,
    LEMMA_CF_CF: lemma3_plan,
}

#: one system of each pairing, keyed by the lemma that applies to it
PAIRING_SYSTEMS = {
    LEMMA_REG_REG: BB_FRONT,
    LEMMA_CF_REG: L2_SYSTEMS[0],
    LEMMA_REG_CF: L2_SYSTEMS[2],
    LEMMA_CF_CF: L3_SYSTEMS[0][1:],
}


def check_pipeline(phi, plan, n_parts):
    assert all(len(x) == len(m) for x, m in zip(plan.xi, plan.mu))
    report = verify_plan(plan, phi)
    assert report.passed, report.summary()
    family = plan_to_family(plan)
    assert len(family.parts) == n_parts
    assert family.pumped_total > 0
    report = verify_family(family, phi, range(4))
    assert report.passed, report.summary()
    return family


# -- per-lemma plans -------------------------------------------------------------

def test_lemma1_reg_reg():
    phi = system(*BB_FRONT)
    plan = lemma1_plan(phi)
    assert plan.lemma == LEMMA_REG_REG
    assert plan.m == 3
    assert len(plan.xi[1]) == 2   # |y_r| * |y_s| = 1 * 2
    family = check_pipeline(phi, plan, 5)
    assert verify_family(family, phi, range(5)).passed


def test_lemma1_needs_infinite_components():
    with pytest.raises(FiniteComponent):
        lemma1_plan(system("aaaab*", "ddd"))
    with pytest.raises(FiniteComponent):
        lemma1_plan(system("aaaab", "(uu)*ddd"))


@pytest.mark.parametrize("core,proc", L2_SYSTEMS)
def test_lemma2_pipelines(core, proc):
    phi = system(core, proc)
    planner = lemma2_plan_cf_reg if "->" in core else lemma2_plan_reg_cf
    plan = planner(phi)
    assert plan.m == 5
    check_pipeline(phi, plan, 9)


@pytest.mark.parametrize("case,core,proc", L3_SYSTEMS)
def test_lemma3_pipelines(case, core, proc):
    phi = system(core, proc)
    plan = lemma3_plan(phi)
    assert plan.lemma == LEMMA_CF_CF
    assert plan.case == case
    family = check_pipeline(phi, plan, 13)
    if case == "equal":
        assert family.parts[3] == "" and family.parts[9] == ""


@pytest.mark.parametrize("core,proc", LATE_J0_SYSTEMS)
def test_late_j0_systems_plan_and_verify(core, proc):
    phi = system(core, proc)
    plan = auto_plan(phi)
    assert 64 < plan.j0 <= len(materialize(plan.r_blocks, 0))
    family = check_pipeline(phi, plan, 9)
    assert verify_family(family, phi, range(5)).passed


def test_auto_plan_selects_by_component_kind():
    for lemma, spec in PAIRING_SYSTEMS.items():
        assert auto_plan(system(*spec)).lemma == lemma


@pytest.mark.parametrize("lemma,other", [(a, b) for a in PLANNERS
                                         for b in PLANNERS if a != b])
def test_planner_rejects_other_pairings(lemma, other):
    with pytest.raises(FoldlangError, match="does not apply"):
        PLANNERS[lemma](system(*PAIRING_SYSTEMS[other]))


# -- cross-checks ------------------------------------------------------------------

@pytest.mark.parametrize("core,proc", ALL_SYSTEMS)
def test_family_equals_fold_of_strands(core, proc):
    phi = system(core, proc)
    plan = auto_plan(phi)
    family = plan_to_family(plan)
    for i in range(4):
        r = materialize(plan.r_blocks, plan.j0 + i)
        s = materialize(plan.s_blocks, plan.j0 + i)
        assert family.assemble(i) == fold(r, s)


@pytest.mark.parametrize("core,proc", ALL_SYSTEMS)
def test_strand_formulas_stay_in_components(core, proc):
    phi = system(core, proc)
    plan = auto_plan(phi)
    for j in range(plan.j0, plan.j0 + 3):
        assert phi.core.member(materialize(plan.r_blocks, j))
        assert phi.proc.member(materialize(plan.s_blocks, j))


def test_all_down_procedure_gives_empty_up_parts():
    phi = system("S -> a S b | eps", "d*")
    plan = lemma2_plan_cf_reg(phi)
    family = plan_to_family(plan)
    # with no Up directions every reversed-up part is empty
    assert all(p == "" for p in family.parts[:4])


# -- negative controls ---------------------------------------------------------------

def test_corrupted_window_fails_reconstruction():
    phi = system(*BB_FRONT)
    plan = lemma1_plan(phi)
    import dataclasses
    bad = dataclasses.replace(plan, xi=(plan.xi[0], "zz", plan.xi[2]))
    report = verify_plan(bad, phi)
    assert not report.passed
    longer = dataclasses.replace(plan, mu=(plan.mu[0] + "u",) + plan.mu[1:])
    report = verify_plan(longer, phi)
    assert all("strand lengths differ" in c.detail for c in report.checks)


@pytest.mark.parametrize("other,problem", [
    (("b*", "(uu)*ddd"), "r_j not in core language"),
    (("aaaab*", "u*"), "s_j not in procedure language"),
])
def test_plan_fails_against_another_system(other, problem):
    plan = lemma1_plan(system(*BB_FRONT))
    report = verify_plan(plan, system(*other))
    assert not report.passed
    assert all(c.detail == problem for c in report.checks)


def test_wrong_family_fails_verification():
    phi = system(*BB_FRONT)
    family = PumpFamily(("", "ab", "aaaab", "", ""), (1, 3), "L1", 0)
    report = verify_family(family, phi, range(3))
    assert not report.passed
    assert any(not c.ok for c in report.checks if c.index <= 2)


def test_zero_pumped_total_rejected():
    phi = system(*BB_FRONT)
    family = PumpFamily(("", "", "aaaab", "", ""), (1, 3), "L1", 0)
    report = verify_family(family, phi, range(2))
    assert not report.passed
    assert any(c.index == -1 for c in report.checks)


def test_checking_nothing_does_not_pass():
    phi = system(*BB_FRONT)
    plan = lemma1_plan(phi)
    assert not verify_plan(plan, phi, range(0)).passed
    assert not verify_family(plan_to_family(plan), phi, range(0)).passed


def test_family_check_defaults_to_i_from_0_to_4():
    phi = system(*BB_FRONT)
    family = plan_to_family(lemma1_plan(phi))
    report = verify_family(family, phi)
    assert report.passed
    assert [(c.index, c.string) for c in report.checks] == [
        (i, family.assemble(i)) for i in range(5)]


def test_strands_that_grow_unequally_fail_the_search():
    # a b^j a grows one symbol per step, u (dd)^j u two: no window tiles both
    r_blocks = [Block("a", 0), Block("b", 1), Block("a", 0)]
    s_blocks = [Block("u", 0), Block("dd", 1), Block("u", 0)]
    refusal = "^L1: j0=3: procedure windows != strand formula at j=3$"
    with pytest.raises(CaseValidationFailed, match=refusal):
        _search_plan(LEMMA_REG_REG, None, r_blocks, s_blocks)


def test_mismatched_growth_rates_still_plan():
    # core pumps two symbols per step, procedure three; a tiling exists
    phi = system("S -> a S b | eps", "S -> u S d d | eps")
    check_pipeline(phi, lemma3_plan(phi), 13)


def test_no_common_length_reports_cleanly():
    from foldlang.errors import NoEqualLengthPair
    phi = system("(aa)*", "d(dd)*")   # even core lengths, odd procedure lengths
    with pytest.raises(NoEqualLengthPair):
        lemma1_plan(phi)


# -- serialization --------------------------------------------------------------------

def test_family_json_roundtrip_is_byte_exact():
    family = plan_to_family(auto_plan(system(*BB_FRONT)))
    doc = family.to_json()
    again = PumpFamily.from_json(doc)
    assert again == family
    assert again.to_json() == doc
    obj = json.loads(doc)
    assert list(obj) == ["parts", "pumped", "lemma", "j0"]
    assert obj["lemma"] == "L1"


@pytest.mark.parametrize("core,proc", ALL_SYSTEMS)
def test_family_json_is_pinned(core, proc):
    family = plan_to_family(auto_plan(system(core, proc)))
    assert family.to_json() == FAMILY_JSON[core, proc]


# -- unary refutation ------------------------------------------------------------------

def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


def test_refutation_returns_smallest_witness():
    # base length 7, pumped length 2: lengths 7, 9, 11, ... first composite at i=1
    family = PumpFamily(("aaa", "aa", "aa"), (1,), "L1", 0)
    assert family.length_at(0) == 5
    i = refute_unary_family(is_prime, family)
    assert i is not None
    assert not is_prime(family.length_at(i))
    assert all(is_prime(family.length_at(k)) for k in range(i))


def test_refutation_none_when_parity_preserved():
    # lengths 4, 6, 8, ... always even
    family = PumpFamily(("aa", "aa", ""), (1,), "L1", 0)
    assert refute_unary_family(PREDICATES["even"], family, bound=100) is None


def test_refutation_requires_unary_family():
    family = PumpFamily(("ab", "a", ""), (1,), "L1", 0)
    with pytest.raises(FoldlangError, match="unary"):
        refute_unary_family(is_prime, family)


@pytest.mark.parametrize("family", [
    PumpFamily(("a", ""), (1,), "L1", 0),
    PumpFamily(("a",), (), "L1", 0),
])
def test_refutation_requires_pumped_length(family):
    # every pumped string is the same word, so a failing i refutes nothing
    with pytest.raises(FoldlangError, match="pumped length is 0"):
        refute_unary_family(lambda n: n % 2 == 0, family)


def test_refutation_on_emitted_families():
    # every pumped a^* family leaves the primes language
    phi = system("a*", "S -> u S d | eps")
    family = plan_to_family(auto_plan(phi))
    assert set("".join(family.parts)) <= {"a"}
    i = refute_unary_family(is_prime, family)
    assert i is not None and not is_prime(family.length_at(i))
