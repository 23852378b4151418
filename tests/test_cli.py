"""Command-line interface: subcommands, exit codes, round trips."""

import argparse
import json

import pytest

from foldlang import PumpFamily
from foldlang.cli import _dispatch, run
from foldlang.errors import FoldlangError

BB_FRONT_SPEC = """\
alphabet = a b
core.kind = regex
core.regex = aaaab*
proc.kind = regex
proc.regex = (uu)*ddd
"""

ANBN_SPEC = """\
alphabet = a b
core.kind = cfg
core.cfg = S -> a S b | eps
proc.kind = regex
proc.regex = d*
"""


@pytest.fixture
def bb_front_spec(tmp_path):
    path = tmp_path / "bb_front.fsys"
    path.write_text(BB_FRONT_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture
def anbn_spec(tmp_path):
    path = tmp_path / "anbn.fsys"
    path.write_text(ANBN_SPEC, encoding="utf-8")
    return str(path)


def test_fold(capsys):
    assert run(["fold", "abcde", "dduud"]) == 0
    assert capsys.readouterr().out.strip() == "dcabe"


def test_fold_trace(capsys):
    assert run(["fold", "abcde", "dduud", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "Step 1: fold down ('a')" in out
    assert "Step 3: fold up ('c')" in out
    assert out.strip().endswith("result: dcabe")


def test_fold_empty(capsys):
    assert run(["fold", "", ""]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_fold_length_mismatch_is_domain_error(capsys):
    assert run(["fold", "ab", "u"]) == 1
    assert "UndefinedFold" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["fold", "onlyone"]) == 2
    assert run(["no-such-command"]) == 2


def test_enum(capsys, bb_front_spec):
    assert run(["enum", bb_front_spec, "--max-len", "13"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["aaaab", "aaaabbb", "bbaaaabbb", "bbbbaaaabbb",
                     "bbbbbbaaaabbb"]


def test_member(capsys, bb_front_spec):
    assert run(["member", bb_front_spec, "bbaaaabbb"]) == 0
    assert "member: fold(" in capsys.readouterr().out
    assert run(["member", bb_front_spec, "ababa"]) == 1
    assert "not a member" in capsys.readouterr().out


def test_missing_spec_file(capsys):
    assert run(["enum", "/nonexistent/x.fsys"]) == 1


def test_bad_spec_file(capsys, tmp_path):
    path = tmp_path / "bad.fsys"
    path.write_text("gibberish\n", encoding="utf-8")
    assert run(["enum", str(path)]) == 1
    assert "SpecFileError" in capsys.readouterr().err


def test_pump_prints_family_and_verdict(capsys, bb_front_spec):
    assert run(["pump", bb_front_spec]) == 0
    out = capsys.readouterr().out
    family = PumpFamily.from_json(out.splitlines()[0])
    assert family.lemma == "L1" and len(family.parts) == 5
    assert "verified i=0..4: PASS" in out


def test_pump_json_output(capsys, anbn_spec):
    assert run(["pump", anbn_spec, "--json", "--imax", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"]["lemma"] == "L2cfreg"
    assert doc["plan_verified"] and doc["family_verified"]
    assert len(doc["family"]["parts"]) == 9


def test_pump_verify_roundtrip(capsys, tmp_path, bb_front_spec):
    fam_path = str(tmp_path / "family.json")
    assert run(["pump", bb_front_spec, "--out", fam_path]) == 0
    capsys.readouterr()
    assert run(["verify", bb_front_spec, "--family", fam_path,
                "--imax", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    assert "family 5:" in out


def test_verify_rejects_wrong_family(capsys, tmp_path, bb_front_spec):
    fam_path = tmp_path / "wrong.json"
    fam_path.write_text(PumpFamily(("", "ab", "aaaab", "", ""), (1, 3),
                                   "L1", 0).to_json(), encoding="utf-8")
    assert run(["verify", bb_front_spec, "--family", str(fam_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_refute_unary(capsys, tmp_path):
    fam_path = tmp_path / "unary.json"
    fam_path.write_text(PumpFamily(("aaa", "aa", "aa"), (1,), "L1", 0).to_json(),
                        encoding="utf-8")
    assert run(["refute-unary", "--predicate", "primes",
                "--family", str(fam_path)]) == 0
    assert "witness i=" in capsys.readouterr().out

    even_path = tmp_path / "even.json"
    even_path.write_text(PumpFamily(("aa", "aa", ""), (1,), "L1", 0).to_json(),
                         encoding="utf-8")
    assert run(["refute-unary", "--predicate", "even",
                "--family", str(even_path), "--bound", "50"]) == 1
    assert "no witness" in capsys.readouterr().out


def test_refute_unary_rejects_mixed_alphabet(capsys, tmp_path):
    fam_path = tmp_path / "mixed.json"
    fam_path.write_text(PumpFamily(("ab", "a", ""), (1,), "L1", 0).to_json(),
                        encoding="utf-8")
    assert run(["refute-unary", "--predicate", "primes",
                "--family", str(fam_path)]) == 1
    assert "unary" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enum", "x.fsys", "--max-len", "-1"],
    ["pump", "x.fsys", "--imax", "-1"],
    ["verify", "x.fsys", "--family", "f.json", "--imax", "-1"],
    ["refute-unary", "--predicate", "primes", "--family", "f.json", "--bound", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    # a negative --imax would verify nothing and still report PASS
    assert run(argv) == 2
    assert "must be an int >= 0" in capsys.readouterr().err


def test_unknown_command_is_a_foldlang_error():
    with pytest.raises(FoldlangError, match="unknown command"):
        _dispatch(argparse.Namespace(command="no-such-command"))
