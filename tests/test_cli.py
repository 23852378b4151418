"""Command-line interface: subcommands, exit codes, round trips."""

import argparse
import hashlib
import json
import random

import pytest

from foldlang import PumpFamily, finite_language_system, fs_enumerate
from foldlang.cli import _build_parser, _dispatch, run
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


def test_fold_trace_of_the_empty_string(capsys):
    assert run(["fold", '""', '""', "--trace"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("(empty)\n", "")


def test_empty_string_token(capsys, tmp_path):
    assert run(["fold", '""', '""']) == 0
    assert capsys.readouterr().out == "\n"
    path = tmp_path / "anbn.fsys"
    path.write_text(_spec("S -> a S b | eps", "S -> u S d | eps"), encoding="utf-8")
    assert run(["member", str(path), '""']) == 0
    assert capsys.readouterr().out == "member: fold('', '')\n"


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


#: One corpus system per pairing (REG/REG, CF/REG, REG/CF, CF/CF), a member
#: word, and the witness `member` prints: the first core string in core
#: order, then the first procedure string, that folds to the word.
MEMBER_LINES = [
    ("aaaab*", "(uu)*ddd", "aaaabbb", "member: fold('aaaabbb', 'uuuuddd')"),
    ("S -> a S b S | eps", "(u|d)*", "abab", "member: fold('abab', 'uuud')"),
    ("(a|b)*", "S -> u S d S | eps", "abab", "member: fold('baab', 'uudd')"),
    ("S -> a S b S | eps", "S -> u S d S | eps", "bbaaab",
     "member: fold('aababb', 'ududud')"),
]


@pytest.mark.parametrize("core,proc,word,line", MEMBER_LINES)
def test_member_witness_line(capsys, tmp_path, core, proc, word, line):
    path = tmp_path / "system.fsys"
    path.write_text(_spec(core, proc), encoding="utf-8")
    assert run(["member", str(path), word]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_missing_spec_file(capsys):
    assert run(["enum", "/nonexistent/x.fsys"]) == 1


def test_bad_spec_file(capsys, tmp_path):
    path = tmp_path / "bad.fsys"
    path.write_text("gibberish\n", encoding="utf-8")
    assert run(["enum", str(path)]) == 1
    assert "SpecFileError" in capsys.readouterr().err


def test_spec_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.fsys"
    path.write_bytes("alphabet = a b  # caf\u00e9\n".encode("latin-1"))
    assert run(["enum", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SpecFileError: ") and err.count("\n") == 1


@pytest.mark.parametrize("document", [
    '{"parts": ["a", "aa"]',
    '{"parts": ["a", "aa"], "lemma": "L1", "j0": 0}',
    '{"parts": ["a", "aa"], "pumped": [2], "lemma": "L1", "j0": 0}',
    '{"parts": ["a", "b"], "pumped": [true], "lemma": "L1", "j0": false}',
    '{"parts": ["a", "b"], "pumped": [true], "lemma": "L1", "j0": 0}',
    '{"parts": ["a", 1], "pumped": [0], "lemma": "L1", "j0": 0}',
    # a repeated index made the pumped length 1 at i = 0, though "aa" is assembled
    '{"parts": ["a", "a", "a"], "pumped": [1, 1], "lemma": "L1", "j0": 0}',
], ids=["bad-json", "missing-key", "index-past-parts", "boolean-j0",
        "boolean-index", "non-string-part", "repeated-index"])
@pytest.mark.parametrize("command", ["verify", "refute-unary"])
def test_malformed_family_file(capsys, tmp_path, bb_front_spec, document, command):
    path = tmp_path / "family.json"
    path.write_text(document, encoding="utf-8")
    argv = (["verify", bb_front_spec] if command == "verify"
            else ["refute-unary", "--predicate", "primes"])
    assert run(argv + ["--family", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FamilyFileError: ") and err.count("\n") == 1


def test_pump_finite_core_is_a_finite_component(capsys, tmp_path):
    # S -> eps | S S is {eps}; a search for a base pair would try 513 lengths
    path = tmp_path / "finite.fsys"
    path.write_text(_spec("S -> eps | S S", "d*"), encoding="utf-8")
    assert run(["pump", str(path)]) == 1
    assert capsys.readouterr().err.startswith("FiniteComponent: core language is finite")


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


@pytest.mark.parametrize("family,predicate", [
    ('{"parts": ["a", ""], "pumped": [1], "lemma": "L1", "j0": 0}', "primes"),
    ('{"parts": ["a"], "pumped": [], "lemma": "L1", "j0": 0}', "even"),
])
def test_refute_unary_rejects_family_that_pumps_nothing(capsys, tmp_path, family, predicate):
    fam_path = tmp_path / "still.json"
    fam_path.write_text(family, encoding="utf-8")
    assert run(["refute-unary", "--predicate", predicate,
                "--family", str(fam_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "pumped length is 0" in err


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


def test_reused_parser_answers_like_a_fresh_one(capsys, bb_front_spec):
    argvs = [["enum"], ["enum", bb_front_spec, "--max-len", "13"],
             ["fold", "abcde", "dduud", "--trace"], ["fold", "onlyone"], ["--help"]]

    def call(argv):
        rc = run(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert [rc for rc, _, _ in fresh] == [2, 0, 0, 2, 0]
    assert [call(argv) for argv in argvs] == fresh  # one parser for all five


def _spec(core, proc):
    lines = ["alphabet = a b"]
    for side, text in (("core", core), ("proc", proc)):
        kind = "cfg" if "->" in text else "regex"
        lines += [f"{side}.kind = {kind}", f"{side}.{kind} = {text}"]
    return "\n".join(lines) + "\n"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: The twelve benchmark corpus systems as (core, procedure, --max-len):
#: the dense ones at the low end of their enum range, the demo systems
#: at 24, and the five dense ones with a regular side at the top of their
#: range.  Each maps to the sha256 of `foldlang enum` stdout.
ENUM_PINS = {
    ("a*b*", "(u|d)*", 8):
        "c26c976675c2bcbf31e5b330cde647612b08f7026eddbeb428a0ebe2d5b6c163",
    ("(ab)*", "(u|d)*", 10):
        "75556a9b9fcccc7453437007ca7a7926de49f5922ffd59f35c384840798c6095",
    ("(a|b)*", "(u|d)*", 5):
        "df618382f0fe2062a6d0dc6595a704a91df0607c334dcf5ada8df0b770b6d768",
    ("S -> a S b S | eps", "(u|d)*", 6):
        "8d70b22d67275bc5727202f8b93cf76729832d996cbbd691ef2656741b7cc95c",
    ("(a|b)*", "S -> u S d S | eps", 6):
        "59baea5b19de16708bd09cf7dcaf136021ffd29016daa3a8b8825ff386d890f3",
    ("S -> a S b S | eps", "S -> u S d S | eps", 8):
        "bd8677855a6961770f802c06546dbaa56e15291513c0265d41f5cb4f0190d3be",
    ("aaaab*", "(uu)*ddd", 24):
        "e15e81881e4056ad70370c587237afa7cd526142fb698a52fb11dbb36ba7a834",
    ("S -> a S b | eps", "(ud)*", 24):
        "1580d1267beba7c9b9e3e94c6bcbfa96bb8464dc9bb03d9d0c3285873508fe9c",
    ("(ab)*", "S -> u S d | eps", 24):
        "8ba15ba7c45167298deee63290059f01246c4655a3064c83f7c4e77d40e59edb",
    ("S -> a S b | eps", "S -> u S d | eps", 24):
        "338bbbe957260c231991d4080e405cb4983a2ce27bd334bfb96e36277d9220e4",
    ("S -> a a S b | eps", "S -> u S d | eps", 24):
        "d4a11928268f3de7a62882274b542b44b530b4e5522fe9f3c641c9ddcc15ce6f",
    ("S -> a S | eps", "S -> u S | eps", 24):
        "5cc080cfa56655e1427ea32e93f2fe1883051c4a8f80cd120af6c0c3d245b796",
    ("a*b*", "(u|d)*", 11):
        "569d1c30f36b786d36a6885b95d1d75bfa4da3056f7b23ad87cfa3847f0f8f3e",
    ("(ab)*", "(u|d)*", 14):
        "c750dbe50bca9cf135735e1668166250a1cb841c11a8ace225befbafc6b99d85",
    ("(a|b)*", "(u|d)*", 8):
        "e9773c7649ad3c564c7a797bd384b00d2f65c836aa7f711e0bbc03a75bf1cb47",
    ("S -> a S b S | eps", "(u|d)*", 11):
        "ded000fd87e53bb6d0f0c52a8e64f29e3c543c9ae427644ce724b572e2a69588",
    ("(a|b)*", "S -> u S d S | eps", 11):
        "4b5a8f03b0dd5ed0c20b1cb30b8bcd7938de27cf067b7b692c4ac1cb43652110",
}

#: Seeded finite-language round trips, (seed, size, symbols), each
#: mapping to the sha256 of the enumerated words joined by newlines.
FINITE_PINS = {
    (61, 1000, "ab"):
        "0043dbd131ba2ea762bae900a6fd1d01ce0337e1eed1d0029e351a1892b7cb4b",
    (62, 1500, "ab"):
        "0ae4a0117b884c6ad068466f0764eb421ef1a344b5e9f97096bf414ef4f20a04",
    (63, 2000, "abc"):
        "40da66a7f57f06418a749d02ca01ed26bca9b12a4e610cc561a9f18708e8cdc9",
}


def _finite_words(seed, size, symbols):
    rng = random.Random(seed)
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(symbols) for _ in range(rng.randint(4, 12))))
    return words


def test_enum_output_is_pinned(capsys, tmp_path):
    got = {}
    for core, proc, max_len in ENUM_PINS:
        path = tmp_path / "system.fsys"
        path.write_text(_spec(core, proc), encoding="utf-8")
        assert run(["enum", str(path), "--max-len", str(max_len)]) == 0
        got[core, proc, max_len] = _sha(capsys.readouterr().out)
    for seed, size, symbols in FINITE_PINS:
        words = _finite_words(seed, size, symbols)
        out = fs_enumerate(finite_language_system(words), 12)
        assert out == sorted(words, key=lambda w: (len(w), w))
        got[seed, size, symbols] = _sha("\n".join(out))
    assert got == {**ENUM_PINS, **FINITE_PINS}
