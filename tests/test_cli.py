import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from rootposets.census import CONJECTURE_IDS, COUNTEREXAMPLE_IDS
from rootposets.cli import main
from rootposets.families import FAMILY_TAGS, FamilyId, member_predicate
from rootposets.rootset import parse_set_literal
from rootposets.weakorder import Level

from conftest import group, system


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rootsys_info(capsys):
    code, out = run(capsys, "rootsys", "info", "B2")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_version"]
    assert doc["system"] == "B2"
    assert doc["result"]["root_count"] == 8
    assert doc["result"]["weyl_order"] == 8
    assert doc["result"]["degrees"] == [2, 4]


def test_rootsys_info_e8(capsys):
    code, out = run(capsys, "rootsys", "info", "E8")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["root_count"] == 240
    assert result["weyl_order"] == 696_729_600


def test_families_build_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "woip.json"
    code, _ = run(capsys, "families", "build", "--type", "A3",
                  "--family", "woip", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["family"] == "WOIP"
    literals = doc["result"]
    assert len(literals) == 151
    # every emitted literal parses back and re-validates with the predicate
    rs = system("A3")
    g = group("A3")
    for text in literals:
        r = parse_set_literal(rs, text)
        assert member_predicate(g, FamilyId("WOIP"), r)


def test_order_compare(capsys):
    code, out = run(capsys, "order", "compare", "--type", "A2",
                    "+[1,0],+[0,1],+[1,1]", "+[0,1],+[1,1]")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"le": True, "ge": False}
    # a literal starting with a negative root needs -- (see the exit-code test)
    code, out = run(capsys, "order", "compare", "--type", "A2", "--",
                    "-[1,0]", "+[0,1]")
    assert code == 0
    assert json.loads(out)["result"] == {"le": False, "ge": True}


def test_lattice_verify(capsys):
    code, out = run(capsys, "lattice", "verify", "--type", "A2",
                    "--family", "posets")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["family_size"] == 19
    assert result["is_lattice"] and result["formula_matches_bruteforce"]
    assert result["graded"]


def test_lattice_verify_formula_mismatch(capsys):
    """The antisymmetric sets of A2 form a lattice on which the posets
    formulas fail; the report names the first failing pair."""
    code, out = run(capsys, "lattice", "verify", "--type", "A2",
                    "--family", "antisym", "--formula", "posets")
    assert code == 1
    assert json.loads(out)["result"] == {
        "family_size": 27,
        "is_lattice": True,
        "formula_matches_bruteforce": False,
        "graded": True,
        "cover_count": 54,
        "witness": ["+[0,1],+[1,0],+[1,1]", "+[0,1],+[1,0],-[1,1]"],
    }


def test_hasse_dot(capsys):
    code, out = run(capsys, "hasse", "--type", "A2", "--family", "posets",
                    "--format", "dot")
    assert code == 0
    assert out.count("label=") == 19
    code, out = run(capsys, "hasse", "--type", "B2", "--family", "posets")
    assert out.count("label=") == 37


def test_census_table1_csv(capsys):
    code, out = run(capsys, "census", "table1", "--types", "A1..A2,B2",
                    "--families", "posets,WOEP")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,family,count,reference_count,match"
    assert "A2,posets,19,19,match" in lines
    assert "B2,WOEP,8,8,match" in lines


def test_census_table1_exit_code_on_mismatch(capsys):
    # D4 posets: the published value disagrees with the exhaustive count
    code, out = run(capsys, "census", "table1", "--types", "D4",
                    "--families", "posets")
    assert code == 1
    assert "MISMATCH" in out


def test_check_conjecture(capsys):
    code, out = run(capsys, "check-conjecture", "coip-sublattice",
                    "--type", "B2", "--coxeter", "lin")
    assert code == 0
    assert json.loads(out)["result"]["verified"] is True


def test_counterexample(capsys):
    code, out = run(capsys, "counterexample", "b3-convex-lattice")
    assert code == 0
    doc = json.loads(out)
    assert doc["reproduced"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["census", "table1"])  # missing --types
    assert err.value.code == 2


def test_bad_system_exit_code(capsys):
    code, _ = run(capsys, "rootsys", "info", "Q9")
    assert code == 2


def test_resource_cap_exit_code(capsys):
    code, _ = run(capsys, "lattice", "verify", "--type", "B2",
                  "--family", "all", "--cap", "10")
    assert code == 3


def test_family_cap_fires_before_walking_w(capsys, monkeypatch):
    """D5 WOIP has 146,649 sets, one per streamed pair; the default cap
    refuses it after cap + 1 of them."""
    from rootposets import weyl
    from rootposets.weakorder import VERIFY_CAP
    calls = []
    pair_bits = weyl.interval_bits
    monkeypatch.setattr(weyl, "interval_bits", lambda system, lo, hi:
                        calls.append(lo) or pair_bits(system, lo, hi))
    code, out = run(capsys, "lattice", "verify", "--type", "D5", "--family", "woip")
    assert (code, out) == (3, "")
    assert len(calls) == VERIFY_CAP + 1 < 146_649 // 10


def test_census_table1_cap_fires_before_counting(capsys, monkeypatch):
    """F4 closed is over the backtracking cap, so no row is counted."""
    import rootposets.census as cns
    counted = []
    monkeypatch.setattr(cns, "count_family",
                        lambda *args: counted.append(args))
    code, out = run(capsys, "census", "table1", "--types", "B4,C4,F4")
    assert (code, out, counted) == (3, "", [])


@pytest.mark.parametrize("argv,code", [
    (["order", "compare", "--type", "A2", "+[1,", "+[1,0]"], 2),
    (["order", "compare", "--type", "A2", "+[a,0]", "+[1,0]"], 2),
    (["rootsys", "info", "A2", "--out", "{missing}/x.json"], 2),
    (["census", "table1", "--types", "A1..B2"], 2),
    (["check-conjecture", "coip-sublattice", "--type", "H2"], 2),
    (["lattice", "verify", "--type", "H2", "--family", "posets"], 2),
    (["lattice", "verify", "--type", "D4", "--family", "all"], 3),
] + [
    ([*command, "--type", "B2", "--coxeter", word], 2)
    for command in (["families", "build", "--family", "coip"],
                    ["check-conjecture", "coip-sublattice"])
    for word in ("s", "s1s2s", "ss1s2")
] + [
    (["rootsys", "info", "I2(x)"], 2),
    (["census", "table1", "--types", "I2(x)"], 2),
    (["rootsys", "info", ""], 2),
    (["families", "build", "--type", "", "--family", "woip"], 2),
    (["lattice", "verify", "--type", "A3", "--family", "woip", "--cap", "-1"], 2),
    (["check-conjecture", "coip-sublattice", "--type", "B3", "--rank-cap", "-1"], 2),
    (["families", "build", "--type", "E7", "--family", "woep"], 3),
    (["census", "table1", "--types", "A2..A1"], 2),
    (["census", "table1", "--types", ""], 2),
    # argparse reads a literal starting with "-" as an option: usage error
    (["order", "compare", "--type", "A2", "-[1,0]", "+[0,1]"], 2),
    (["families", "build", "--type", "D6", "--family", "woip"], 3),
    (["census", "table1", "--types", "E6", "--families", "bogus"], 2),
    (["census", "table1", "--types", "B6", "--families", "closed,bogus"], 2),
])
def test_exit_code_contract(capsys, tmp_path, argv, code):
    """Bad input exits 2 and an oversized level exits 3, with a one-line
    message, no traceback and nothing on stdout.  Usage errors leave
    through argparse's SystemExit."""
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


# malformed tokens, which replace or join the drawn ones
_JUNK = ["", "x", "A0", "E9", "a2", "I2(1)", "A2..A1", "A1..B2", "-1", "s9",
         "s1s1", "COIP(", "WOIP(lin)", "+[1,0", "+[9,9]", "--bogus"]
_LEVELS = [level.value for level in Level]
_SYSTEM = st.sampled_from(["A1", "A2", "B2", "G2"])
_FAMILY = st.sampled_from(
    _LEVELS + list(FAMILY_TAGS) + ["woip", "COIP(bip)", "COEP(s2s1)"])
_COXETER = st.sampled_from(["lin", "bip", "s1s2", "s2s1"])
_LEVEL = st.sampled_from(_LEVELS)
# argparse reads a leading "-" as an option, so each literal starts with "+"
_LITERAL = st.sampled_from(["+[1,0]", "+[0,1],+[1,1]", "+[0,1],-[1,0]"])
# small caps keep every level of the cheap systems quick to refuse
_CAP = st.sampled_from(["0", "3", "300", "1e3"])
_COMMANDS = [
    ["rootsys", "info", _SYSTEM],
    ["families", "build", "--type", _SYSTEM, "--family", _FAMILY,
     "--coxeter", _COXETER],
    ["order", "compare", "--type", _SYSTEM, _LITERAL, _LITERAL,
     "--level", _LEVEL],
    ["lattice", "verify", "--type", _SYSTEM, "--family", _FAMILY,
     "--coxeter", _COXETER, "--formula", _LEVEL, "--cap", _CAP],
    ["hasse", "--type", _SYSTEM, "--family", _FAMILY, "--format",
     st.sampled_from(["dot", "json"])],
    ["census", "table1", "--types", st.sampled_from(["A1..A2", "B2,G2", "E6"]),
     "--families", st.sampled_from(["WOIP,WOFP", "closed,COIP(bip)", "BOFP"])],
    ["check-conjecture", st.sampled_from(CONJECTURE_IDS), "--type", _SYSTEM,
     "--coxeter", _COXETER, "--rank-cap", _CAP],
    ["counterexample", st.sampled_from(COUNTEREXAMPLE_IDS)],
]


@st.composite
def _argv(draw):
    """A real subcommand with each slot drawn, then perhaps one token
    dropped, or replaced by a malformed one, or one malformed token
    inserted."""
    argv = [draw(part) if isinstance(part, st.SearchStrategy) else part
            for part in draw(st.sampled_from(_COMMANDS))]
    edit = draw(st.sampled_from(["keep", "keep", "drop", "replace", "insert"]))
    if edit != "keep":
        k = draw(st.integers(0, len(argv) - (edit != "insert")))
        if edit != "insert":
            del argv[k]
        if edit != "drop":
            argv.insert(k, draw(st.sampled_from(_JUNK)))
    return argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    """Any argv exits 0-3, or 2 through argparse, without a traceback;
    an error prints nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 3):
        assert out.getvalue() == "", argv


def test_printed_family_name_is_accepted(capsys):
    """The family name the CLI prints, COIP(bip), reads back as
    --family coip --coxeter bip; only the tag is case-insensitive."""
    build = ("families", "build", "--type", "A3")
    code, spelled = run(capsys, *build, "--family", "COIP(bip)")
    assert code == 0 and json.loads(spelled)["family"] == "COIP(bip)"
    assert spelled == run(capsys, *build, "--family", "coip", "--coxeter", "bip")[1]
    assert spelled != run(capsys, *build, "--family", "coip")[1]
    explicit = run(capsys, *build, "--family", "coip(s1s3s2)")[1]
    assert json.loads(explicit)["result"] == json.loads(spelled)["result"]
    verify = ("lattice", "verify", "--type", "A3")
    code, spelled = run(capsys, *verify, "--family", "COIP(bip)")
    _, split = run(capsys, *verify, "--family", "coip", "--coxeter", "bip")
    assert code == 0
    assert json.loads(spelled)["result"] == json.loads(split)["result"]
