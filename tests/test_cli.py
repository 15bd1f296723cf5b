import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rootposets
from rootposets import census
from rootposets.census import CONJECTURE_IDS, COUNTEREXAMPLE_IDS
from rootposets.coeff import Coeff
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


def test_census_table1_family_tags_are_case_insensitive(capsys):
    """--families reads a tag in any case, as --family does, and the rows
    print the family's own name."""
    table = ("census", "table1", "--types", "A2,B2")
    upper = run(capsys, *table, "--families", "WOIP,COIP(bip),COIP(lin),COFP")
    lower = run(capsys, *table, "--families", "woip,coip(bip),Coip(lin),cofp")
    assert upper == lower and upper[0] == 0
    assert "A2,COIP(bip),13,13,match" in upper[1].splitlines()


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


def test_counterexample_without_its_root_fails_a_check(capsys, monkeypatch):
    """With gamma = psi(a1+a2+a3) dropped from the H3 coordinate table,
    h3-sums is not reproduced: the check that gamma is a root reads
    false and the command exits 1, not 2."""
    build, gamma = census.build_from_label, (Coeff(0, 1),) * 3

    def without_gamma(label):  # a fresh system, so no other test sees the cut
        rs = build(label)
        rs.index_of_coords = {c: i for c, i in rs.index_of_coords.items()
                              if c != gamma}
        return rs

    monkeypatch.setattr(census, "build_from_label", without_gamma)
    code, out = run(capsys, "counterexample", "h3-sums")
    doc = json.loads(out)
    assert (code, doc["reproduced"]) == (1, False)
    assert doc["checks"][0] == {"claim": "gamma = psi(a1+a2+a3) is a root",
                                "ok": False}


@pytest.mark.parametrize("argv,ids", [
    (["check-conjecture", "bogus", "--type", "A2"], CONJECTURE_IDS),
    (["counterexample", "bogus"], COUNTEREXAMPLE_IDS),
])
def test_bad_id_exits_2_listing_the_ids(capsys, argv, ids):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "'bogus'" in err
    assert all(i in err for i in ids)


def test_cube_rows_need_no_group(capsys):
    """E7 and E8 are over the group cap, but their cube rows are 2^rank
    and 3^rank."""
    code, out = run(capsys, "census", "table1", "--types", "E7,E8",
                    "--families", "BOEP,BOIP")
    assert code == 0
    assert out.splitlines()[1:] == ["E7,BOEP,128,,", "E7,BOIP,2187,,",
                                    "E8,BOEP,256,,", "E8,BOIP,6561,,"]


def _child_env():
    """os.environ with the tested checkout's src first on PYTHONPATH."""
    src = str(Path(rootposets.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


_WATCHED = ("rootposets.census", "rootposets.families", "rootposets.cambrian",
            "rootposets.weyl", "csv", "dataclasses", "inspect")
# runs one command in a fresh interpreter and prints its exit code and the
# watched modules it loaded: the group layers and the modules start-up avoids
_PROBE = f"""
import contextlib, io, sys
from rootposets import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(set(sys.modules) & set({_WATCHED!r})))
"""


def _probe(argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    [],
    ["rootsys", "info", "A2"],
    ["order", "compare", "--type", "A2", "+[1,0]", "+[0,1],+[1,1]", "--level", "posets"],
    ["hasse", "--type", "A2", "--family", "posets"],
    ["lattice", "verify", "--type", "B2", "--family", "semiclosed"],
], ids=["import", "info", "compare", "hasse", "verify"])
def test_light_commands_load_no_group_layer(argv):
    """Importing the CLI, and the commands on root systems, set literals
    and levels, leave census, families, cambrian and weyl unloaded, and
    csv, dataclasses and inspect too."""
    assert _probe(argv) == (0, "0\n", "")


@pytest.mark.parametrize("argv,loaded", [
    (["census", "table1", "--types", "A1", "--families", "WOEP"],
     "csv rootposets.cambrian rootposets.census rootposets.families rootposets.weyl"),
    (["families", "build", "--type", "A2", "--family", "woip"],
     "rootposets.cambrian rootposets.families rootposets.weyl"),
], ids=["table1", "build"])
def test_group_commands_load_no_dataclasses(argv, loaded):
    """The commands on groups and families load the group layers, and
    only census table1 loads csv; none loads dataclasses or inspect."""
    assert _probe(argv) == (0, f"0 {loaded}\n", "")


def test_closed_stdout_exits_0_without_traceback():
    """A reader that takes one line of a long output (A5 WOIP, about 4 MB,
    far past a pipe buffer) and closes the pipe ends the command with 0
    and no traceback."""
    with subprocess.Popen(
            [sys.executable, "-m", "rootposets.cli", "families", "build",
             "--type", "A5", "--family", "woip"],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err


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
    refuses it from its count, before any pair is streamed."""
    from rootposets import weyl
    calls = []
    pair_bits = weyl.interval_bits
    monkeypatch.setattr(weyl, "interval_bits", lambda system, lo, hi:
                        calls.append(lo) or pair_bits(system, lo, hi))
    code, out = run(capsys, "lattice", "verify", "--type", "D5", "--family", "woip")
    assert (code, out, calls) == (3, "", [])


def test_census_table1_cap_fires_before_counting(capsys, monkeypatch):
    """F4 closed is over the backtracking cap, so no row is counted."""
    import rootposets.census as cns
    counted = []
    monkeypatch.setattr(cns, "count_family",
                        lambda *args: counted.append(args))
    code, out = run(capsys, "census", "table1", "--types", "B4,C4,F4")
    assert (code, out, counted) == (3, "", [])


def test_census_table1_refuses_the_all_level_before_counting(capsys, monkeypatch):
    """The all level has no row; it is refused, by name, before any row
    is counted."""
    import rootposets.census as cns
    counted = []
    monkeypatch.setattr(cns, "count_family",
                        lambda *args: counted.append(args))
    code = main(["census", "table1", "--types", "A2", "--families", "posets,all"])
    out, err = capsys.readouterr()
    assert (code, out, counted) == (2, "", [])
    assert "all level" in err


def test_census_table1_reads_lowercase_types(capsys):
    """A lowercase type prints its own label and is checked against the
    reference; a lowercase range reads as the uppercase one."""
    code, out = run(capsys, "census", "table1", "--types", "d4",
                    "--families", "posets")
    assert code == 1
    assert "D4,posets,12361,219,MISMATCH" in out.splitlines()
    table = ("census", "table1", "--families", "posets,WOIP")
    upper = run(capsys, *table, "--types", "A1..A3")
    assert run(capsys, *table, "--types", "a1..a3") == upper
    assert upper[0] == 0 and "A3,WOIP,151,151,match" in upper[1].splitlines()


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
    # a bad Coxeter word is refused before the E6 group hits its cap
    (["census", "table1", "--types", "E6", "--families", "COIP(x)"], 2),
    (["census", "table1", "--types", "E6", "--families", "COIP(s1s2)"], 2),
    (["families", "build", "--type", "E6", "--family", "coip", "--coxeter", "x"], 2),
    (["lattice", "verify", "--type", "E6", "--family", "COIP", "--coxeter", "x"], 2),
    (["hasse", "--type", "E6", "--family", "COIP", "--coxeter", "x"], 2),
    (["check-conjecture", "coip-sublattice", "--type", "E6", "--coxeter", "x",
      "--rank-cap", "9"], 2),
    # an empty Coxeter word is a bad word, not lin
    (["census", "table1", "--types", "A3", "--families", "COIP()"], 2),
    (["families", "build", "--type", "A2", "--family", "coip", "--coxeter", ""], 2),
    (["lattice", "verify", "--type", "A2", "--family", "coip", "--coxeter", ""], 2),
    (["check-conjecture", "coip-sublattice", "--type", "A2", "--coxeter", ""], 2),
    # psi coordinates read back as format_set_literal prints them
    (["order", "compare", "--type", "H3", "+[1,1p,0]", "+[0,0,1]"], 0),
    # semiclosed past its root-count limit is refused at once
    (["census", "table1", "--types", "E7", "--families", "semiclosed"], 3),
    # a comma must be followed by another literal
    (["order", "compare", "--type", "A2", "+[1,0],", "+[0,1]"], 2),
    # a space may follow the comma between two roots
    (["order", "compare", "--type", "A2", "+[1,0], +[0,1]", "+[0,1]"], 0),
    # and precede it
    (["order", "compare", "--type", "A2", "+[1,0] ,+[0,1]", "+[0,1]"], 0),
    # a conjecture off the crystallographic types is refused before its cap
    (["check-conjecture", "coep-characterization", "--type", "H3",
      "--rank-cap", "2"], 2),
    # a number is ASCII digits: no sign, inner space, underscore or the
    # digits of another script
    (["rootsys", "info", "A+3"], 2),
    (["rootsys", "info", "A 3"], 2),
    (["rootsys", "info", "A0_3"], 2),
    (["rootsys", "info", "A\u0663"], 2),
    (["rootsys", "info", "I2(\u0665)"], 2),
    (["census", "table1", "--types", "A1..A\u0662"], 2),
    (["families", "build", "--type", "A3", "--family", "coep",
      "--coxeter", "s\u0661s2s3"], 2),
    # and so is a coordinate of a set literal, and an integer option
    (["order", "compare", "--type", "A2", "+[\u0661,0]", "+[0,1]"], 2),
    (["lattice", "verify", "--type", "A2", "--family", "posets",
      "--cap", "\u0665\u0660"], 2),
])
def test_exit_code_contract(capsys, tmp_path, argv, code):
    """Bad input exits 2 and an oversized level exits 3, with a one-line
    message, no traceback and nothing on stdout; good input exits 0 with
    nothing on stderr.  Usage errors leave through argparse's SystemExit."""
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out and err == ""
    else:
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
    --family coip --coxeter bip; only the tag is case-insensitive.
    `lattice verify` prints the same name, and a level by its name."""
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
    assert json.loads(split)["family"] == "COIP(bip)" and split == spelled
    _, lin = run(capsys, *verify, "--family", "coip")
    assert json.loads(lin)["family"] == "COIP(lin)"
    assert json.loads(run(capsys, *verify, "--family", "posets")[1])["family"] == "posets"
