import pytest

from rootposets.census import (
    CONJECTURE_IDS, COUNTEREXAMPLE_IDS, check_conjecture, check_sublattice,
    count_family, enumerate_posets, level_members, reference_count,
    reproduce_counterexample, table1_rows,
)
from rootposets import cambrian as camb
from rootposets import families as fam
from rootposets.errors import (
    ContractViolationError, ResourceCapError, UnsupportedOperationError,
)
from rootposets.families import FamilyId, construct_family
from rootposets.rootset import RootSet, classify, parse_set_literal
from rootposets.rootsys import build_from_label
from rootposets.weakorder import Level

from conftest import group, system
from oracles import poset_sweep


@pytest.mark.parametrize("label,family,count", [
    ("A2", "posets", 19), ("A3", "posets", 219), ("A4", "posets", 4231),
    ("A2", "antisym", 27), ("A3", "antisym", 729),
    ("A3", "closed", 355), ("A3", "semiclosed", 1600),
    ("A4", "closed", 6942),
    ("B2", "antisym", 81), ("B2", "semiclosed", 144),
    ("B2", "closed", 55), ("B2", "posets", 37),
    ("G2", "posets", 121), ("G2", "closed", 168), ("G2", "semiclosed", 1089),
])
def test_level_counts(label, family, count):
    assert count_family(system(label), family).count == count


def test_bc_alignment_rank3():
    """The slash entries resolve as (B value, C value) in Bourbaki labels."""
    assert count_family(system("B3"), "closed").count == 1785
    assert count_family(system("C3"), "closed").count == 1803
    assert count_family(system("B3"), "posets").count == 1235
    assert count_family(system("C3"), "posets").count == 1225
    assert count_family(system("B3"), "semiclosed").count == 172 ** 2
    assert count_family(system("C3"), "semiclosed").count == 172 ** 2


def test_d4_closed_matches_table_but_posets_do_not():
    assert count_family(system("D4"), "closed").count == 18291
    # the published table lists 219 D4 posets, which coincides with the A3
    # value; the exhaustive count disagrees and is kept as the regression
    assert count_family(system("D4"), "posets").count == 12361


def test_family_counts_via_census(a2):
    res = count_family(a2, "WOEP", group("A2"))
    assert res.count == 6 and res.method == "exhaustive"
    res = count_family(a2, "COIP(bip)", group("A2"))
    assert res.count == 13


def test_cambrian_rows_share_one_coxeter_element(monkeypatch):
    """The COEP, COIP(lin) and COFP rows of a type build its tables once."""
    built = []
    init = camb.CoxeterElement.__init__

    def counting_init(self, group, word):
        built.append(tuple(word))
        init(self, group, word)

    monkeypatch.setattr(camb.CoxeterElement, "__init__", counting_init)
    fresh = build_from_label("B3")  # a system whose group holds no element yet
    for name in ("COEP", "COIP(lin)", "COFP"):
        count_family(fresh, name)
    assert built == [(2, 1, 0)]


@pytest.mark.parametrize("label,family,checksum", [
    ("A3", "posets",
     "39e3ceb7a4d5a1975663539a1c7c99767b680fcc2c18a80c9000ddc70469eb4c"),
    ("B3", "closed",
     "ef042d0859564e601796f9300874e2c5058470d327d371395e4a3a2dc0fc8acd"),
    ("B2", "semiclosed",
     "5ec1a0c99d428601ce42b407ae9c675e0836a8ba591c8ca6e2a2cf5563d97ff0"),
    ("A3", "WOIP",
     "84be7e4b66b8867f900a5656e44322dcb2055b4b26d92f32fe2509c4a2e63c37"),
    ("B3", "COFP",
     "896883220de22ea8c0b1a79b3a55967242acf53f146508c583c4a92578b4c7c8"),
])
def test_checksums_are_pinned(label, family, checksum):
    """The sha256 of the sets' 16-byte little-endian bits, in the order
    they are found, is fixed across releases."""
    assert count_family(system(label), family).checksum == checksum


def test_checksums_are_reproducible(a3):
    a = count_family(a3, "posets")
    b = count_family(a3, "posets")
    assert a.count == b.count and a.checksum == b.checksum


def test_poset_dfs_matches_sign_sweep():
    for label in ("A2", "B2", "G2", "A3"):
        rs = system(label)
        assert ({r.bits for r in enumerate_posets(rs)}
                == {r.bits for r in poset_sweep(rs)})


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_level_members_match_classify_sweep(label):
    rs = system(label)
    flags = [(bits, classify(RootSet(rs, bits))) for bits in range(1 << rs.num_roots)]
    keep = {Level.ALL: lambda f: True,
            Level.ANTISYM: lambda f: f.antisymmetric,
            Level.SEMICLOSED: lambda f: f.semiclosed,
            Level.CLOSED: lambda f: f.closed,
            Level.POSETS: lambda f: f.poset}
    for level, pred in keep.items():
        got = [r.bits for r in level_members(rs, level)]
        assert len(got) == len(set(got))
        assert set(got) == {bits for bits, f in flags if pred(f)}, level
        if level is not Level.ALL:
            assert len(got) == count_family(rs, level.value).count


def test_level_members_cap_fires_before_building():
    d4 = system("D4")
    for level in Level:
        with pytest.raises(ResourceCapError):
            level_members(d4, level, cap=200)
    assert len(level_members(d4, Level.POSETS, cap=12361)) == 12361
    # E6 has too many closed subsets of Phi^+ to list; the search stops early
    with pytest.raises(ResourceCapError):
        level_members(system("E6"), Level.SEMICLOSED, cap=5000)


def test_resource_caps():
    with pytest.raises(ResourceCapError):
        count_family(system("E6"), "closed")
    with pytest.raises(ResourceCapError):
        check_conjecture("coip-sublattice", system("B4"))


def test_reference_count_lookup():
    assert reference_count("A3", "posets") == 219
    assert reference_count("B3", "closed") == {"B": 1785, "C": 1803}
    assert reference_count("D4", "WOIP") == 3959
    assert reference_count("A5", "posets") is None
    assert reference_count("G2", "posets") is None


def test_table1_rows_match_and_variants():
    rows = table1_rows(["B3"], ["closed", "posets", "WOEP"])
    by_family = {r.family: r for r in rows}
    assert by_family["WOEP"].match is True
    assert by_family["closed"].match is True
    assert by_family["closed"].variant == "B"
    assert by_family["posets"].variant == "B"


@pytest.mark.parametrize("conj", CONJECTURE_IDS)
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_conjectures_rank2(conj, label):
    report = check_conjecture(conj, system(label), "lin")
    assert report.verified, report


def test_sublattice_checker_finds_the_woip_witness(a2):
    members = construct_family(group("A2"), FamilyId("WOIP"))
    report = check_sublattice(members, Level.POSETS)
    assert not report.closed_under_ops
    r, s, direction, result = report.witness
    pair = {r.bits, s.bits}
    assert pair == {parse_set_literal(a2, "+[1,0],+[1,1]").bits,
                    parse_set_literal(a2, "+[0,1],+[1,1]").bits}
    assert direction == "join"
    assert result == parse_set_literal(a2, "+[1,1]")


@pytest.mark.parametrize("label,conj", [("H2", "coip-sublattice"),
                                        ("H2", "coep-sublattice"),
                                        ("H3", "coip-sublattice")])
def test_sublattice_conjectures_refuse_noncrystallographic(label, conj):
    """The posets formulas are only proved on crystallographic systems."""
    with pytest.raises(UnsupportedOperationError):
        check_conjecture(conj, system(label))


def test_failed_sublattice_conjecture_names_the_pair(a2, monkeypatch):
    woip = construct_family(group("A2"), FamilyId("WOIP"))
    monkeypatch.setattr(fam, "construct_family", lambda g, f: woip)
    report = check_conjecture("coip-sublattice", a2)
    assert not report.verified
    assert report.detail == (
        "17 members; the join of {+[0,1],+[1,1]} and {+[1,0],+[1,1]} "
        "is {+[1,1]}, outside the family")


def test_family_names_round_trip():
    for name in ("WOIP", "BOFP", "COIP", "COIP(bip)", "COEP(s2s1)", "COFP(lin)"):
        assert str(FamilyId.parse(name)) == name
    assert FamilyId.parse("COIP", "bip") == FamilyId("COIP", "bip")
    assert FamilyId.parse("WOIP", "bip") == FamilyId("WOIP")
    for bad in ("WOIP(lin)", "COIP(lin", "woip", "all"):
        with pytest.raises(ContractViolationError):
            FamilyId.parse(bad)


def test_sublattice_checker_passes_on_woep(a2):
    members = construct_family(group("A2"), FamilyId("WOEP"))
    assert check_sublattice(members, Level.POSETS).closed_under_ops


@pytest.mark.parametrize("case", COUNTEREXAMPLE_IDS)
def test_counterexamples_reproduce(case):
    report = reproduce_counterexample(case)
    assert report.reproduced, report.details


def test_cross_formula_counts():
    """|WOEP| = |W| = prod d_i, |COEP| = Cat(W), |BOEP| = 2^n, |BOIP| = 3^n."""
    for label in ("A2", "B2", "G2", "A3", "B3"):
        rs = system(label)
        g = group(label)
        assert count_family(rs, "WOEP", g).count == rs.weyl_order()
        assert count_family(rs, "COEP(lin)", g).count == rs.coxeter_catalan()
        assert count_family(rs, "BOEP", g).count == 2 ** rs.rank
        assert count_family(rs, "BOIP", g).count == 3 ** rs.rank


def test_unknown_ids_rejected():
    with pytest.raises(ContractViolationError):
        reproduce_counterexample("h5-nothing")
    with pytest.raises(ContractViolationError):
        check_conjecture("made-up", system("A2"))


def test_a4_bip_coep_witness_is_accepted_but_not_constructed():
    """The set behind the A4 coep-characterization mismatch: the COEP
    predicate accepts it and the construction does not list it."""
    rs = system("A4")
    g = group("A4")
    family = FamilyId("COEP", "bip")
    witness = parse_set_literal(
        rs, "+[0,0,0,1],+[1,0,0,0],-[0,0,1,0],-[0,1,0,0],-[0,1,1,0]")
    assert fam.member_predicate(g, family, witness, allow_conjectural=True)
    assert witness.bits not in {r.bits for r in construct_family(g, family)}


def test_failed_characterization_names_the_witness(a2, monkeypatch):
    only_c = parse_set_literal(a2, "+[1,0]")
    only_p = parse_set_literal(a2, "+[0,1],+[1,1]")
    monkeypatch.setattr(fam, "verify_family_equality", lambda *a, **k:
                        fam.FamilyEqualityReport("COEP", "A2", 5, 5, False,
                                                 [only_c.bits], [only_p.bits]))
    report = check_conjecture("coep-characterization", a2)
    assert not report.verified
    assert report.detail == (
        "constructed 5, predicate 5; first only in the predicate: "
        "{+[0,1],+[1,1]}, first only constructed: {+[1,0]}")
