import hashlib
import math
import random
import tracemalloc

import pytest

from rootposets.census import (
    CONJECTURE_IDS, COUNTEREXAMPLE_IDS, SublatticeReport, check_conjecture, check_sublattice,
    count_family, enumerate_posets, reference_count, reproduce_counterexample, table1_rows,
)
from rootposets import cambrian as camb
from rootposets import families as fam
from rootposets import weakorder as wo
from rootposets import weyl
from rootposets.errors import (
    ContractViolationError, ResourceCapError, UnsupportedOperationError,
)
from rootposets.families import (
    CAMBRIAN_TAGS, FAMILY_TAGS, FamilyId, construct_family, family_bits,
)
from rootposets.rootset import RootSet, _indices, classify, parse_set_literal
from rootposets.rootsys import build_from_label
from rootposets.weakorder import (
    Level, _batch, _bit_columns, _closed_sets, _tail_size, level_members,
)

from conftest import group, system
from oracles import (
    dfs_closed_reference, poset_sweep, snake_decomposable_reference,
)


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
    res = count_family(a2, "WOEP")
    assert res.count == 6 and res.method == "group tables"
    res = count_family(a2, "BOIP")
    assert res.count == 9 and res.method == "group tables"
    res = count_family(a2, "COIP(bip)")
    assert res.count == 13 and res.method == "group tables"
    for name in ("WOIP", "WOFP", "COEP", "COFP", "BOEP", "BOFP"):
        assert count_family(a2, name).method == "group tables"


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
    ("A4", "closed",
     "4232e6a80812745f557dfa91982320bd97a02ae4dea5ca2c39ec447ac124f4e5"),
    ("D4", "posets",
     "eaaddb1ae390d7202353b3238db658e347b76d88338cc2877ca6b121ffa4a7c6"),
    ("B4", "posets",
     "4eb44738134abb640297dd0909b02ee92d7eb04086dd0f97e96151f16cd0f8aa"),
    ("C4", "closed",
     "b2f9cb3199ca250ee501da04274ec03f08e9229bd67489a6b7b07bf1c4cc0683"),
])
def test_checksums_are_pinned(label, family, checksum):
    """The sets of a row, and the order they are listed in, are fixed
    across releases (and so across reruns)."""
    assert _row_digest(label, family) == checksum


def _row_digest(label, family):
    """The sha256 of a row's sets, as 16-byte little-endian bits in the
    order level_members or family_bits lists them; for the antisym and
    semiclosed rows, which list no sets, of the count's decimal string."""
    rs = system(label)
    level = Level.named(family)
    h = hashlib.sha256()
    if level in (Level.ANTISYM, Level.SEMICLOSED):
        h.update(str(count_family(rs, family).count).encode())
        return h.hexdigest()
    if level is None:
        members = family_bits(group(label), FamilyId.parse(family))
    else:
        members = [r.bits for r in level_members(rs, level)]
    for bits in members:
        h.update(bits.to_bytes(16, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("label", [
    "A3", "B3", "G2", "H3", "I2(5)", "A4", "D4", "F4"])
def test_counts_match_the_listed_sets(label):
    """A count builds no set, yet equals the number of sets listed.  The
    levels of H3 (1,357,133 closed sets), D4 (788,544 semiclosed) and F4
    (3,602,271 closed) are too large to list."""
    rs, g = system(label), group(label)
    levels = () if label in ("H3", "D4", "F4") else (
        Level.ANTISYM, Level.SEMICLOSED, Level.CLOSED, Level.POSETS)
    for level in levels:
        assert (count_family(rs, level.value).count
                == len(level_members(rs, level))), level
    # a third Coxeter word, neither lin nor bip, where every rank-4 type has one
    words = ("lin", "bip") + (("s2s1s3s4",) if rs.rank == 4 else ())
    for tag in FAMILY_TAGS:
        for spec in words if tag in CAMBRIAN_TAGS else (None,):
            family = FamilyId(tag, spec)
            assert (count_family(rs, family).count
                    == len(family_bits(g, family))), family


@pytest.mark.parametrize("label,woip,wofp", [
    # OEIS A007767 and A000670 at n = rank + 1
    ("A5", 31_711, 4_683), ("A6", 672_697, 47_293),
])
def test_weak_order_rows_match_oeis(label, woip, wofp):
    rs = system(label)
    assert count_family(rs, "WOIP").count == woip
    assert count_family(rs, "WOFP").count == wofp


@pytest.mark.parametrize("label", ["A5", "B5", "D5", "F4", "D6"])
def test_wofp_counts_the_cosets_of_every_parabolic(label):
    """WOFP = sum over I of |W| / |W_I|, with |W_I| read as the size of
    the interval [e, w_{o,I}]."""
    g = group(label)
    order = len(g.elements)
    cosets = 0
    for mask in range(1 << g.system.rank):
        span_bits, _ = g.parabolic_data(_indices(mask))
        cosets += order // len(g.interval(0, span_bits))
    assert count_family(g.system, "WOFP").count == cosets


def _count_construction_calls(monkeypatch):
    """Count the calls of each construction a table count must skip."""
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((fam, "family_set"), (weyl.WeylGroup, "interval"),
                        (weyl, "enumerate_cosets"), (camb, "cambrian_classes"),
                        (camb, "facial_cambrian_classes")):
        counted(owner, name)
    return calls


@pytest.mark.parametrize("tag,count", [
    ("WOEP", 48), ("WOIP", 457), ("WOFP", 147), ("BOEP", 8), ("BOIP", 27)])
def test_weak_order_rows_walk_no_interval(monkeypatch, tag, count):
    """The weak order and cube rows are counted from the group's tables:
    they list no family, walk no interval and enumerate no coset."""
    calls = _count_construction_calls(monkeypatch)
    # a system whose group is built inside the count
    assert count_family(build_from_label("B3"), tag).count == count
    assert set(calls.values()) == {0}, calls


@pytest.mark.parametrize("name,count", [
    ("COEP", 20), ("COIP(lin)", 132), ("COIP(bip)", 138), ("COFP", 63)])
def test_cambrian_rows_build_no_class(monkeypatch, name, count):
    """The Cambrian rows are counted from the Coxeter element's sortable
    flags: they build no class, walk no interval and enumerate no coset."""
    calls = _count_construction_calls(monkeypatch)
    # a system whose group and Coxeter element are built inside the count
    assert count_family(build_from_label("B3"), name).count == count
    assert set(calls.values()) == {0}, calls


def _narayana_h_vector(family, n):
    """h_k of the type-A, B or D cluster complex of rank n (Fomin and
    Reading, *Root systems and generalized associahedra*, 2007): the
    Narayana numbers C(n+1,k) C(n+1,k+1) / (n+1), C(n,k)^2, and
    C(n,k)^2 - n/(n-1) C(n-1,k) C(n-1,k-1)."""
    comb = math.comb
    if family == "A":
        return [comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(n + 1)]
    if family == "B":
        return [comb(n, k) ** 2 for k in range(n + 1)]
    return [comb(n, k) ** 2 - n * comb(n - 1, k) * comb(n - 1, k - 1) // (n - 1)
            if k else 1 for k in range(n + 1)]


@pytest.mark.parametrize("label,degrees,faces", [
    ("A5", (2, 3, 4, 5, 6), 903), ("B5", (2, 4, 6, 8, 10), 1683),
    ("D5", (2, 4, 5, 6, 8), 1233), ("F4", (2, 6, 8, 12), None),
], ids=["A5", "B5", "D5", "F4"])
def test_cambrian_rows_match_independent_values(label, degrees, faces):
    """COEP is the Coxeter-Catalan number prod (h + d_i) / d_i of the
    degrees; COFP, the faces of the generalized associahedron, is
    sum h_k 2^(n-k) over the cluster complex's h-vector (A001003 on A5,
    the central Delannoy number A001850 on B5).  Neither reads the
    library."""
    rs = system(label)
    h = max(degrees)
    catalan = math.prod(h + d for d in degrees) // math.prod(degrees)
    assert count_family(rs, "COEP").count == catalan
    if faces is not None:
        n = rs.rank
        hv = _narayana_h_vector(label[0], n)
        assert sum(hv) == catalan
        assert sum(hk << n - k for k, hk in enumerate(hv)) == faces
        assert count_family(rs, "COFP").count == faces


def test_a5_coip_lin_counts_the_tamari_intervals():
    """The Tamari lattice on m = 6 leaves has 2 (4m+1)! / ((m+1)! (3m+2)!)
    intervals (Chapoton 2006)."""
    m, fact = 6, math.factorial
    tamari = 2 * fact(4 * m + 1) // (fact(m + 1) * fact(3 * m + 2))
    assert count_family(system("A5"), "COIP(lin)").count == tamari == 2530


def _check_closed_sets(rs):
    """_closed_sets against the reference backtracking, for closed, posets
    and the closed subsets of Phi^+: the same sets in the same order, and
    for closed and posets level_members wraps them in that order."""
    for indices, antisymmetric in ((range(rs.num_roots), False),
                                   (range(rs.num_roots), True),
                                   (range(rs.num_positive), False)):
        want = []
        dfs_closed_reference(rs, indices, antisymmetric, want.append)
        got = []
        count = _closed_sets(rs, indices, antisymmetric,
                             lambda *leaf: got.extend(_batch(*leaf)))
        assert got == want and count == len(want), (rs.label, antisymmetric)
        if len(indices) == rs.num_roots:
            level = Level.POSETS if antisymmetric else Level.CLOSED
            assert [r.bits for r in level_members(rs, level)] == want, rs.label


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2",
    "H2", "I2(5)",
])
def test_closed_sets_match_the_one_pass_backtracking(label):
    """The head/tail split lists every set of the reference backtracking,
    in its order.  A1 and the rank-2 systems have an empty head; A4 and
    B4 cut a root from its negative."""
    rs = system(label)
    _check_closed_sets(rs)
    if label in ("A4", "B4"):
        order = sorted(range(rs.num_roots), key=lambda i: (abs(rs.roots[i].height), i))
        head = set(order[:len(order) - _tail_size(len(order))])
        assert any(rs.neg(r) not in head for r in head)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
@pytest.mark.parametrize("rule", [lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n],
                         ids=["none", "one", "half", "all"])
def test_closed_sets_match_at_any_tail_size(monkeypatch, label, rule):
    """No tail, a one-root tail, half the roots and every root all list
    the reference sets in their order."""
    monkeypatch.setattr(wo, "_tail_size", rule)
    _check_closed_sets(system(label))


def test_tail_columns_match_their_definition():
    """Column r holds bit k exactly when tails[k] holds root r, on seeded
    random tails, one empty tail set and an empty tail, and on roots
    reaching past one byte and past 64 bits, up to E8's last index 239,
    since the row width is (max(roots) >> 3) + 1 bytes."""
    rng = random.Random(18)
    rs = system("B4")
    order = sorted(range(rs.num_roots), key=lambda i: (abs(rs.roots[i].height), i))
    cases = [([0], []), ([0], order[-5:])]
    for _ in range(30):
        roots = order[-rng.randint(1, 16):]
        cases.append(([sum(1 << r for r in roots if rng.random() < 0.5)
                       for _ in range(rng.randint(1, 300))], roots))
    wide = [[7, 8], [0, 7, 8, 63, 64], [239, 8, 64, 7, 63],
            sorted(set(rng.sample(range(240), 12)) | {7, 8, 63, 64, 239})]
    for roots in wide:
        every = sum(1 << r for r in roots)
        cases.append(([0, every] + [sum(1 << r for r in roots if rng.random() < 0.5)
                                    for _ in range(rng.randint(1, 300))], roots))
    for tails, roots in cases:
        assert _bit_columns(tails, roots) == {
            r: sum(1 << k for k, t in enumerate(tails) if t >> r & 1) for r in roots}


@pytest.mark.parametrize("label,peak_mb", [("B4", 1.17), ("C4", 1.57)])
def test_link_memo_stays_small(label, peak_mb):
    """The backtracking memoises each decision's column by the bits its
    links read, and stores each distinct column once.  peak_mb is the
    traced peak of one closed count before the memo existed (Python 3.11,
    x86-64, after a first count built the system's lazy tables); the
    memo may add half of it.  Without the sharing of equal columns the
    peak was 2.45 and 3.06 MB."""
    rs = system(label)
    count = wo.level_count(rs, Level.CLOSED)
    tracemalloc.start()
    try:
        assert wo.level_count(rs, Level.CLOSED) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * peak_mb * 2 ** 20, peak / 2 ** 20


def test_tail_size_stays_small():
    """At most 16 roots, and never more than there are, up to E8's Phi^+."""
    assert all(0 <= _tail_size(n) <= min(n, 16) for n in range(121))


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


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_level_count_matches_level_members(label):
    """Every level counts as many sets as it lists, the all level included,
    through weakorder and through the census."""
    rs = system(label)
    for level in Level:
        count = len(level_members(rs, level))
        assert wo.level_count(rs, level) == count_family(rs, level.value).count == count


def test_cube_counts_build_no_group():
    """BOEP is 2^rank and BOIP = BOFP 3^rank, read off the rank: E7 and
    E8, whose groups are over the cap, count without one."""
    for label in ("E7", "E8"):
        fresh = build_from_label(label)
        counts = [count_family(fresh, tag).count for tag in ("BOEP", "BOIP", "BOFP")]
        assert counts == [2 ** fresh.rank, 3 ** fresh.rank, 3 ** fresh.rank]
        assert fresh._group is None


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
        count_family(system("E8"), "semiclosed")
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


@pytest.mark.parametrize("conj", CONJECTURE_IDS)
@pytest.mark.parametrize("label", ["H2", "H3", "I2(5)"])
def test_conjectures_refuse_noncrystallographic_before_any_work(
        conj, label, monkeypatch):
    """The posets formulas and the COEP predicate are only proved on
    crystallographic systems, so off them every conjecture is refused
    before the rank cap, before any group is built and before any poset
    is listed."""
    import rootposets.census as cns

    def fail(*args):
        raise AssertionError("built before the refusal")
    monkeypatch.setattr(weyl, "weyl_group", fail)
    monkeypatch.setattr(cns, "enumerate_posets", fail)
    with pytest.raises(UnsupportedOperationError, match="crystallographic"):
        check_conjecture(conj, system(label), rank_cap=0)


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
    # only the tag is case-insensitive
    assert FamilyId.parse("woip") == FamilyId("WOIP")
    assert str(FamilyId.parse("coip(bip)")) == "COIP(bip)"
    for f in [FamilyId(tag) for tag in FAMILY_TAGS] + [
            FamilyId(tag, word) for tag in CAMBRIAN_TAGS for word in ("bip", "s2s1")]:
        back = FamilyId.parse(str(f))
        assert (back, hash(back), type(back)) == (f, hash(f), FamilyId)
    for bad in ("WOIP(lin)", "COIP(lin", "all", "XYZ"):
        with pytest.raises(ContractViolationError):
            FamilyId.parse(bad)
    with pytest.raises(ContractViolationError):
        FamilyId("XYZ")


def test_sublattice_checker_passes_on_woep(a2):
    members = construct_family(group("A2"), FamilyId("WOEP"))
    assert check_sublattice(members, Level.POSETS).closed_under_ops


def test_sublattice_checker_accepts_the_empty_family():
    assert check_sublattice([], Level.POSETS) == SublatticeReport(0, True)
    assert check_sublattice(iter([]), Level.CLOSED) == SublatticeReport(0, True)


@pytest.mark.parametrize("case", COUNTEREXAMPLE_IDS)
def test_counterexamples_reproduce(case):
    report = reproduce_counterexample(case)
    assert report.reproduced, report.details


def test_cross_formula_counts():
    """|WOEP| = |W| = prod d_i, |COEP| = Cat(W), |BOEP| = 2^n, |BOIP| = 3^n."""
    for label in ("A2", "B2", "G2", "A3", "B3"):
        rs = system(label)
        assert count_family(rs, "WOEP").count == rs.weyl_order()
        assert count_family(rs, "COEP(lin)").count == rs.coxeter_catalan()
        assert count_family(rs, "BOEP").count == 2 ** rs.rank
        assert count_family(rs, "BOIP").count == 3 ** rs.rank


def test_unknown_ids_rejected():
    with pytest.raises(ContractViolationError):
        reproduce_counterexample("h5-nothing")
    with pytest.raises(ContractViolationError):
        check_conjecture("made-up", system("A2"))


def test_a4_bip_coep_witness_is_accepted_but_not_constructed():
    """The set behind the A4 coep-characterization mismatch: the COEP
    predicate accepts it, the snake search oracle agrees that every root
    decomposes, and the construction does not list it."""
    rs = system("A4")
    g = group("A4")
    family = FamilyId("COEP", "bip")
    witness = parse_set_literal(
        rs, "+[0,0,0,1],+[1,0,0,0],-[0,0,1,0],-[0,1,0,0],-[0,1,1,0]")
    assert fam.member_predicate(g, family, witness, allow_conjectural=True)
    c = camb.coxeter_element(g, "bip")
    assert (camb.snake_decomposable_roots(c, witness)
            == snake_decomposable_reference(c, witness) == set(range(rs.num_roots)))
    assert witness.bits not in {r.bits for r in construct_family(g, family)}


@pytest.mark.parametrize("spec,only_predicate", [
    ("lin", "+[0,0,1,0],+[1,0,0,0],-[0,0,0,1],-[0,1,0,0]"),
    ("bip", "+[0,0,0,1],+[1,0,0,0],-[0,0,1,0],-[0,1,0,0],-[0,1,1,0]"),
], ids=["lin", "bip"])
def test_a4_coep_characterization_reports(spec, only_predicate):
    """The full A4 sweep: the predicate accepts one set more than the
    construction lists, and the report names it."""
    report = check_conjecture("coep-characterization", system("A4"), spec,
                              rank_cap=4)
    assert report.verified is False
    assert report.detail == (
        f"constructed 42, predicate 43; first only in the predicate: "
        f"{{{only_predicate}}}, first only constructed: none")


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
