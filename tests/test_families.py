import pytest

from rootposets.cambrian import cambrian_classes, coxeter_element, facial_cambrian_classes
from rootposets.census import enumerate_posets
from rootposets.errors import (
    ContractViolationError, ResourceCapError, UnsupportedOperationError,
)
from rootposets.families import (
    CAMBRIAN_TAGS, FAMILY_TAGS, FamilyId, boip_components_of, boip_op, boolean_element_poset,
    construct_family, member_predicate, verify_family_equality,
    woip_interval_of, woip_op, coip_op,
)
from rootposets.rootset import RootSet, parse_set_literal
from rootposets.weakorder import Level, lattice_op, weak_le
from rootposets.weyl import WeylGroup, coset_poset, enumerate_cosets, interval_poset

from conftest import group, system
from oracles import descent_classes, family_reference, linear_extensions


def lit(rs, text):
    return parse_set_literal(rs, text)


def fam(label, tag, spec="lin"):
    g = group(label)
    return construct_family(
        g, FamilyId(tag, spec if tag in CAMBRIAN_TAGS else None))


COUNTS = {
    "A1": dict(WOEP=2, WOIP=3, WOFP=3, COEP=2, COIP=3, COFP=3, BOEP=2, BOIP=3),
    "A2": dict(WOEP=6, WOIP=17, WOFP=13, COEP=5, COIP=13, COFP=11, BOEP=4, BOIP=9),
    "B2": dict(WOEP=8, WOIP=27, WOFP=17, COEP=6, COIP=18, COFP=13, BOEP=4, BOIP=9),
    "A3": dict(WOEP=24, WOIP=151, WOFP=75, COEP=14, COIP=68, COFP=45,
               BOEP=8, BOIP=27),
    "B3": dict(WOEP=48, WOFP=147, COEP=20, COIP=132, COFP=63, BOEP=8, BOIP=27),
}


@pytest.mark.parametrize("label", sorted(COUNTS))
def test_family_counts(label):
    for tag, want in COUNTS[label].items():
        assert len(fam(label, tag)) == want, (label, tag)


def test_coip_depends_on_coxeter_element():
    assert len(fam("A3", "COIP", "bip")) == 70
    assert len(fam("A3", "COIP", "lin")) == 68
    assert len(fam("B3", "COIP", "bip")) == 138


def test_bofp_is_boip():
    assert [r.bits for r in fam("B2", "BOFP")] == [r.bits for r in fam("B2", "BOIP")]


def test_boep_a2_members(a2):
    members = {r.bits for r in fam("A2", "BOEP")}
    expect = {
        RootSet.positive_roots(a2).bits,
        RootSet.negative_roots(a2).bits,
        lit(a2, "-[1,0],+[0,1]").bits,
        lit(a2, "+[1,0],-[0,1]").bits,
    }
    assert members == expect


def test_every_member_is_a_poset():
    from rootposets.rootset import classify
    for label in ("A2", "B2"):
        for tag in ("WOEP", "WOIP", "WOFP", "COEP", "COIP", "COFP", "BOEP", "BOIP"):
            for r in fam(label, tag):
                assert classify(r).poset


def test_member_predicate_examples(a2):
    g = group("A2")
    assert member_predicate(g, FamilyId("WOEP"), RootSet.positive_roots(a2))
    assert not member_predicate(g, FamilyId("WOIP"), lit(a2, "+[1,1]"))
    assert member_predicate(g, FamilyId("BOIP"), lit(a2, "-[1,0],+[0,1]"))
    count = sum(member_predicate(g, FamilyId("BOIP"), r)
                for r in enumerate_posets(a2))
    assert count == 9


def test_cofp_has_no_predicate(a2):
    g = group("A2")
    with pytest.raises(UnsupportedOperationError):
        member_predicate(g, FamilyId("COFP", "lin"), RootSet(a2, 0))
    with pytest.raises(UnsupportedOperationError):
        member_predicate(g, FamilyId("COEP", "lin"), RootSet(a2, 0))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("tag", ["WOEP", "WOIP", "WOFP", "COIP", "BOEP", "BOIP"])
def test_construction_equals_predicate(label, tag):
    g = group(label)
    report = verify_family_equality(
        g, FamilyId(tag, "lin" if tag in CAMBRIAN_TAGS else None),
        enumerate_posets(system(label)))
    assert report.equal, (report.only_constructed, report.only_predicate)


def test_construction_equals_predicate_a3():
    g = group("A3")
    posets = enumerate_posets(system("A3"))
    for tag in ("WOEP", "WOIP", "WOFP", "COIP", "BOEP", "BOIP"):
        report = verify_family_equality(
            g, FamilyId(tag, "bip" if tag in CAMBRIAN_TAGS else None), posets)
        assert report.equal, tag


def test_woip_counts_weak_intervals():
    for label in ("A2", "B2", "A3", "B3"):
        g = group(label)
        pairs = sum(1 for v in g.elements for w in g.elements if v.weak_le(w))
        assert pairs == len(fam(label, "WOIP"))


def test_woip_interval_extraction_roundtrip(b2):
    g = group("B2")
    for r in fam("B2", "WOIP"):
        lo, hi = woip_interval_of(g, r)
        assert interval_poset(g, lo, hi) == r


@pytest.mark.parametrize("label", ["A3", "B3", "H3"])
def test_woip_interval_of_matches_linear_extensions(label):
    g = group(label)
    for r in fam(label, "WOIP"):
        exts = linear_extensions(r, g)
        assert woip_interval_of(g, r) == (
            min(exts, key=lambda w: w.length), max(exts, key=lambda w: w.length))


def test_woip_interval_of_refuses_other_posets(a2):
    g = group("A2")
    woip = {r.bits for r in fam("A2", "WOIP")}
    others = [r for r in enumerate_posets(a2) if r.bits not in woip]
    assert others
    # all of Phi names v = w0 and w = e, which are not an interval
    for r in others + [RootSet.all_roots(a2)]:
        with pytest.raises(ContractViolationError):
            woip_interval_of(g, r)


@pytest.mark.parametrize("label", ["A3", "B3", "H3"])
def test_woip_construction_matches_pair_scan(label):
    """The walk above each v lists the same posets, in the same order, as
    the scan over every pair of W."""
    g = group(label)
    built = construct_family(g, FamilyId("WOIP"))
    want = family_reference(g, FamilyId("WOIP"))
    assert [r.bits for r in built] == [r.bits for r in want]


@pytest.mark.parametrize("label,tag,spec", [
    (label, tag, spec)
    for label in ("A3", "B3", "C3", "G2", "D4", "H3", "I2(5)")
    for tag in FAMILY_TAGS
    for spec in (("lin", "bip") if tag in CAMBRIAN_TAGS else (None,))])
def test_construction_matches_reference(label, tag, spec):
    """The interval pairs give the same posets, in the same order, as
    building one set per element, pair, coset or class."""
    g = group(label)
    family = FamilyId(tag, spec)
    built = construct_family(g, family)
    assert [r.bits for r in built] == [r.bits for r in family_reference(g, family)]


def test_family_cap_stops_the_walk(monkeypatch):
    """The walk above e reaches all 48 elements of B3, so a cap of 40
    stops the WOIP stream after one of the 48 walks."""
    g = group("B3")
    calls = []
    walk = WeylGroup.interval

    def counting(self, lo, cap):
        calls.append(lo)
        return walk(self, lo, cap)

    monkeypatch.setattr(WeylGroup, "interval", counting)
    with pytest.raises(ResourceCapError, match="WOIP family of B3"):
        construct_family(g, FamilyId("WOIP"), cap=40)
    assert calls == [0]
    calls.clear()
    assert len(construct_family(g, FamilyId("WOIP"), cap=457)) == 457
    assert len(calls) == len(g.elements)


def test_descent_classes(b2):
    g = group("B2")
    classes = descent_classes(g)
    assert len(classes) == 4
    total = sum(len(members) for _, _, members in classes.values())
    assert total == len(g.elements)
    # R(A) equals the intersection of element posets over the class,
    # which is the interval poset of the class
    for key, (lo, hi, members) in classes.items():
        bits = g.system.full_mask
        for w in members:
            bits &= w.poset_bits
        assert bits == boolean_element_poset(g, key).bits
        assert bits == interval_poset(g, lo, hi).bits


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_order_correspondences(label):
    g = group(label)
    # boolean order on element posets of the cube
    n = g.system.rank
    subsets = [frozenset(i for i in range(n) if (m >> i) & 1)
               for m in range(1 << n)]
    for a in subsets:
        for b in subsets:
            ra, rb = boolean_element_poset(g, a), boolean_element_poset(g, b)
            assert weak_le(ra, rb) == (a <= b)
    # Cambrian order on class posets
    c = coxeter_element(g, "lin")
    for x in cambrian_classes(c):
        for y in cambrian_classes(c):
            rx = interval_poset(g, x.bottom, x.top)
            ry = interval_poset(g, y.bottom, y.top)
            assert weak_le(rx, ry) == x.bottom.weak_le(y.bottom)


def test_interval_order_componentwise_b2(b2):
    g = group("B2")
    intervals = [(v, w) for v in g.elements for w in g.elements if v.weak_le(w)]
    posets = {(_v.id, _w.id): interval_poset(g, _v, _w) for _v, _w in intervals}
    for v, w in intervals:
        for v2, w2 in intervals:
            le = weak_le(posets[(v.id, w.id)], posets[(v2.id, w2.id)])
            assert le == (v.weak_le(v2) and w.weak_le(w2))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_woep_is_sublattice_of_posets(label):
    members = fam(label, "WOEP")
    have = {r.bits for r in members}
    for i, r in enumerate(members):
        for s in members[i:]:
            for d in ("meet", "join"):
                assert lattice_op(Level.POSETS, d, r, s,
                                  check_membership=False).bits in have


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
@pytest.mark.parametrize("spec", ["lin", "bip"])
def test_coip_is_sublattice_of_woip(label, spec):
    g = group(label)
    members = construct_family(g, FamilyId("COIP", spec))
    have = {r.bits for r in members}
    c = coxeter_element(g, spec)
    for i, r in enumerate(members):
        for s in members[i:]:
            for d in ("meet", "join"):
                out = coip_op(g, c, d, r, s)
                assert out.bits in have
                assert out == woip_op(g, d, r, s)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_boip_is_sublattice_three_ways(label):
    g = group(label)
    members = fam(label, "BOIP")
    have = {r.bits for r in members}
    c = coxeter_element(g, "lin")
    for i, r in enumerate(members):
        for s in members[i:]:
            for d in ("meet", "join"):
                via_boolean = boip_op(g, d, r, s)
                assert via_boolean.bits in have
                via_posets = lattice_op(Level.POSETS, d, r, s,
                                        check_membership=False)
                via_woip = woip_op(g, d, r, s)
                via_coip = coip_op(g, c, d, r, s)
                assert via_posets == via_boolean
                assert via_woip == via_boolean
                assert via_coip == via_boolean


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_boep_is_sublattice_of_boip(label):
    g = group(label)
    members = fam(label, "BOEP")
    have = {r.bits for r in members}
    for r in members:
        for s in members:
            assert boip_op(g, "meet", r, s).bits in have
            assert boip_op(g, "join", r, s).bits in have


def test_woip_not_sublattice_of_posets_witness(a2):
    """The A2 pair whose poset join differs from its interval join."""
    g = group("A2")
    r = lit(a2, "+[1,0],+[1,1]")
    s = lit(a2, "+[0,1],+[1,1]")
    poset_join = lattice_op(Level.POSETS, "join", r, s)
    assert poset_join == lit(a2, "+[1,1]")
    woip_join = woip_op(g, "join", r, s)
    assert woip_join == RootSet(a2, 0)
    assert poset_join != woip_join
    assert poset_join.bits not in {x.bits for x in fam("A2", "WOIP")}


def test_wofp_meet_mismatch_witness(a2):
    """{-a1, a2} against the empty poset: the facial meet adds a1+a2."""
    from rootposets.weyl import facial_meet
    g = group("A2")
    r = lit(a2, "-[1,0],+[0,1]")
    empty = RootSet(a2, 0)
    poset_meet = lattice_op(Level.POSETS, "meet", r, empty)
    woip_meet = woip_op(g, "meet", r, empty)
    assert poset_meet == woip_meet == lit(a2, "+[0,1]")
    cosets = enumerate_cosets(g)
    by_poset = {coset_poset(g, c).bits: c for c in cosets}
    m = facial_meet(g, by_poset[r.bits], by_poset[empty.bits])
    facial = coset_poset(g, m)
    assert facial == lit(a2, "+[0,1],+[1,1]")
    assert facial != poset_meet


def test_cofp_poset_is_interval_of_class_extrema():
    for label in ("A2", "B2", "A3", "B3"):
        g = group(label)
        c = coxeter_element(g, "lin")
        cosets = enumerate_cosets(g)
        for fc in facial_cambrian_classes(c, cosets):
            bits = g.system.full_mask
            for coset in fc.members:
                bits &= coset_poset(g, coset).bits
            lo = fc.down.x
            hi = fc.up.w_long
            assert bits == interval_poset(g, lo, hi).bits
            # the disjoint-union reading of the projection formula agrees
            down_bits = coset_poset(g, fc.down).bits & g.system.neg_mask
            up_bits = coset_poset(g, fc.up).bits & g.system.pos_mask
            assert bits == down_bits | up_bits


def test_boip_components_roundtrip(b2):
    g = group("B2")
    for r in fam("B2", "BOIP"):
        a, ap = boip_components_of(g, r)
        assert a <= ap
        lo = boolean_element_poset(g, a)
        hi = boolean_element_poset(g, ap)
        rebuilt = (lo.bits & b2.neg_mask) | (hi.bits & b2.pos_mask)
        assert rebuilt == r.bits
