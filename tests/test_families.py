import math

import pytest

from rootposets import weyl
from rootposets.cambrian import cambrian_classes, coxeter_element, facial_cambrian_classes
from rootposets.census import enumerate_posets
from rootposets.errors import (
    ContractViolationError, ResourceCapError, UnsupportedOperationError,
)
from rootposets.families import (
    CAMBRIAN_TAGS, FAMILY_TAGS, FamilyId, _coip_sums_hold, construct_family,
    family_set, member_predicate, verify_family_equality,
)
from rootposets.rootset import RootSet, parse_set_literal
from rootposets.rootsys import build_from_label
from rootposets.weakorder import Level, lattice_op, lattice_op_bits, weak_le
from rootposets.weyl import enumerate_cosets, interval_bits, interval_poset, weyl_group

from conftest import group, system
from oracles import (
    binary_tree_posets_reference, boip_components_of, boip_op,
    boolean_element_poset, coip_op, coip_sums_reference, coset_poset,
    descent_classes, family_reference, interval_pairs_reference,
    linear_extensions, woip_interval_of, woip_op,
)


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
        a2.pos_mask,
        a2.neg_mask,
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
    assert member_predicate(g, FamilyId("WOEP"), RootSet(a2, a2.pos_mask))
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


@pytest.mark.parametrize("tag", [t for t in FAMILY_TAGS if t != "WOFP"])
def test_sum_predicates_refuse_noncrystallographic(h2, tag):
    """On H2 the pairwise-sum fixpoint is not the closure, and the sum
    predicates accept far more than the construction (WOIP: 243 against
    39), so every predicate but WOFP is refused."""
    family = FamilyId(tag, "lin" if tag in CAMBRIAN_TAGS else None)
    with pytest.raises(UnsupportedOperationError):
        member_predicate(group("H2"), family, RootSet(h2, 0),
                         allow_conjectural=True)


def test_wofp_predicate_holds_on_h2(h2):
    """WOFP separates by a hyperplane, which needs no sums: 21 = 21."""
    report = verify_family_equality(group("H2"), FamilyId("WOFP"),
                                    enumerate_posets(h2))
    assert report.equal and report.construction_count == 21


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
@pytest.mark.parametrize("spec", ["lin", "bip"])
def test_coip_masks_match_pairwise_reference(label, spec):
    """The per-root sum masks give the pair-by-pair COIP condition on
    every poset."""
    g = group(label)
    c = coxeter_element(g, spec)
    for r in enumerate_posets(g.system):
        assert _coip_sums_hold(g.system, c, r.bits) == \
            coip_sums_reference(g.system, c, r.bits), r


def test_coip_predicate_is_one_per_coxeter_element():
    """s1s2s4s3, s1s4s2s3 and s4s1s2s3 are words of one A4 element, and
    the COIP predicate gives one answer for all three on every poset."""
    g = group("A4")
    words = ("s1s2s4s3", "s1s4s2s3", "s4s1s2s3")
    accepted = [{r.bits for r in enumerate_posets(g.system)
                 if member_predicate(g, FamilyId("COIP", w), r)} for w in words]
    assert accepted[0] == accepted[1] == accepted[2]
    assert accepted[0] == family_set(g, FamilyId("COIP", words[0]))


def test_coep_sweep_reuses_the_snake_cache(monkeypatch):
    """The snake searches are kept on the Coxeter element, so a second
    COEP sweep with the same element searches no snake again."""
    import rootposets.cambrian as camb
    g = weyl_group(build_from_label("B3"))
    c = coxeter_element(g, "lin")
    posets = enumerate_posets(g.system)
    calls = []
    real = camb._snake_sum_roots
    monkeypatch.setattr(camb, "_snake_sum_roots",
                        lambda *args: calls.append(args) or real(*args))
    first = verify_family_equality(g, FamilyId("COEP", c), posets,
                                   allow_conjectural=True)
    assert calls and len(calls) == len(c.snake_sums)
    calls.clear()
    again = verify_family_equality(g, FamilyId("COEP", c), posets,
                                   allow_conjectural=True)
    assert calls == [] and again == first


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


def _count_sweep_calls(monkeypatch, label, family):
    """Calls of member_predicate, classify and coxeter_element made by one
    predicate sweep over the posets of ``label``, the poset count, and the
    sweep's report.  The sweep runs on a system built inside it, and
    builds the same-sign sum triples once, with the system."""
    import rootposets.cambrian as camb
    import rootposets.families as families
    import rootposets.rootsys as rootsys
    calls = {"member_predicate": 0, "classify": 0, "coxeter_element": 0,
             "_same_sign_sums": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((families, "member_predicate"), (families, "classify"),
                         (camb, "coxeter_element"), (rootsys, "_same_sign_sums")):
        count(module, name)
    rs = rootsys.build_from_label(label)
    posets = enumerate_posets(rs)
    report = verify_family_equality(weyl_group(rs), family, posets,
                                    allow_conjectural=True)
    assert calls.pop("_same_sign_sums") == 1
    return calls, len(posets), report


def test_coep_sweep_sets_up_once(monkeypatch):
    """A COEP sweep enters the predicate and classifies once per poset,
    and resolves its Coxeter element once."""
    calls, n, _ = _count_sweep_calls(monkeypatch, "B3", FamilyId("COEP", "lin"))
    assert calls == {"member_predicate": n, "classify": n, "coxeter_element": 1}


def test_boep_sweep_classifies_once(monkeypatch):
    """A BOEP sweep tests BOIP on the bits it has, so each poset is
    classified once (twice when the predicate re-entered itself for BOIP),
    and the construction still equals the predicate."""
    calls, n, report = _count_sweep_calls(monkeypatch, "B4", FamilyId("BOEP"))
    assert n == 94_313
    assert calls == {"member_predicate": n, "classify": n, "coxeter_element": 0}
    assert report.equal and report.construction_count == 16


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
    for r in others + [RootSet(a2, a2.full_mask)]:
        with pytest.raises(ContractViolationError):
            woip_interval_of(g, r)


@pytest.mark.parametrize("label", ["A3", "B3", "H3", "A5"])
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
    """B3 WOIP has 457 sets, one per streamed pair: a cap of 40 refuses
    it from the count, before any pair is streamed, and a cap of 457
    admits it."""
    g = group("B3")
    calls = []
    pair_bits = weyl.interval_bits

    def counting(system, lo, hi):
        calls.append((lo, hi))
        return pair_bits(system, lo, hi)

    monkeypatch.setattr(weyl, "interval_bits", counting)
    with pytest.raises(ResourceCapError, match="WOIP family of B3"):
        construct_family(g, FamilyId("WOIP"), cap=40)
    assert calls == []
    assert len(construct_family(g, FamilyId("WOIP"), cap=457)) == 457
    assert len(calls) == 457


@pytest.mark.parametrize("label,tag,spec", [
    (label, tag, spec)
    for label in ("A3", "B3", "C3", "G2", "A4", "B4", "C4", "D4")
    for tag in ("WOEP", "WOIP", "COEP", "COIP")
    for spec in ((("lin", "bip") + (("s2s1s3s4",) if label[1] == "4" else ()))
                 if tag in CAMBRIAN_TAGS else (None,))])
def test_family_set_matches_interval_pairs_reference(label, tag, spec):
    """The up-set sweep over the kept elements gives the posets of the
    interval walks (WOIP) and of the Cambrian classes (COEP, COIP)."""
    g = group(label)
    family = FamilyId(tag, spec)
    want = {interval_bits(g.system, lo, hi)
            for lo, hi in interval_pairs_reference(g, family)}
    assert family_set(g, family) == want


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_coep_lin_matches_binary_trees(label):
    """COEP(lin) of A_n is the set of binary tree posets on n+1 nodes,
    the Catalan number of them (2, 5, 14, 42), built without the
    Cambrian tables."""
    g = group(label)
    trees = binary_tree_posets_reference(g.system)
    nodes = g.system.rank + 1
    assert len(trees) == math.comb(2 * nodes, nodes) // (nodes + 1)
    assert family_set(g, FamilyId("COEP", "lin")) == trees


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
                assert lattice_op_bits(r.system, Level.POSETS, d, r.bits, s.bits) in have


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
                via_posets = RootSet(g.system, lattice_op_bits(g.system, Level.POSETS, d,
                                                               r.bits, s.bits))
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
