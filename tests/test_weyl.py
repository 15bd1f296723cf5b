import random

import pytest

from rootposets.errors import ContractViolationError, InvariantError, ResourceCapError
from rootposets.rootset import RootSet, parse_set_literal
from rootposets.weakorder import weak_le
from rootposets.weyl import (
    WeylGroup, enumerate_cosets, facial_join, facial_le, facial_meet,
    format_word, interval_poset, make_coset,
)

from conftest import group, system
from oracles import (
    compose, coset_members, coset_poset, coset_poset_reference, element_poset,
    generator_perms, interval_reference, weak_extremum_reference,
)


def lit(rs, text):
    return parse_set_literal(rs, text)


@pytest.mark.parametrize("label,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48),
    ("G2", 12), ("H3", 120),
])
def test_group_orders(label, order):
    assert len(group(label).elements) == order


def test_group_cap():
    with pytest.raises(ResourceCapError):
        WeylGroup(system("F4"), cap=100)


def test_identity_first_and_deterministic(a2):
    g = group("A2")
    assert g.elements[0].length == 0
    lengths = [w.length for w in g.elements]
    assert lengths == sorted(lengths)


def test_a1_inversion(a2):
    g = group("A1")
    s1 = g.generator(0)
    assert s1.inv_bits == 1 and s1.descents() == {0}


def test_inversions_and_descents(a2):
    g = group("A2")
    assert g.identity.inv_bits == 0 and g.identity.descents() == set()
    assert g.longest.inv_bits == a2.pos_mask and g.longest.descents() == {0, 1}
    s1 = g.generator(0)
    simple = a2.simple_indices()
    assert s1.inv_bits == 1 << simple[0] and s1.descents() == {0}


def test_element_permutation_invariants(b2):
    g = group("B2")
    rs = b2
    for w in g.elements:
        for i in range(rs.num_roots):
            assert w.perm[rs.neg(i)] == rs.neg(w.perm[i])
        for i in range(rs.num_roots):
            for j in range(rs.num_roots):
                k = rs.root_sum(i, j)
                if k is not None:
                    assert rs.root_sum(w.perm[i], w.perm[j]) == w.perm[k]


def test_words_roundtrip(b3):
    g = group("B3")
    for w in g.elements:
        word = w.word()
        assert len(word) == w.length
        assert g.from_word(word).perm == w.perm
    assert format_word([]) == "e"
    assert format_word([0, 1, 0]) == "s1 s2 s1"


def test_element_poset_examples(a2):
    g = group("A2")
    assert element_poset(g, g.identity) == RootSet(a2, a2.pos_mask)
    s1 = g.generator(0)
    assert element_poset(g, s1) == lit(a2, "-[1,0],+[0,1],+[1,1]")


def test_element_poset_formula(b2):
    """R(w) = (Phi+ minus inv(w)) union -inv(w), and inv(w) = Phi+ n -R(w)."""
    g = group("B2")
    rs = b2 = g.system
    for w in g.elements:
        bits = w.poset_bits
        inv_bits = w.inv_bits
        assert bits == (rs.pos_mask & ~inv_bits) | rs.negate_bits(inv_bits)
        assert inv_bits == rs.pos_mask & rs.negate_bits(bits)


def test_interval_poset(a2):
    g = group("A2")
    e, w0 = g.identity, g.longest
    assert interval_poset(g, e, w0) == RootSet(a2, 0)
    s1 = g.generator(0)
    assert interval_poset(g, e, s1) == lit(a2, "+[0,1],+[1,1]")
    with pytest.raises(ContractViolationError):
        interval_poset(g, g.generator(0), g.generator(1))


def test_coset_poset_example(a2):
    g = group("A2")
    coset = make_coset(g, g.identity, {0})
    assert coset_poset(g, coset) == lit(a2, "+[0,1],+[1,1]")


def test_coset_poset_is_interval_poset(b2):
    """x(Phi^+ minus Phi_I^+), by permuting roots, is the interval poset
    of [x, x w_{o,I}], which coset_poset returns."""
    for label in ("B2", "A3", "D4", "H3"):
        g = group(label)
        for coset in enumerate_cosets(g):
            lo, hi = coset.x, coset.w_long
            assert coset_poset(g, coset).bits == coset_poset_reference(g, coset)
            assert coset_poset(g, coset) == interval_poset(g, lo, hi)
            span_bits, _ = g.parabolic_data(coset.subset)
            assert len(coset_poset(g, coset)) == (
                g.system.num_positive - span_bits.bit_count())


@pytest.mark.parametrize("label,count", [
    ("A1", 3), ("A2", 13), ("B2", 17), ("A3", 75), ("B3", 147),
])
def test_coset_counts(label, count):
    assert len(enumerate_cosets(group(label))) == count


def test_coset_members_match_interval(a2):
    g = group("A2")
    for coset in enumerate_cosets(g):
        members = coset_members(coset)
        assert len(members) == 2 ** 0 * _subgroup_order(g, coset.subset)
        ids = {w.id for w in members}
        direct = {g.mult(coset.x, u).id for u in _subgroup(g, coset.subset)}
        assert ids == direct


def _subgroup(g, subset):
    span_bits, _ = g.parabolic_data(subset)
    return [w for w in g.elements if w.inv_bits & ~span_bits == 0]


def _subgroup_order(g, subset):
    return len(_subgroup(g, subset))


def test_coset_representative_validation(a2):
    g = group("A2")
    s1 = g.generator(0)
    with pytest.raises(ContractViolationError):
        make_coset(g, s1, {0})


def test_weak_order_matches_element_posets(a3):
    g = group("A3")
    pos, neg = g.system.pos_mask, g.system.neg_mask
    for v in g.elements:
        rv = element_poset(g, v)
        for w in g.elements:
            rw = element_poset(g, w)
            le = weak_le(rv, rw)
            assert le == v.weak_le(w)
            # either sign part alone decides the order on element posets
            assert le == (rw.bits & pos & ~rv.bits == 0)
            assert le == (rv.bits & neg & ~rw.bits == 0)


def test_weak_meet_join(b2):
    g = group("B2")
    for a in g.elements:
        for b in g.elements:
            m = g.weak_meet(a, b)
            j = g.weak_join(a, b)
            assert m.weak_le(a) and m.weak_le(b)
            assert a.weak_le(j) and b.weak_le(j)


TABLE_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4",
                "G2", "H2", "H3", "I2(5)"]


@pytest.mark.parametrize("label", TABLE_LABELS)
def test_generator_tables_match_perm_composition(label):
    g = group(label)
    gens = generator_perms(g.system)
    by_perm = {w.perm: w for w in g.elements}
    w0 = max(g.elements, key=lambda w: w.length)
    for w in g.elements:
        for i, gp in enumerate(gens):
            assert g.right[i][w.id] == by_perm[compose(w.perm, gp)].id
            assert g.left[i][w.id] == by_perm[compose(gp, w.perm)].id
        inverse = [0] * len(w.perm)
        for t, image in enumerate(w.perm):
            inverse[image] = t
        assert g.inverse[w.id] == by_perm[tuple(inverse)].id
        assert g.from_word(w.word()) is w
        assert g.mult(w, g.longest) is by_perm[compose(w.perm, w0.perm)]


@pytest.mark.parametrize("label", TABLE_LABELS)
def test_descent_caches_match_their_definitions(label):
    """inv(w) = Phi^+ n w(Phi^-), des(w) = {i : alpha_i in inv(w)} and
    D_R(w) = {i : w(alpha_i) < 0}, read off the permutation; ids run by
    (length, inversion bits) and _by_inv inverts inv_bits."""
    g = group(label)
    rs = g.system
    n, simples = rs.num_positive, rs.simple_indices()
    keys = [(w.length, w.inv_bits) for w in g.elements]
    assert keys == sorted(set(keys))
    for ident, w in enumerate(g.elements):
        assert w.id == ident and g._by_inv[w.inv_bits] == ident
        assert w.inv_bits == sum(1 << a for a in w.perm[n:] if a < n)
        assert w.length == w.inv_bits.bit_count()
        assert g.descent_cache[ident] == {
            i for i, s in enumerate(simples) if w.inv_bits >> s & 1}
        assert g.right_descent_cache[ident] == {
            i for i, s in enumerate(simples) if w.perm[s] >= n}


def test_e6_group_with_the_cap_lifted():
    """51,840 elements with 36-bit inversion sets, and inv(w^-1) read as
    bytes at 72 roots: the tables agree with composing permutations on a
    seeded sample, and the inverse table is an involution."""
    g = WeylGroup(system("E6"), cap=51_840)
    assert len(g.elements) == 51_840
    assert all(g.inverse[g.inverse[w]] == w for w in range(51_840))
    gens = generator_perms(g.system)
    by_perm = {w.perm: w.id for w in g.elements}
    for w in random.Random(27).sample(g.elements, 2000):
        for i, gp in enumerate(gens):
            assert g.right[i][w.id] == by_perm[compose(w.perm, gp)]
            assert g.left[i][w.id] == by_perm[compose(gp, w.perm)]
        inverse = sorted(range(len(w.perm)), key=w.perm.__getitem__)
        assert g.inverse[w.id] == by_perm[tuple(inverse)]


@pytest.mark.parametrize("label,samples", [
    ("A3", None), ("B3", None), ("G2", None), ("H2", None), ("I2(5)", None),
    ("H3", 2000)])
def test_weak_meet_join_match_reference(label, samples):
    g = group(label)
    pairs = [(a, b) for a in g.elements for b in g.elements]
    if samples is not None:
        pairs = random.Random(6).sample(pairs, samples)
    for a, b in pairs:
        assert g.weak_meet(a, b) is weak_extremum_reference(g, a, b, "meet")
        assert g.weak_join(a, b) is weak_extremum_reference(g, a, b, "join")


@pytest.mark.parametrize("label,samples", [
    ("A3", None), ("B3", None), ("G2", None), ("H2", None), ("I2(5)", None),
    ("H3", 2000), ("F4", 300)])
def test_interval_matches_reference(label, samples):
    """The walk visits exactly [lo, hi], and nothing when lo is not below hi."""
    g = group(label)
    k = len(g.elements)
    codes = range(k * k)
    if samples is not None:
        codes = random.Random(8).sample(codes, samples)
    for code in codes:
        lo, hi = g.elements[code // k], g.elements[code % k]
        walk = g.interval(lo.id, hi.inv_bits)
        assert len(walk) == len(set(walk))
        assert sorted(walk) == [w.id for w in interval_reference(g, lo, hi)]


def test_interval_classes_refuse_a_non_interval_fiber():
    """Length 1 in A2 is {s1, s2}, which no weak order interval is."""
    with pytest.raises(InvariantError, match="A2"):
        group("A2").interval_classes(lambda w: w.length)


def test_facial_le_examples(a2):
    g = group("A2")
    bottom = make_coset(g, g.identity, frozenset())
    edge = make_coset(g, g.identity, {0})
    assert facial_le(bottom, edge)
    assert not facial_le(edge, bottom)
    assert facial_le(edge, edge)


def test_facial_ops_on_vertex_below_edge(a2):
    g = group("A2")
    bottom = make_coset(g, g.identity, frozenset())
    edge = make_coset(g, g.identity, {0})
    assert facial_le(bottom, edge) is True
    m = facial_meet(g, bottom, edge)
    assert m.x.id == bottom.x.id and m.subset == bottom.subset
    j = facial_join(g, bottom, edge)
    assert j.x.id == edge.x.id and j.subset == edge.subset


def test_facial_meet_idempotent(a2):
    g = group("A2")
    for coset in enumerate_cosets(g):
        m = facial_meet(g, coset, coset)
        assert m.x.id == coset.x.id and m.subset == coset.subset


def test_facial_restricted_to_vertices_is_weak_order(b2):
    g = group("B2")
    verts = {w.id: make_coset(g, w, frozenset()) for w in g.elements}
    for a in g.elements:
        for b in g.elements:
            assert facial_le(verts[a.id], verts[b.id]) == a.weak_le(b)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_facial_order_matches_poset_order(label):
    g = group(label)
    cosets = enumerate_cosets(g)
    posets = [coset_poset(g, c) for c in cosets]
    for i, x in enumerate(cosets):
        for j, y in enumerate(cosets):
            assert facial_le(x, y) == weak_le(posets[i], posets[j])


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_facial_meet_join_are_glb_lub(label):
    g = group(label)
    cosets = enumerate_cosets(g)
    n = len(cosets)
    le = [[facial_le(x, y) for y in cosets] for x in cosets]
    key = {(c.x.id, c.subset): i for i, c in enumerate(cosets)}
    for i in range(n):
        for j in range(i, n):
            m = facial_meet(g, cosets[i], cosets[j])
            mi = key[(m.x.id, m.subset)]
            assert le[mi][i] and le[mi][j]
            jn = facial_join(g, cosets[i], cosets[j])
            ji = key[(jn.x.id, jn.subset)]
            assert le[i][ji] and le[j][ji]
            for k in range(n):
                if le[k][i] and le[k][j]:
                    assert le[k][mi]
                if le[i][k] and le[j][k]:
                    assert le[ji][k]


def test_coset_repr_format(a2):
    g = group("A2")
    coset = make_coset(g, g.generator(0), {1})
    assert repr(coset) == "s1|{2}"
