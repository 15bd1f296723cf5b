import random

import pytest
from hypothesis import given, settings, strategies as st

from rootposets.coeff import Coeff, PSI
from rootposets.errors import ContractViolationError, UnsupportedOperationError
from rootposets.rootset import (
    RootSet, classify, closure, closure_bits, closure_deletion, deletion_bits,
    format_set_literal, is_convex, parse_set_literal,
)
from rootposets.weakorder import weak_le
from rootposets.census import enumerate_posets

from conftest import group, system
from oracles import linear_extensions, nspan_oracle


def lit(rs, text):
    return parse_set_literal(rs, text)


def all_subsets(rs):
    for bits in range(1 << rs.num_roots):
        yield RootSet(rs, bits)


def test_split_signs(a2):
    full = RootSet.all_roots(a2)
    assert full.positive_part() == RootSet.positive_roots(a2)
    assert full.negative_part() == RootSet.negative_roots(a2)
    empty = RootSet(a2, 0)
    assert len(empty.positive_part()) == 0 and len(empty.negative_part()) == 0
    r = lit(a2, "+[1,0],-[0,1]")
    pos, neg = r.positive_part(), r.negative_part()
    assert format_set_literal(pos) == "+[1,0]"
    assert format_set_literal(neg) == "-[0,1]"
    assert pos.union(neg) == r


def test_classify_examples(a2):
    flags = classify(RootSet.positive_roots(a2))
    assert flags.antisymmetric and flags.closed and flags.poset
    assert not flags.symmetric
    flags = classify(lit(a2, "+[1,1]"))
    assert flags.poset
    assert classify(RootSet.all_roots(a2)).symmetric
    assert classify(RootSet(a2, 0)).symmetric


def test_classify_h3_pairwise_only(h3):
    """The four-root H2-style set is pairwise closed but not multiset closed."""
    lk = h3.index_of_coords
    quad = RootSet.from_indices(h3, [
        lk[(Coeff(1), Coeff(0), Coeff(0))],
        lk[(Coeff(0), Coeff(1), Coeff(0))],
        lk[(PSI, PSI, Coeff(0))],
        h3.neg(lk[(Coeff(1), PSI, Coeff(0))]),
    ])
    assert classify(quad).closed  # condition (i) only
    total = None
    for i in quad:
        c = h3.roots[i].coords
        total = c if total is None else tuple(a + b for a, b in zip(total, c))
    k = h3.index_of_coords[total]
    assert k not in quad  # so the multiset condition (iii) fails


def test_closure_examples(a2, c2):
    assert closure(lit(a2, "+[1,0],+[0,1]")) == lit(a2, "+[1,0],+[0,1],+[1,1]")
    assert closure(RootSet(a2, 0)) == RootSet(a2, 0)
    # with 2a1+a2 in the system, {a1, a1+a2} forces it
    assert closure(lit(c2, "+[1,0],+[1,1]")) == lit(c2, "+[1,0],+[1,1],+[2,1]")


def test_closure_rejects_noncrystallographic(h3):
    with pytest.raises(UnsupportedOperationError):
        closure(RootSet.positive_roots(h3))


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_closure_operator_laws_exhaustive(label):
    rs = system(label)
    for r in all_subsets(rs):
        cl = closure(r)
        assert r.bits & ~cl.bits == 0
        assert closure(cl) == cl
        assert classify(cl).closed
        assert classify(r).closed == (cl == r)
    # monotonicity on a sample of nested pairs
    rng = random.Random(3)
    for _ in range(300):
        small = rng.getrandbits(rs.num_roots)
        big = small | rng.getrandbits(rs.num_roots)
        assert closure_bits(rs, small) & ~closure_bits(rs, big) == 0


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4"])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_closure_operator_laws_property(label, data):
    """closure_bits is extensive, monotone and idempotent, on sets of at
    most six roots and their unions with another such set."""
    rs = system(label)
    roots = st.sets(st.integers(0, rs.num_roots - 1), max_size=6)
    small = sum(1 << i for i in data.draw(roots))
    big = small | sum(1 << i for i in data.draw(roots))
    cl = closure_bits(rs, small)
    assert small & ~cl == 0
    assert cl & ~closure_bits(rs, big) == 0
    assert closure_bits(rs, cl) == cl


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_closure_matches_nspan_oracle_exhaustive(label):
    rs = system(label)
    for r in all_subsets(rs):
        assert closure(r) == nspan_oracle(r)


@pytest.mark.parametrize("label", ["G2", "A3", "B3"])
def test_closure_matches_nspan_oracle_sampled(label):
    rs = system(label)
    rng = random.Random(11)
    for k in range(250):
        bits = rng.getrandbits(rs.num_roots)
        if k % 2:  # thin sets exercise the box more than dense ones
            bits &= rng.getrandbits(rs.num_roots)
        r = RootSet(rs, bits)
        assert closure(r) == nspan_oracle(r)
    # a wider box yields the same answers, so the default box loses nothing
    for _ in range(30):
        r = RootSet(rs, rng.getrandbits(rs.num_roots))
        assert nspan_oracle(r) == nspan_oracle(r, slack=2)


def test_closure_deletion_examples(a2):
    r = lit(a2, "+[1,0],-[1,1]")
    assert closure_deletion(r, "negative") == lit(a2, "+[1,0]")
    closed = RootSet.positive_roots(a2)
    assert closure_deletion(closed, "negative") == closed


def test_closure_deletion_h3_remark(h3):
    lk = h3.index_of_coords
    alpha = lk[(Coeff(1), Coeff(0), Coeff(0))]
    beta = h3.neg(lk[(Coeff(1), PSI, Coeff(0))])
    gamma = h3.neg(lk[(PSI, Coeff(1), Coeff(1))])
    bg = h3.root_sum(beta, gamma)
    assert bg is not None
    r = RootSet.from_indices(h3, [alpha, beta, gamma, bg])
    ncd = closure_deletion(r, "negative")  # exhaustive: H3 is not crystallographic
    assert ncd == RootSet.from_indices(h3, [alpha, beta, gamma])
    assert not classify(ncd).closed


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_closure_deletion_paths_agree_rank2(label):
    rs = system(label)
    for r in all_subsets(rs):
        if not classify(r).semiclosed:
            continue
        for side in ("negative", "positive"):
            fast = deletion_bits(rs, r.bits, side, True)
            slow = deletion_bits(rs, r.bits, side, False)
            assert fast == slow


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_closure_deletion_order_and_closedness(label):
    rs = system(label)
    for r in all_subsets(rs):
        ncd = RootSet(rs, deletion_bits(rs, r.bits, "negative", False))
        pcd = RootSet(rs, deletion_bits(rs, r.bits, "positive", False))
        assert weak_le(ncd, r) and weak_le(r, pcd)
        if classify(r).semiclosed:
            assert classify(ncd).closed
            assert classify(pcd).closed


def test_is_convex_examples(a2, b3):
    assert is_convex(RootSet.positive_roots(a2))
    assert is_convex(RootSet(a2, 0))
    bad = lit(b3, "-[1,0,0],-[1,2,2],+[0,0,1]")
    assert not is_convex(bad)


def test_is_convex_rank_cap():
    rs = system("A5")
    with pytest.raises(ContractViolationError):
        is_convex(RootSet(rs, 0))


def test_linear_extensions_examples(a2):
    g = group("A2")
    assert len(linear_extensions(RootSet.positive_roots(a2), g)) == 1
    assert len(linear_extensions(RootSet(a2, 0), g)) == len(g.elements)


def test_linear_extensions_b2_strict_containment(c2):
    """With 2a1+a2 in the system, {2a1+a2, a2} is not cut out by its
    element-poset extensions: the intersection also picks up a1+a2."""
    g = group("C2")
    r = lit(c2, "+[2,1],+[0,1]")
    assert classify(r).poset
    exts = linear_extensions(r, g)
    assert exts
    inter = c2.full_mask
    for w in exts:
        inter &= w.poset_bits
    assert inter == lit(c2, "+[0,1],+[1,1],+[2,1]").bits
    assert inter != r.bits


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_linear_extensions_nonempty_and_unique_maximal(label):
    rs = system(label)
    g = group(label)
    posets = enumerate_posets(rs)
    poset_bits = {p.bits for p in posets}
    for r in posets:
        assert linear_extensions(r, g)
        # extension poset in the containment order
        supersets = [p for p in posets
                     if r.bits & ~p.bits == 0]
        is_total = (r.bits | rs.negate_bits(r.bits)) == rs.full_mask
        assert (len(supersets) == 1) == is_total
    assert poset_bits  # sanity


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_posets_have_no_vanishing_subsums(label):
    import itertools
    rs = system(label)
    for r in enumerate_posets(rs):
        members = list(r)
        for k in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(members, k):
                total = [Coeff(0)] * rs.rank
                for i in combo:
                    total = [a + b for a, b in zip(total, rs.roots[i].coords)]
                assert any(c.sign() != 0 for c in total)


def test_set_literal_roundtrip(a2, b3):
    for rs in (a2, b3):
        rng = random.Random(5)
        for _ in range(50):
            r = RootSet(rs, rng.getrandbits(rs.num_roots))
            assert parse_set_literal(rs, format_set_literal(r)) == r
    assert parse_set_literal(a2, "") == RootSet(a2, 0)
    with pytest.raises(ContractViolationError):
        parse_set_literal(a2, "+[2,0]")


def test_mixed_system_rejected(a2, b2):
    with pytest.raises(ContractViolationError):
        RootSet(a2, 1).union(RootSet(b2, 1))
