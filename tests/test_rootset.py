import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from rootposets.coeff import Coeff, PSI
from rootposets.errors import ContractViolationError, UnsupportedOperationError
from rootposets.rootset import (
    RootSet, RootSets, classify, closure, closure_bits, closure_deletion,
    deletion_bits, format_set_literal, is_convex, parse_set_literal,
)
from rootposets.weakorder import Level, level_members, weak_le
from rootposets.census import enumerate_posets
from rootposets.families import FamilyId, construct_family, family_bits

from conftest import group, system
from oracles import (
    closed_flags_reference, deletion_coeff_reference, linear_extensions, nspan_oracle,
)


def lit(rs, text):
    return parse_set_literal(rs, text)


def all_subsets(rs):
    for bits in range(1 << rs.num_roots):
        yield RootSet(rs, bits)


def test_split_signs(a2):
    assert a2.pos_mask | a2.neg_mask == a2.full_mask
    assert a2.pos_mask & a2.neg_mask == 0
    r = lit(a2, "+[1,0],-[0,1]")
    pos, neg = RootSet(a2, r.bits & a2.pos_mask), RootSet(a2, r.bits & a2.neg_mask)
    assert format_set_literal(pos) == "+[1,0]"
    assert format_set_literal(neg) == "-[0,1]"
    assert RootSet(a2, pos.bits | neg.bits) == r


def test_classify_examples(a2):
    flags = classify(RootSet(a2, a2.pos_mask))
    assert flags.antisymmetric and flags.closed and flags.poset
    assert not flags.symmetric
    flags = classify(lit(a2, "+[1,1]"))
    assert flags.poset
    assert classify(RootSet(a2, a2.full_mask)).symmetric
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
        closure(RootSet(h3, h3.pos_mask))


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
    closed = RootSet(a2, a2.pos_mask)
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


@pytest.mark.parametrize("label,sample", [("H2", 80), ("H3", 4)])
def test_exhaustive_deletion_matches_the_coeff_walk(label, sample):
    """On H the exhaustive deletion walks int vectors pruned at the
    integers' range; the Coeff walk pruned at the largest height agrees
    on seeded subsets, both sides.  I2(5) has H2's Cartan matrix."""
    rs = system(label)
    rng = random.Random(label)
    for _ in range(sample):
        bits = rng.getrandbits(rs.num_roots)
        for side in ("negative", "positive"):
            assert deletion_bits(rs, bits, side, False) == \
                deletion_coeff_reference(rs, bits, side), (side, bits)


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
    assert is_convex(RootSet(a2, a2.pos_mask))
    assert is_convex(RootSet(a2, 0))
    bad = lit(b3, "-[1,0,0],-[1,2,2],+[0,0,1]")
    assert not is_convex(bad)


def test_is_convex_rank_cap():
    rs = system("A5")
    with pytest.raises(ContractViolationError):
        is_convex(RootSet(rs, 0))


def test_linear_extensions_examples(a2):
    g = group("A2")
    assert len(linear_extensions(RootSet(a2, a2.pos_mask), g)) == 1
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
    for text in ("+[1,0], +[0,1]", "+[1,0] ,+[0,1]", "+[1,0] , +[0,1]"):
        assert parse_set_literal(a2, text) == parse_set_literal(a2, "+[1,0],+[0,1]")
    for text in ("+[2,0]", "+[1,0],", "+[1,0], ", "+[1,0] ,", "+[1,0] +[0,1]"):
        with pytest.raises(ContractViolationError):
            parse_set_literal(a2, text)


LITERAL_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "H2", "H3", "I2(5)"])


@pytest.mark.parametrize("label", LITERAL_LABELS)
def test_literal_tables_match_the_per_root_join(label):
    """Each byte table entry joins the literals of its byte's set bits, and
    format_set_literal joins the roots' literals one by one, in index
    order, on the empty set, the full set and seeded samples, and they
    read back, psi coordinates (H2, H3, I2(5)) included."""
    rs = system(label)
    for k, row in enumerate(rs.byte_literals):
        width = min(8, rs.num_roots - 8 * k)
        assert len(row) == 1 << width
        assert all(entry == ",".join(rs.literals[8 * k + i] for i in range(width)
                                     if b >> i & 1) for b, entry in enumerate(row))
    rng = random.Random(24)
    for bits in [0, rs.full_mask] + [rng.getrandbits(rs.num_roots) for _ in range(40)]:
        r = RootSet(rs, bits)
        text = format_set_literal(r)
        assert text == ",".join(rs.literals[i] for i in range(rs.num_roots) if bits >> i & 1)
        assert parse_set_literal(rs, text) == r


def _flag_samples(rs, count, rng):
    """Seeded sets R, with cl(R), cl(R+) | cl(R-) and cl(R) less one root,
    so that closed, semiclosed-only and neither all occur."""
    for _ in range(count):
        bits = rng.getrandbits(rs.num_roots) & rng.getrandbits(rs.num_roots)
        cl = closure_bits(rs, bits)
        yield from (bits, cl, closure_bits(rs, bits & rs.pos_mask)
                    | closure_bits(rs, bits & rs.neg_mask),
                    cl & ~(1 << rng.randrange(rs.num_roots)))


@pytest.mark.parametrize("label,sample", [
    ("A3", None), ("B2", None), ("G2", None), ("H2", None), ("B3", 600), ("H3", 600)])
def test_classify_flags_match_three_sweeps(label, sample):
    """The one-sweep closed and semiclosed flags equal the three-sweep
    definition on every subset (or a seeded sample of B3 and H3).  Every
    outcome occurs but in H2, where no two roots sum to a root."""
    rs = system(label)
    bitsets = (range(1 << rs.num_roots) if sample is None
               else list(_flag_samples(rs, sample, random.Random(7))))
    seen = set()
    for bits in bitsets:
        flags = classify(RootSet(rs, bits))
        got = (flags.closed, flags.semiclosed)
        assert got == closed_flags_reference(rs, bits), (label, bits)
        seen.add(got)
    assert seen == ({(True, True)} if label == "H2"
                    else {(True, True), (False, True), (False, False)})


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
def test_classify_records_are_shared_and_match_their_definitions(label):
    """On every subset, symmetric and antisymmetric compare R with its
    negation, taken root by root from the coordinates, and poset is
    antisymmetric and closed.  Equal flags come back as one immutable
    record."""
    rs = system(label)
    negative = [rs.index_of_coords[tuple(-c for c in r.coords)] for r in rs.roots]
    records = {}
    for bits in range(1 << rs.num_roots):
        flags = classify(RootSet(rs, bits))
        image = sum(1 << negative[i] for i in range(rs.num_roots) if bits >> i & 1)
        assert flags.symmetric == (image == bits), (label, bits)
        assert flags.antisymmetric == (image & bits == 0), (label, bits)
        assert flags.poset == (flags.antisymmetric and flags.closed), (label, bits)
        assert records.setdefault(flags, flags) is flags
    with pytest.raises(AttributeError):
        flags.closed = not flags.closed


def test_mixed_system_rejected(a2, b2):
    with pytest.raises(ContractViolationError):
        weak_le(RootSet(a2, 1), RootSet(b2, 1))


@pytest.fixture
def collector():
    """Restores the collector's state after a test that switches it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_root_sets_wrap_each_set_in_order():
    """The same RootSets, in the same order, as one wrap per set: on the
    B3 posets, the A4 WOIP bits and no bits at all."""
    b3, a4 = system("B3"), system("A4")
    for rs, bits in ((b3, enumerate_posets(b3).bits),
                     (a4, family_bits(group("A4"), FamilyId("WOIP"))),
                     (b3, [])):
        got = RootSets(rs, bits)
        assert got == [RootSet(rs, b) for b in bits]
        assert [r.bits for r in got] == bits
        assert all(r.system is rs for r in got)


@pytest.mark.parametrize("listing", ["A2 all", "A3 posets", "B3 WOIP", "H3 WOFP"])
def test_root_sets_sequence_contract(listing):
    """A listing reads as the list of its RootSets, built from its bits, on
    a range (the all level) and on lists from the backtracking and from a
    family construction; ``in`` matches members by system and bits."""
    label, name = listing.split()
    rs = system(label)
    level = Level.named(name)
    seq = (level_members(rs, level) if level else
           construct_family(group(label), FamilyId(name)))
    want = [RootSet(rs, b) for b in seq.bits]
    n = len(want)
    assert len(seq) == n and seq.system is rs
    assert isinstance(seq.bits, range if name == "all" else list)
    assert all(seq[i] == want[i] for i in range(-n, n))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[i]
    assert seq[1:5] == want[1:5] and seq[::-3] == want[::-3]
    assert type(seq[:]) is list and seq[:] == want
    assert list(seq) == want and list(reversed(seq)) == want[::-1]
    assert seq == want and seq == tuple(want) and seq == RootSets(rs, list(seq.bits))
    assert seq != want[:-1] and seq != want[::-1] and seq != set(want)
    assert seq.index(want[-1]) == n - 1
    assert want[n // 2] in seq
    have = set(seq.bits)  # every subset at the all level
    outside = [b for b in (seq.bits[1] ^ 1 << r for r in range(rs.num_roots))
               if b not in have][:3]
    assert len(outside) == (0 if name == "all" else 3)
    assert not any(RootSet(rs, b) in seq for b in outside)
    assert RootSet(system("A3" if label != "A3" else "B3"), seq.bits[0]) not in seq
    with pytest.raises(TypeError):
        hash(seq)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_root_sets_leave_the_collector_as_found(collector, enabled):
    """A level listing keeps its sets as bits: on or off before the call,
    the collector is so after it; with it off, listing A3's 4,096 subsets
    raises the young-generation count by fewer than 10 (a RootSet per set
    raised it by one each)."""
    rs = system("A3")
    (gc.enable if enabled else gc.disable)()
    young = gc.get_count()[0]
    sets = level_members(rs, Level.ALL)
    assert gc.isenabled() is enabled
    if not enabled:
        assert gc.get_count()[0] < young + 10
    assert len(sets) == 4096


def test_root_sets_leave_no_young_backlog(collector):
    """With the collector on, a listing of more than three young-generation
    thresholds of sets leaves the caller below the threshold, and no fuller
    than it found it plus a few objects: no tracked set is allocated."""
    gc.enable()
    gc.collect(0)
    threshold = gc.get_threshold()[0]
    young = gc.get_count()[0]
    sets = level_members(system("A3"), Level.ALL)
    assert len(sets) > 3 * threshold
    assert gc.get_count()[0] < min(threshold, young + 10)
