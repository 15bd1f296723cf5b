import pytest

from rootposets.errors import ContractViolationError, ResourceCapError, UnsupportedOperationError
from rootposets.rootset import RootSet, classify, parse_set_literal, format_set_literal
import rootposets.weakorder as wo
from rootposets.weakorder import (
    Level, canonical_sort, covers, export_hasse, hasse_edges, lattice_op,
    lattice_op_bits, verify_lattice, weak_le,
)
from rootposets.census import enumerate_posets, level_members as level_members_dfs

from conftest import system
from oracles import lattice_op_reference, naive_lattice_report


def lit(rs, text):
    return parse_set_literal(rs, text)


def level_members(rs, level):
    out = []
    for bits in range(1 << rs.num_roots):
        flags = classify(RootSet(rs, bits))
        keep = {Level.ALL: True,
                Level.ANTISYM: flags.antisymmetric,
                Level.SEMICLOSED: flags.semiclosed,
                Level.CLOSED: flags.closed,
                Level.POSETS: flags.poset}[level]
        if keep:
            out.append(RootSet(rs, bits))
    return out


def test_weak_le_examples(a2):
    bottom = RootSet.positive_roots(a2)
    top = RootSet.negative_roots(a2)
    assert weak_le(bottom, top)
    assert not weak_le(top, bottom)
    r = lit(a2, "+[1,0],-[0,1]")
    assert weak_le(r, r)
    assert weak_le(lit(a2, "+[1,0],+[0,1],+[1,1]"), lit(a2, "+[0,1],+[1,1]"))


def test_weak_le_bounds_everything(b2):
    bottom = RootSet.positive_roots(b2)
    top = RootSet.negative_roots(b2)
    for bits in range(1 << b2.num_roots):
        r = RootSet(b2, bits)
        assert weak_le(bottom, r) and weak_le(r, top)


def test_lattice_op_idempotent(a2):
    for text in ("", "+[1,0]", "+[1,1],-[1,0]"):
        r = lit(a2, text)
        assert lattice_op(Level.ALL, "meet", r, r) == r
        assert lattice_op(Level.ALL, "join", r, r) == r


def test_poset_join_example(a2):
    """The pair witnessing that WOIP is not a sublattice of the posets."""
    r = lit(a2, "+[1,0],+[1,1]")
    s = lit(a2, "+[0,1],+[1,1]")
    assert lattice_op(Level.POSETS, "join", r, s) == lit(a2, "+[1,1]")


def test_poset_meet_example(a2):
    """The face-poset mismatch pair: the poset-level meet is {a2}."""
    r = lit(a2, "-[1,0],+[0,1]")
    empty = RootSet(a2, 0)
    assert lattice_op(Level.POSETS, "meet", r, empty) == lit(a2, "+[0,1]")


def test_lattice_op_contract_checks(a2, h3):
    non_poset = lit(a2, "+[1,0],-[1,0]")
    with pytest.raises(ContractViolationError):
        lattice_op(Level.POSETS, "meet", non_poset, non_poset)
    top = RootSet.positive_roots(h3)
    with pytest.raises(UnsupportedOperationError):
        lattice_op(Level.CLOSED, "meet", top, top)


@pytest.mark.parametrize("label", ["A2", "B2"])
@pytest.mark.parametrize("level", [Level.ALL, Level.ANTISYM,
                                   Level.SEMICLOSED, Level.POSETS])
def test_formulas_give_bruteforce_meets_and_joins(label, level):
    members = level_members(system(label), level)
    report = verify_lattice(members, level)
    assert report.is_lattice
    assert report.formula_matches_bruteforce


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_graded_levels(label):
    rs = system(label)
    for level in (Level.ANTISYM, Level.SEMICLOSED, Level.POSETS):
        members = level_members(rs, level)
        report = verify_lattice(members, level)
        assert report.is_lattice and report.formula_matches_bruteforce
        assert report.graded, (label, level)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_closed_level_lattice_but_possibly_ungraded(label):
    members = level_members(system(label), Level.CLOSED)
    report = verify_lattice(members, Level.CLOSED)
    assert report.is_lattice and report.formula_matches_bruteforce
    # gradedness is not claimed at this level; report it either way
    assert report.cover_count > 0


def test_lattice_laws_spot_checks(a2):
    import random
    rng = random.Random(1)
    posets = enumerate_posets(a2)
    for _ in range(200):
        r, s = rng.choice(posets), rng.choice(posets)
        meet = lattice_op(Level.POSETS, "meet", r, s)
        join = lattice_op(Level.POSETS, "join", r, s)
        assert meet == lattice_op(Level.POSETS, "meet", s, r)
        assert join == lattice_op(Level.POSETS, "join", s, r)
        assert lattice_op(Level.POSETS, "join", r, meet) == r  # absorption
        assert lattice_op(Level.POSETS, "meet", r, join) == r


def test_sandwich_and_monotonicity(b2):
    import random
    from rootposets.rootset import closure_deletion
    rng = random.Random(2)
    posets = enumerate_posets(b2)
    bybits = {p.bits for p in posets}
    for _ in range(300):
        r, s = rng.choice(posets), rng.choice(posets)
        sc_meet = RootSet(b2, lattice_op_bits(b2, Level.SEMICLOSED, "meet", r.bits, s.bits))
        c_meet = lattice_op(Level.POSETS, "meet", r, s)
        assert closure_deletion(sc_meet, "negative") == c_meet
        assert weak_le(c_meet, r) and weak_le(c_meet, s)
        assert c_meet.bits in bybits
        # monotone in both arguments
        t = rng.choice(posets)
        if weak_le(t, s):
            other = lattice_op(Level.POSETS, "meet", r, t)
            assert weak_le(other, c_meet)


def test_posets_meets_stay_antisymmetric(a2, b2):
    for rs in (a2, b2):
        posets = enumerate_posets(rs)
        for r in posets:
            for s in posets:
                m = lattice_op(Level.POSETS, "meet", r, s)
                j = lattice_op(Level.POSETS, "join", r, s)
                assert classify(m).poset and classify(j).poset


def test_covers_examples(a2):
    top = RootSet.negative_roots(a2)
    assert covers(Level.POSETS, top) == []
    bottom = RootSet.positive_roots(a2)
    got = {format_set_literal(c) for c in covers(Level.POSETS, bottom)}
    assert got == {"+[0,1],+[1,1]", "+[1,0],+[1,1]"}
    empty = RootSet(a2, 0)
    assert len(covers(Level.ANTISYM, empty)) == 3


def test_covers_closed_level_unsupported(a2):
    with pytest.raises(UnsupportedOperationError):
        covers(Level.CLOSED, RootSet(a2, 0))


@pytest.mark.parametrize("label", ["A2", "B2"])
@pytest.mark.parametrize("level", [Level.ALL, Level.ANTISYM,
                                   Level.SEMICLOSED, Level.POSETS])
def test_covers_match_transitive_reduction(label, level):
    members = level_members(system(label), level)
    nodes, edges = hasse_edges(members)
    index = {r.bits: i for i, r in enumerate(nodes)}
    expected = {}
    for a, b in edges:
        expected.setdefault(a, set()).add(b)
    for i, r in enumerate(nodes):
        got = {index[c.bits] for c in covers(level, r)}
        assert got == expected.get(i, set()), (label, level, format_set_literal(r))


def test_covers_match_reduction_a3_posets(a3):
    members = enumerate_posets(a3)
    nodes, edges = hasse_edges(members)
    index = {r.bits: i for i, r in enumerate(nodes)}
    expected = {}
    for a, b in edges:
        expected.setdefault(a, set()).add(b)
    for i, r in enumerate(nodes):
        got = {index[c.bits] for c in covers(Level.POSETS, r)}
        assert got == expected.get(i, set())


def test_verify_lattice_refuses_formulas_without_theory(h2):
    """On H2 the pairwise fixpoint is not the closure, so a formula
    mismatch there would be a false claim."""
    with pytest.raises(UnsupportedOperationError):
        verify_lattice(enumerate_posets(h2), Level.POSETS)
    assert verify_lattice(enumerate_posets(h2)).is_lattice


def test_verify_lattice_cap():
    rs = system("A2")
    members = [RootSet(rs, b) for b in range(1 << rs.num_roots)]
    with pytest.raises(ResourceCapError):
        verify_lattice(members, cap=10)


def test_verify_lattice_counts(a2, b2):
    rep = verify_lattice(enumerate_posets(a2), Level.POSETS)
    assert rep.family_size == 19 and rep.cover_count == 30
    rep = verify_lattice(enumerate_posets(b2), Level.POSETS)
    assert rep.family_size == 37 and rep.cover_count == 68


def test_export_hasse_formats(a2):
    posets = enumerate_posets(a2)
    dot = export_hasse(posets, "dot")
    assert dot.count("label=") == 19
    assert dot.count(" -> ") == 30
    single = export_hasse([RootSet(a2, 0)], "dot")
    assert single.count("label=") == 1 and " -> " not in single
    import json
    doc = json.loads(export_hasse(posets, "json"))
    assert len(doc["nodes"]) == 19 and len(doc["edges"]) == 30
    b2 = system("B2")
    dot = export_hasse(enumerate_posets(b2), "dot")
    assert dot.count("label=") == 37


def test_canonical_sort_deterministic(a2):
    posets = enumerate_posets(a2)
    import random
    shuffled = posets[:]
    random.Random(9).shuffle(shuffled)
    assert [r.bits for r in canonical_sort(shuffled)] == \
        [r.bits for r in canonical_sort(posets)]
    assert canonical_sort(posets)[0] == RootSet.positive_roots(a2)
    assert canonical_sort(posets)[-1] == RootSet.negative_roots(a2)


def _report_fields(rep):
    return (rep.family_size, rep.is_lattice, rep.formula_matches_bruteforce,
            rep.graded, rep.witness, rep.cover_count)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "H2"])
def test_verify_lattice_matches_naive_oracle(label):
    """Every report field, the witness included, and the Hasse edges agree
    with bounds and covers found from the definitions, on seeded random
    subfamilies of the posets (lattices and non-lattices both).  The level
    formulas are refused on H2, which is not crystallographic, so there
    only the search for a pair without a glb or a lub is checked."""
    import random
    rng = random.Random(label)
    rs = system(label)
    posets = enumerate_posets(rs)
    formulas = (None, Level.POSETS) if rs.crystallographic else (None,)
    outcomes = set()
    for trial in range(60):
        size = rng.randint(1, min(24, len(posets)))
        family = rng.sample(posets, size)
        for formula in formulas:
            want = naive_lattice_report(family, formula)
            rep = verify_lattice(family, formula)
            assert _report_fields(rep) == want[:6], (label, trial, formula)
            outcomes.add((rep.is_lattice, rep.formula_matches_bruteforce))
        assert hasse_edges(family)[1] == want[6]
    assert (False, None) in outcomes and (True, None) in outcomes
    if Level.POSETS in formulas:
        assert (True, False) in outcomes or (False, False) in outcomes


def _check_formula_pairs(rs, level, pairs):
    """lattice_op_bits on every pair and direction against the reference,
    which runs once per distinct formula input."""
    reference = lattice_op_reference(rs, level)
    for a, b in pairs:
        for direction in ("meet", "join"):
            want = reference(direction, a, b)
            assert lattice_op_bits(rs, level, direction, a, b) == want, \
                (rs.label, level, direction, a, b)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_lattice_op_bits_matches_reference_on_levels(label):
    """Every pair of each level whose formula closes or deletes, against
    the formulas applied one pair at a time."""
    rs = system(label)
    for level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        bits = [r.bits for r in level_members(rs, level)]
        _check_formula_pairs(rs, level, [(a, b) for i, a in enumerate(bits)
                                         for b in bits[i:]])


def test_lattice_op_bits_matches_reference_sampled_a3():
    import random
    rng = random.Random("A3 formulas")
    rs = system("A3")
    for level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        bits = [r.bits for r in level_members(rs, level)]
        _check_formula_pairs(rs, level, [(rng.choice(bits), rng.choice(bits))
                                         for _ in range(3000)])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_lattice_op_bits_matches_reference_off_level(label):
    """Antisymmetric inputs are not all semiclosed, so the closed and
    posets formulas reach the exhaustive deletion on some pairs."""
    import random
    rng = random.Random(label)
    rs = system(label)
    bits = [r.bits for r in level_members(rs, Level.ANTISYM)]
    pairs = [(rng.choice(bits), rng.choice(bits)) for _ in range(4000)]
    for level in (Level.CLOSED, Level.POSETS):
        _check_formula_pairs(rs, level, pairs)


def test_lattice_op_bits_deletes_exhaustively_without_theory():
    """Off the crystallographic types the chain search is incomplete, so the
    raw formula must take the exhaustive deletion (the guarded entry
    points refuse these systems)."""
    import random
    rng = random.Random("H2")
    rs = system("H2")
    bits = [r.bits for r in level_members(rs, Level.ANTISYM)]
    _check_formula_pairs(rs, Level.CLOSED, [(rng.choice(bits), rng.choice(bits))
                                            for _ in range(300)])


def _mask_key(rs, direction, a, b):
    """The mask combination a meet or join formula is applied to."""
    grown, kept = ((rs.pos_mask, rs.neg_mask) if direction == "meet"
                   else (rs.neg_mask, rs.pos_mask))
    return ((a | b) & grown) | (a & b & kept)


@pytest.mark.parametrize("label,family_level,formula", [
    ("A2", Level.ANTISYM, Level.POSETS),
    ("B2", Level.ANTISYM, Level.POSETS),
    ("B2", Level.ANTISYM, Level.CLOSED),
    ("B2", Level.SEMICLOSED, Level.POSETS),
])
def test_formula_stops_after_first_mismatch(monkeypatch, label, family_level,
                                            formula):
    """The report equals the oracle's, which evaluates the formula on every
    pair, while verify_lattice evaluates each mask key at most once per
    direction, only at keys that some pair of the family has, and every
    key of the pairs before the witness (the meet key of the witness too:
    a pair's meet is checked before its join).  The witness lies in the
    first row here, so it stops before it has evaluated every key."""
    rs = system(label)
    family = level_members(rs, family_level)
    want = naive_lattice_report(family, formula)
    calls = []
    real = wo.lattice_op_bits
    monkeypatch.setattr(wo, "lattice_op_bits",
                        lambda *args: calls.append(args) or real(*args))
    rep = verify_lattice(family, formula)
    assert _report_fields(rep) == want[:6]
    assert rep.formula_matches_bruteforce is False
    order = [r.bits for r in canonical_sort(family)]
    k = len(order)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    keys = {(direction, _mask_key(rs, direction, order[i], order[j]))
            for i, j in pairs for direction in ("meet", "join")}
    seen = [(args[2], _mask_key(rs, *args[2:])) for args in calls]
    assert len(set(seen)) == len(seen)
    assert set(seen) < keys
    last = pairs.index((order.index(rep.witness[0].bits),
                        order.index(rep.witness[1].bits)))
    must = {(direction, _mask_key(rs, direction, order[i], order[j]))
            for n, (i, j) in enumerate(pairs[:last + 1])
            for direction in ("meet", "join") if direction == "meet" or n < last}
    assert must <= set(seen)


@pytest.mark.parametrize("level", [Level.POSETS, Level.CLOSED])
def test_witness_search_reads_no_row_past_the_witness(monkeypatch, level):
    """Each member of the A3 level dropped in turn, checked with the
    level's formula: the keys evaluated are exactly those of the rows up
    to the witness's first row (all of them without a witness), each
    once.  Where the witness row is deepest the report equals the oracle's
    (the oracle takes 0.3-0.6 s per family, so it runs on that one only)."""
    rs = system("A3")
    members = canonical_sort(level_members_dfs(rs, level))
    calls = []
    real = wo.lattice_op_bits
    monkeypatch.setattr(wo, "lattice_op_bits",
                        lambda *args: calls.append(args[2:4]) or real(*args))
    deepest_row, deepest = -1, None
    for d in range(len(members)):
        family = members[:d] + members[d + 1:]
        order = [r.bits for r in family]
        calls.clear()
        rep = verify_lattice(family, level)
        last = len(order) - 1 if rep.witness is None else order.index(rep.witness[0].bits)
        read = {(direction, _mask_key(rs, direction, order[i], b))
                for i in range(last + 1) for b in order[i + 1:]
                for direction in ("meet", "join")}
        assert len(set(calls)) == len(calls) and set(calls) == read, d
        if rep.witness is not None and last > deepest_row:
            deepest_row, deepest = last, family
    rep = verify_lattice(deepest, level)
    assert _report_fields(rep) == naive_lattice_report(deepest, level)[:6]
    assert rep.formula_matches_bruteforce is False


def _masks_by_definition(family):
    """above[i]: the j with family[j] >= family[i], by weak_le."""
    return [sum(1 << j for j, s in enumerate(family) if weak_le(r, s)) for r in family]


def _check_order_masks(family):
    """The above rows of _order_masks against weak_le, and each column
    against the members whose key holds its root."""
    rs = family[0].system
    having, above = wo._order_masks(rs, [r.bits for r in family])
    assert above == _masks_by_definition(family)
    assert having == [sum(1 << j for j, s in enumerate(family)
                          if (s.bits ^ rs.pos_mask) >> root & 1)
                      for root in range(rs.num_roots)]
    return above


def test_order_masks_match_weak_le_on_e6():
    """E6 has 72 roots, so each key is wider than a machine word.  Seeded
    sets, each with a few sets above it (fewer positives, more
    negatives), so that comparable and incomparable pairs both occur."""
    import random
    rng = random.Random("E6 masks")
    rs = system("E6")
    pos = [i for i in range(rs.num_roots) if rs.is_positive(i)]
    neg = [i for i in range(rs.num_roots) if not rs.is_positive(i)]
    family = set()
    while len(family) < 40:
        bits = sum(1 << i for i in rng.sample(pos, 30) + rng.sample(neg, 6))
        for _ in range(3):
            family.add(bits)
            bits &= ~sum(1 << i for i in rng.sample(pos, 4))
            bits |= sum(1 << i for i in rng.sample(neg, 4))
    family = [RootSet(rs, b) for b in sorted(family)]
    above = _check_order_masks(family)
    assert any(m & (m - 1) for m in above)


def test_order_masks_match_weak_le_on_b4_posets():
    """A seeded B4 posets subfamily of 90 members, with Phi+ and Phi-, so
    each mask is wider than a machine word."""
    import random
    rs = system("B4")
    posets = enumerate_posets(rs)
    family = canonical_sort(random.Random("B4 masks").sample(posets, 88)
                            + [RootSet.positive_roots(rs), RootSet.negative_roots(rs)])
    above = _check_order_masks(family)
    assert above[0] == (1 << 90) - 1
    assert all(a >> 89 for a in above)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_verify_lattice_matches_naive_oracle_on_bounded_families(label):
    """Seeded random subfamilies of the posets with Phi+ and Phi- added are
    bounded, so the cover test decides them; every report field agrees
    with the oracle, and both lattices and non-lattices occur."""
    import random
    rng = random.Random("bounded " + label)
    rs = system(label)
    ends = [RootSet.positive_roots(rs), RootSet.negative_roots(rs)]
    inner = [p for p in enumerate_posets(rs) if p not in ends]
    outcomes = set()
    for trial in range(40):
        family = rng.sample(inner, rng.randint(0, min(22, len(inner)))) + ends
        for formula in (None, Level.POSETS):
            want = naive_lattice_report(family, formula)
            rep = verify_lattice(family, formula)
            assert _report_fields(rep) == want[:6], (label, trial, formula)
            outcomes.add(rep.is_lattice)
    assert outcomes == {True, False}


def test_verify_lattice_a4_closed():
    """Table 1's 6,942 closed sets of A4 form a lattice, not a graded one."""
    members = level_members_dfs(system("A4"), Level.CLOSED)
    rep = verify_lattice(members, cap=len(members))
    assert rep.family_size == 6942
    assert rep.is_lattice and not rep.graded
    assert rep.formula_matches_bruteforce is None and rep.witness is None


@pytest.mark.parametrize("label,size", [("A4", 4231), ("D4", 12_361)])
def test_verify_lattice_rank4_posets(label, size):
    """The posets of A4 and D4 form a graded lattice; the cover count from
    the cover graph equals the count from the posets cover formulas.  On
    A4 the posets formulas give every meet and join (D4 takes 18 s)."""
    formula = Level.POSETS if label == "A4" else None
    members = enumerate_posets(system(label))
    rep = verify_lattice(members, formula, cap=len(members))
    assert rep.family_size == size
    assert rep.is_lattice and rep.graded and rep.witness is None
    assert rep.formula_matches_bruteforce is (None if formula is None else True)
    assert rep.cover_count == sum(len(covers(Level.POSETS, r)) for r in members)
