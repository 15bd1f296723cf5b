import itertools
import random

import pytest

from rootposets import rootsys
from rootposets.coeff import Coeff, PSI
from rootposets.errors import ConfigurationError
from rootposets.rootsys import build_from_label, build_root_system, parse_system_label

from conftest import system
from oracles import pairing, reflect, root_tables_reference

CRYSTAL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


@pytest.mark.parametrize("label,positives", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10),
    ("B2", 4), ("B3", 9), ("C3", 9), ("B4", 16),
    ("D4", 12), ("G2", 6), ("F4", 24), ("H2", 5), ("H3", 15),
    ("E6", 36), ("E7", 63), ("E8", 120),
])
def test_positive_root_counts(label, positives):
    assert system(label).num_positive == positives


def test_a2_example():
    rs = system("A2")
    assert rs.num_roots == 6
    simple = rs.simple_indices()
    k = rs.root_sum(simple[0], simple[1])
    assert k is not None
    assert rs.roots[k].coords == (Coeff(1), Coeff(1))


def test_a3_weyl_order():
    assert system("A3").weyl_order() == 24


def test_h3_has_golden_root():
    rs = system("H3")
    assert rs.num_roots == 30
    assert not rs.crystallographic
    # the I2(5) subsystem root psi a1 + psi a2 sits inside H3
    assert (PSI, PSI, Coeff(0)) in rs.index_of_coords


def test_root_sum_basics():
    rs = system("A2")
    a1, a2 = rs.simple_indices()
    assert rs.root_sum(a1, rs.neg(a1)) is None
    assert rs.root_sum(a1, a2) is not None


def test_h3_negative_inner_product_without_sum():
    rs = system("H3")
    a1, a2 = rs.simple_indices()[:2]
    assert rs.inner(a1, a2).sign() < 0
    assert rs.neg(a1) != a2
    assert rs.root_sum(a1, a2) is None


def test_pairing_examples():
    rs = system("A2")
    a1, a2 = rs.simple_indices()
    assert pairing(rs, a1, a1) == Coeff(2)
    assert pairing(rs, a1, a2) == Coeff(-1)


def test_crystallographic_pairings_are_small_integers():
    values = set()
    for label in CRYSTAL_LABELS:
        rs = system(label)
        for i in range(rs.num_roots):
            for j in range(rs.num_roots):
                p = pairing(rs, i, j)
                assert p.is_integer()
                values.add(p.as_int())
    assert values <= {-3, -2, -1, 0, 1, 2, 3}
    assert {-3, 3} <= values  # G2 realizes the extremes


def test_pairing_on_simple_roots_is_cartan(b2):
    simple = b2.simple_indices()
    for i, si in enumerate(simple):
        for j, sj in enumerate(simple):
            assert pairing(b2, si, sj) == b2.cartan[i][j]


def test_reflection_examples():
    rs = system("A2")
    a1, a2 = rs.simple_indices()
    assert reflect(rs, a1, a1) == rs.neg(a1)
    k = reflect(rs, a1, a2)
    assert rs.roots[k].coords == (Coeff(1), Coeff(1))


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "H3"])
def test_reflection_is_an_involution(label):
    rs = system(label)
    for m in range(rs.num_roots):
        for t in range(rs.num_roots):
            assert reflect(rs, m, reflect(rs, m, t)) == t


REFERENCE_LABELS = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(2, 6)] + ["D4", "D5", "D6", "E6", "E7", "F4",
                                        "G2", "H2", "H3"]
    + [f"I2({m})" for m in (3, 4, 5, 6)])


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_tables_match_coeff_reference(label):
    """The int-vector build gives the Coeff computation's roots, order and
    tables, and each simple reflection permutes the roots as the Coeff
    reflection does."""
    rs = system(label)
    ref = root_tables_reference(*parse_system_label(label))
    assert [r.coords for r in rs.roots] == ref.coords
    assert [r.height for r in rs.roots] == ref.heights
    assert rs.literals == ref.literals
    assert rs.sum_table == ref.sum_table
    assert rs.int_coords == ref.int_coords
    assert rs.index_of_coords == ref.index_of_coords
    if rs.int_coords is not None:
        assert rs.index_of_int_coords == {
            c: k for k, c in enumerate(ref.int_coords)}
    for i, s in enumerate(rs.simple_indices()):
        assert rs.simple_reflections[i] == tuple(
            reflect(rs, s, t) for t in range(rs.num_roots))


def test_e8_highest_root_and_simple_reflections():
    rs = system("E8")
    assert rs.roots[rs.num_positive - 1].coords == tuple(
        map(Coeff, [2, 3, 4, 6, 5, 4, 3, 2]))
    everything = tuple(range(rs.num_roots))
    for i, s in enumerate(rs.simple_indices()):
        perm = rs.simple_reflections[i]
        assert tuple(perm[t] for t in perm) == everything
        assert perm[s] == rs.neg(s) and perm[rs.neg(s)] == s


def test_cartan_entry_outside_z_psi_is_refused(monkeypatch):
    def thirds(family, rank, m=None):
        a = [[Coeff(2), -Coeff(1)], [-Coeff(1), Coeff(2)]]
        a[0][1] = Coeff(1, 2) / 3
        return a
    monkeypatch.setattr(rootsys, "cartan_matrix", thirds)
    with pytest.raises(ConfigurationError, match="not in Z") as err:
        build_root_system("A", 2)
    assert err.value.__context__ is None  # raised by the check, not caught


@pytest.mark.parametrize("label", CRYSTAL_LABELS + ["H2", "H3"])
def test_system_invariants(label):
    rs = system(label)
    n = rs.num_positive
    # no two distinct positive roots proportional: coords are unique and
    # the positive cone contains exactly one multiple of each
    seen_rays = set()
    for i in range(n):
        coords = rs.roots[i].coords
        first = next(c for c in coords if c)
        ray = tuple(c / first for c in coords)
        assert ray not in seen_rays
        seen_rays.add(ray)
    # negation indexing
    for i in range(rs.num_roots):
        assert rs.neg(rs.neg(i)) == i
        ci = rs.roots[i].coords
        cn = rs.roots[rs.neg(i)].coords
        assert all(a == -b for a, b in zip(ci, cn))
    # sum table symmetric and consistent with coordinates
    for i in range(rs.num_roots):
        for j in range(rs.num_roots):
            assert rs.sum_table[i][j] == rs.sum_table[j][i]
            k = rs.root_sum(i, j)
            s = tuple(a + b for a, b in zip(rs.roots[i].coords,
                                            rs.roots[j].coords))
            if k is None:
                assert s not in rs.index_of_coords
            else:
                assert rs.roots[k].coords == s
    # positive roots have positive height, and |h| > 0 everywhere
    for i in range(rs.num_roots):
        h = rs.roots[i].height
        assert (h.sign() > 0) == rs.is_positive(i)
        assert abs(h).sign() > 0


@pytest.mark.parametrize("label", CRYSTAL_LABELS)
def test_bourbaki_sum_criterion(label):
    """Negative inner product forces the sum to be a root (crystallographic)."""
    rs = system(label)
    for i in range(rs.num_roots):
        for j in range(rs.num_roots):
            if rs.neg(i) == j:
                continue
            s = rs.inner(i, j).sign()
            if s < 0:
                assert rs.root_sum(i, j) is not None
            if s > 0 and i != j:
                diff = tuple(a - b for a, b in zip(rs.roots[i].coords,
                                                   rs.roots[j].coords))
                assert diff in rs.index_of_coords


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_two_of_three_subsums(label):
    """Summable no-vanishing-subsum triples have at least two root subsums."""
    rs = system(label)
    idx = range(rs.num_roots)
    for a, b, c in itertools.combinations_with_replacement(idx, 3):
        if rs.neg(a) in (b, c) or rs.neg(b) == c:
            continue
        total = _coord_total(rs, (a, b, c))
        if total not in rs.index_of_coords:
            continue
        present = sum(1 for x, y in ((a, b), (a, c), (b, c))
                      if rs.root_sum(x, y) is not None)
        assert present >= 2, (label, a, b, c)


def _coord_total(rs, indices):
    total = None
    for i in indices:
        c = rs.roots[i].coords
        total = c if total is None else tuple(x + y for x, y in zip(total, c))
    return total


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_filtration_of_summable_sets(label):
    """Sampled summable no-vanishing-subsum sets admit chains from any root."""
    rs = system(label)
    rng = random.Random(7)
    found = 0
    attempts = 0
    while found < 60 and attempts < 40000:
        attempts += 1
        size = rng.randint(3, 5)
        sample = rng.sample(range(rs.num_roots), size)
        if not _no_vanishing_subsum(rs, sample):
            continue
        if _coord_total(rs, sample) not in rs.index_of_coords:
            continue
        found += 1
        for start in sample:
            assert _chain_exists(rs, sample, start), (label, sample, start)
    assert found >= 20


def _no_vanishing_subsum(rs, sample):
    for k in range(1, len(sample) + 1):
        for sub in itertools.combinations(sample, k):
            total = _coord_total(rs, sub)
            if all(c.sign() == 0 for c in total):
                return False
    return True


def _chain_exists(rs, sample, start):
    # grow from {start} one element at a time, every partial sum a root
    state = {(frozenset([start]), start)}
    frontier = [(frozenset([start]), start)]
    full = frozenset(sample)
    while frontier:
        used, current = frontier.pop()
        if used == full:
            return True
        for x in sample:
            if x in used:
                continue
            nxt = rs.root_sum(current, x)
            if nxt is None:
                continue
            key = (used | {x}, nxt)
            if key not in state:
                state.add(key)
                frontier.append(key)
    return False


def test_h2_flag_failure():
    """The I2(5) four-root set is summable but admits no summable 2-subset."""
    rs = system("H2")
    lookup = rs.index_of_coords
    quad = [
        lookup[(Coeff(1), Coeff(0))],
        lookup[(Coeff(0), Coeff(1))],
        lookup[(PSI, PSI)],
        rs.neg(lookup[(Coeff(1), PSI)]),
    ]
    assert _coord_total(rs, quad) in rs.index_of_coords
    for pair in itertools.combinations(quad, 2):
        assert _coord_total(rs, pair) not in rs.index_of_coords
    for triple in itertools.combinations(quad, 3):
        assert _coord_total(rs, triple) not in rs.index_of_coords


def test_invalid_configurations():
    with pytest.raises(ConfigurationError):
        build_root_system("G", 3)
    with pytest.raises(ConfigurationError):
        build_root_system("A", 9)
    with pytest.raises(ConfigurationError):
        build_root_system("I", 2, m=7)
    with pytest.raises(ConfigurationError):
        build_from_label("Q3")


def test_i2_aliases():
    assert build_root_system("I", 2, m=5).num_positive == 5
    assert build_root_system("I", 2, m=6).num_positive == 6


def test_degrees_give_group_orders():
    for label, order in [("A3", 24), ("B3", 48), ("D4", 192),
                         ("G2", 12), ("F4", 1152), ("H3", 120)]:
        assert system(label).weyl_order() == order
