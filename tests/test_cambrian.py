import itertools

import pytest

from rootposets import cambrian as camb
from rootposets.cambrian import (
    _cover_projection, cambrian_classes, coxeter_element, coxeter_word,
    facial_cambrian_classes, snake_decomposable_roots,
)
from rootposets.errors import (
    ContractViolationError, InvariantError, UnsupportedOperationError,
)
from rootposets.rootset import RootSet, parse_set_literal
from rootposets.weyl import enumerate_cosets

from conftest import group, system
from oracles import (
    cambrian_projection_reference, from_word, is_c_aligned,
    snake_decomposable_reference, sorting_word,
)


def cox(label, spec="lin"):
    return coxeter_element(group(label), spec)


def test_coxeter_element_specs(a3):
    g = group("A3")
    assert coxeter_element(g, "lin").word == (0, 1, 2)
    assert coxeter_element(g, "bip").word == (0, 2, 1)
    assert coxeter_element(g, "s2s1s3").word == (1, 0, 2)
    for bad in ("s1s1s2", "s", "s1s2s", "ss1s2", "s1s2x3"):
        with pytest.raises(ContractViolationError):
            coxeter_element(g, bad)
    # one element per group and word, whatever the spec
    assert coxeter_element(g, "lin") is coxeter_element(g, "s1s2s3")
    assert coxeter_element(g, "bip") is coxeter_element(g, [0, 2, 1])
    # B/C linear convention starts at the special vertex
    assert coxeter_element(group("B3"), "lin").word == (2, 1, 0)


def test_coxeter_word_needs_no_group():
    """Words are read and checked from the system alone: E6 is over the
    group cap, so building its group would be refused.  An index is ASCII
    digits: a superscript two or an Arabic-Indic one is refused as a bad
    word, not read as an index.  Spaces inside a word are allowed."""
    e6 = system("E6")
    assert coxeter_word(e6, "lin") == tuple(range(6))
    assert coxeter_word(e6, "s2s1s3s4s5s6") == (1, 0, 2, 3, 4, 5)
    assert coxeter_word(e6, " s2 s1s3 s4s5s6 ") == (1, 0, 2, 3, 4, 5)
    for bad in ("x", "s1s2", "s1s2s3s4s5s7", "s\u00b2s1s3s4s5s6",
                "s\u0662s1s3s4s5s6"):
        with pytest.raises(ContractViolationError):
            coxeter_word(e6, bad)
    assert e6._group is None


def test_sorting_word_examples(a2):
    g = group("A2")
    c = cox("A2")
    letters, blocks = sorting_word(g, c.word, g.identity)
    assert letters == [] and blocks == []
    letters, blocks = sorting_word(g, c.word, g.longest)
    assert letters == [0, 1, 0]
    assert blocks == [frozenset({0, 1}), frozenset({0})]
    s2s1 = from_word(g, [1, 0])
    letters, blocks = sorting_word(g, c.word, s2s1)
    assert blocks == [frozenset({1}), frozenset({0})]


def test_sortable_examples(a2):
    g = group("A2")
    c = cox("A2")
    assert c.sortable[g.identity.id]
    sortables = {tuple(w.word()) for w in g.elements if c.sortable[w.id]}
    assert sortables == {(), (0,), (1,), (0, 1), (0, 1, 0)}
    assert not c.sortable[from_word(g, [1, 0]).id]


@pytest.mark.parametrize("label,catalan", [
    ("A2", 5), ("B2", 6), ("G2", 8), ("A3", 14), ("A4", 42), ("B3", 20),
])
def test_sortable_counts_match_catalan(label, catalan):
    g = group(label)
    c = coxeter_element(g, "lin")
    assert sum(c.sortable) == catalan
    assert system(label).coxeter_catalan() == catalan


def test_antisortable_via_longest_element(a2):
    g = group("A2")
    c = cox("A2")
    anti = {tuple(w.word()) for w in g.elements if c.antisortable[w.id]}
    assert anti == {(), (0,), (0, 1), (1, 0), (0, 1, 0)}


def test_projections(a2):
    g = group("A2")
    c = cox("A2")
    s2s1 = from_word(g, [1, 0])
    down = g.elements[c.down[s2s1.id]]
    assert tuple(down.word()) == (1,)
    for w in g.elements:
        lo, hi = g.elements[c.down[w.id]], g.elements[c.up[w.id]]
        assert lo.weak_le(w) and w.weak_le(hi)
        if c.sortable[w.id]:
            assert lo.id == w.id
        if c.antisortable[w.id]:
            assert hi.id == w.id


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "H2", "H3", "I2(5)"])
def test_tables_match_projection_reference(label):
    """Sortables, antisortables, both projections and the c-order equal
    the brute-force scan, for lin, bip and the word s2 s3 ... sn s1."""
    g = group(label)
    n = g.system.rank
    rotated = "".join(f"s{i % n + 1}" for i in range(1, n + 1))
    for spec in ("lin", "bip", rotated):
        c = coxeter_element(g, spec)
        sortable, anti, down, up, order = cambrian_projection_reference(g, c.word)
        assert [w.id for w in g.elements if c.sortable[w.id]] == sortable
        assert [w.id for w in g.elements if c.antisortable[w.id]] == anti
        assert (c.down, c.up, c.c_order) == (down, up, order)
        assert all(c.c_position[idx] == k for k, idx in enumerate(order))


def test_cover_projection_refuses_a_non_sortable_keep_set():
    """On A2, {e, s1, s2} has no largest element below w0: the local
    check must fire."""
    g = group("A2")
    keep = [w.length <= 1 for w in g.elements]
    with pytest.raises(InvariantError):
        _cover_projection(g, keep)


class _CountingRow(list):
    reads = 0

    def __getitem__(self, key):
        _CountingRow.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_coxeter_element_reads_left_rank_times_per_element(monkeypatch, label):
    """The sortable flags read one first block per element, one left
    product per letter of c; no element is sorted in full (on B3 a full
    scan of each element and of w0 reads 225 entries, against 144)."""
    g = group(label)
    monkeypatch.setattr(_CountingRow, "reads", 0)
    monkeypatch.setattr(g, "left", [_CountingRow(row) for row in g.left])
    camb.CoxeterElement(g, coxeter_element(g, "bip").word)
    assert 0 < _CountingRow.reads <= g.system.rank * len(g.elements)


@pytest.mark.parametrize("label", ["A4", "B4", "D4", "H3"])
def test_tables_do_not_depend_on_the_word(label):
    """Every word of one Coxeter element gives the same sortable flags
    and projections, and one word per element gives the reference's.
    The c-order is left out: it may change when commuting letters of
    the word are swapped."""
    g = group(label)
    by_element = {}
    for word in itertools.permutations(range(g.system.rank)):
        c = coxeter_element(g, word)
        tables = (c.sortable, c.down, c.up)
        got = by_element.setdefault(from_word(g, word).id, tables)
        assert got == tables, word
        if got is tables:
            sortable, _, down, up, _ = cambrian_projection_reference(g, word)
            assert [w for w, keep in enumerate(c.sortable) if keep] == sortable
            assert (c.down, c.up) == (down, up)
    assert len(by_element) == 2 ** (g.system.rank - 1)


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "B3"])
def test_projections_are_order_preserving_and_idempotent(label):
    g = group(label)
    for spec in ("lin", "bip"):
        c = coxeter_element(g, spec)
        down = [g.elements[d] for d in c.down]
        up = [g.elements[u] for u in c.up]
        for w in g.elements:
            assert c.down[down[w.id].id] == down[w.id].id
            assert c.up[up[w.id].id] == up[w.id].id
        for v in g.elements:
            for w in g.elements:
                if v.weak_le(w):
                    assert down[v.id].weak_le(down[w.id])
                    assert up[v.id].weak_le(up[w.id])


@pytest.mark.parametrize("label,classes", [("A1", 2), ("A2", 5), ("B2", 6)])
def test_class_counts(label, classes):
    g = group(label)
    c = coxeter_element(g, "lin")
    assert len(cambrian_classes(c)) == classes


def test_classes_partition_and_are_intervals(b2):
    g = group("B2")
    c = cox("B2")
    classes = cambrian_classes(c)
    seen = set()
    for cl in classes:
        assert c.sortable[cl.bottom.id]
        assert c.antisortable[cl.top.id]
        for w in cl.members:
            assert cl.bottom.weak_le(w) and w.weak_le(cl.top)
            assert w.id not in seen
            seen.add(w.id)
    assert len(seen) == len(g.elements)


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_cambrian_order_isomorphism(label):
    """X <= Y, bottom comparison and top comparison all agree."""
    g = group(label)
    c = coxeter_element(g, "lin")
    classes = cambrian_classes(c)
    for x in classes:
        for y in classes:
            bot = x.bottom.weak_le(y.bottom)
            top = x.top.weak_le(y.top)
            linked = any(a.weak_le(b) for a in x.members for b in y.members)
            assert bot == top == linked


def test_c_root_order_example(a2):
    c = cox("A2")
    rs = system("A2")
    order = c.c_order
    coords = [tuple(str(x) for x in rs.roots[i].coords) for i in order]
    assert coords == [("1", "0"), ("1", "1"), ("0", "1")]


def test_alignment_examples(a2):
    c = cox("A2")
    assert is_c_aligned(c, RootSet(a2, 0))
    # {a2, a1+a2} is aligned for c = s1s2: a1 <c a1+a2 needs a1 when
    # a1+a2 = a1 + a2 is present... the sum a1+a2 is present and a1 <c a2,
    # so a1 must be in; hence not aligned
    r = parse_set_literal(a2, "+[0,1],+[1,1]")
    assert not is_c_aligned(c, r)
    assert is_c_aligned(c, parse_set_literal(a2, "+[1,0],+[1,1]"))
    with pytest.raises(ContractViolationError):
        is_c_aligned(c, parse_set_literal(a2, "-[1,0]"))


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "A3", "C3", "G2", "D4"])
@pytest.mark.parametrize("spec", ["lin", "bip"])
def test_aligned_iff_sortable(label, spec):
    """The alignment masks against the first-block recursion behind
    c.sortable."""
    g = group(label)
    c = coxeter_element(g, spec)
    rs = g.system
    for w in g.elements:
        assert c.sortable[w.id] == is_c_aligned(c, RootSet(rs, w.inv_bits))


@pytest.mark.parametrize("label", ["H2", "H3", "I2(5)"])
def test_alignment_refuses_noncrystallographic(label):
    """Off the crystallographic types sum-alignment is not sortability
    (H2 has 10 sum-aligned inversion sets against 7 sortables), so the
    test is refused."""
    c = cox(label)
    with pytest.raises(UnsupportedOperationError):
        is_c_aligned(c, RootSet(c.group.system, 0))


def test_snake_trivial_cases(a2):
    c = cox("A2")
    r = RootSet(a2, a2.pos_mask)
    assert set(range(a2.num_positive)) <= snake_decomposable_roots(c, r)
    member = parse_set_literal(a2, "+[1,1]")
    assert next(iter(member)) in snake_decomposable_roots(c, member)


def test_snake_separates_coep_from_coip(a2):
    """Every root decomposes over every Cambrian element poset; some root
    fails for at least one interval poset outside that family."""
    from rootposets.families import FamilyId, construct_family
    g = group("A2")
    c = cox("A2")
    coep = {r.bits for r in construct_family(g, FamilyId("COEP", c))}
    coip = construct_family(g, FamilyId("COIP", c))
    for r in coip:
        complete = len(snake_decomposable_roots(c, r)) == a2.num_roots
        assert complete == (r.bits in coep)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_snake_decomposable_matches_reference(label):
    """One search per maximal snake multiset finds what one search per
    snake and root finds, on every COIP(lin) and COIP(bip) member."""
    from rootposets.families import FamilyId, construct_family
    g = group(label)
    for spec in ("lin", "bip"):
        c = coxeter_element(g, spec)
        for r in construct_family(g, FamilyId("COIP", c)):
            want = snake_decomposable_reference(c, r)
            assert snake_decomposable_roots(c, r) == want, (spec, r)


def test_facial_class_counts(a2, b2):
    for label, expected in (("A2", 11), ("B2", 13)):
        g = group(label)
        c = coxeter_element(g, "lin")
        classes = facial_cambrian_classes(c, enumerate_cosets(g))
        assert len(classes) == expected


def test_facial_classes_restricted_to_vertices(a2):
    """Vertex cosets (I empty) group exactly like element classes."""
    g = group("A2")
    c = cox("A2")
    classes = facial_cambrian_classes(c, enumerate_cosets(g))
    vertex_groups = []
    for fc in classes:
        verts = [co for co in fc.members if not co.subset]
        if verts:
            vertex_groups.append(frozenset(co.x.id for co in verts))
    element_groups = {frozenset(w.id for w in cl.members)
                      for cl in cambrian_classes(c)}
    assert set(vertex_groups) == element_groups
    assert len(vertex_groups) == len(element_groups)
