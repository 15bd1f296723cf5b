"""Independent reference implementations the tests compare the library to.

Each one takes the slow, literal route: the N-span by lattice reachability,
the posets by a sign-vector sweep, lattice bounds and covers straight from
their definitions, the level formulas with a full classification before
each deletion, the Cambrian projections by scanning every sortable
element, group products by composing root permutations, weak order
meets, joins and intervals by scanning W, the roots
and their tables by Coeff arithmetic, the families one RootSet per
element, pair, coset or class.  None of them is used by the library.
"""

from types import SimpleNamespace

from rootposets.cambrian import (
    cambrian_classes, coxeter_element, facial_cambrian_classes,
)
from rootposets.coeff import Coeff
from rootposets.errors import UnsupportedOperationError
from rootposets.rootset import RootSet, classify, closure_bits, closure_deletion
from rootposets.rootsys import cartan_matrix
from rootposets.weakorder import Level, canonical_sort, weak_le
from rootposets.weyl import WeylElement, enumerate_cosets, interval_poset


def root_tables_reference(family, rank, m=None):
    """A system's roots and tables from Coeff coordinate tuples.

    The simple roots are closed under s_i(v) = v - <v, alpha_i^vee> alpha_i
    in Q(psi), the positive roots sorted by (height, coordinates) and
    their negatives placed N later, and every pair summed.  Returns a
    namespace of coords, heights, literals, sum_table, int_coords (None
    off the crystallographic types) and index_of_coords.
    """
    cartan = cartan_matrix(family, rank, m)
    zero = Coeff(0)
    simples = [tuple(Coeff(int(j == i)) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for coords in frontier:
            for i in range(rank):
                pair = sum((cartan[i][j] * coords[j] for j in range(rank)), zero)
                image = coords[:i] + (coords[i] - pair,) + coords[i + 1:]
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    positives = sorted((cs for cs in seen if any(c.sign() > 0 for c in cs)),
                       key=lambda cs: (sum(cs, zero), cs))
    coords = positives + [tuple(-c for c in cs) for cs in positives]
    index = {cs: k for k, cs in enumerate(coords)}
    crystallographic = all(c.is_integer() for row in cartan for c in row)
    return SimpleNamespace(
        coords=coords,
        heights=[sum(cs, zero) for cs in coords],
        literals=tuple(f"{sign}[{','.join(map(str, cs))}]"
                       for sign in "+-" for cs in positives),
        sum_table=[[index.get(tuple(a + b for a, b in zip(ci, cj)), -1)
                    for cj in coords] for ci in coords],
        int_coords=(tuple(tuple(c.as_int() for c in cs) for cs in coords)
                    if crystallographic else None),
        index_of_coords=index)


def pairing(system, i, j):
    """Cartan pairing <alpha_i^vee, alpha_j> = 2 (a_i, a_j) / (a_i, a_i)."""
    return 2 * system.inner(i, j) / system.inner(i, i)


def reflect(system, mirror, target):
    """Index of s_mirror(target), by Coeff arithmetic on the coordinates."""
    p = pairing(system, mirror, target)
    image = tuple(t - p * c for t, c in zip(system.roots[target].coords,
                                            system.roots[mirror].coords))
    return system.index_of_coords[image]


def nspan_oracle(rset, slack=1):
    """NR intersect Phi via bounded lattice reachability.

    Explores the monoid generated by R inside a coordinate box wide
    enough (Steinitz-style reordering bound) that some addition order
    reaching any representable root stays inside.  Tests compare this
    against the pairwise fixpoint, so an insufficient box would surface
    as a mismatch there rather than pass silently.
    """
    system = rset.system
    if not system.crystallographic:
        raise UnsupportedOperationError("oracle requires integer coordinates")
    rank = system.rank
    gens = [system.int_coords[i] for i in rset]
    if not gens:
        return RootSet(system, 0)
    cmax = max(abs(c) for coords in system.int_coords for c in coords)
    bound = cmax * (1 + slack * rank)
    seen = {tuple([0] * rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for point in frontier:
            for g in gens:
                q = tuple(p + c for p, c in zip(point, g))
                if q in seen or any(abs(c) > bound for c in q):
                    continue
                seen.add(q)
                nxt.append(q)
        frontier = nxt
    bits = 0
    lookup = system.index_of_int_coords
    for point in seen:
        k = lookup.get(point)
        if k is not None:
            bits |= 1 << k
    return RootSet(system, bits)


def poset_sweep(system):
    """All posets by the 3^N sign-vector sweep; shares no code with the DFS."""
    n = system.num_positive
    out = []
    for code in range(3 ** n):
        bits = 0
        c = code
        for i in range(n):
            c, s = divmod(c, 3)
            if s == 1:
                bits |= 1 << i
            elif s == 2:
                bits |= 1 << (i + n)
        r = RootSet(system, bits)
        if classify(r).closed:
            out.append(r)
    return out


def lattice_op_reference(system, level, direction, rbits, sbits):
    """A level's meet or join, one pair at a time with no memo.

    The closure and the deletion are applied as the formula reads; the
    fast deletion is chosen only when ``classify`` finds the whole
    intermediate set semiclosed.
    """
    pos, neg = system.pos_mask, system.neg_mask
    if direction == "meet":
        grown, kept, side = (rbits | sbits) & pos, rbits & sbits & neg, "negative"
    else:
        grown, kept, side = (rbits | sbits) & neg, rbits & sbits & pos, "positive"
    if level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        grown = closure_bits(system, grown)
    rset = RootSet(system, grown | kept)
    if level in (Level.CLOSED, Level.POSETS):
        fast = system.crystallographic and classify(rset).semiclosed
        rset = closure_deletion(rset, side, "fast" if fast else "exhaustive")
    return rset.bits


def generator_perms(system):
    """The simple reflections as permutations of the root indices."""
    return [tuple(reflect(system, s, t) for t in range(system.num_roots))
            for s in system.simple_indices()]


def compose(p, q):
    """The permutation p after q: t -> p[q[t]]."""
    return tuple(p[t] for t in q)


def weak_extremum_reference(group, a, b, direction):
    """The weak order meet (join) of a and b by scanning W: the longest
    common lower bound (the shortest common upper bound), asserted to lie
    above (below) every common bound."""
    if direction == "meet":
        bounds = [w for w in group.elements if w.weak_le(a) and w.weak_le(b)]
        best = max(bounds, key=lambda w: w.length)
        assert all(w.weak_le(best) for w in bounds)
    else:
        bounds = [w for w in group.elements if a.weak_le(w) and b.weak_le(w)]
        best = min(bounds, key=lambda w: w.length)
        assert all(best.weak_le(w) for w in bounds)
    return best


def interval_reference(group, lo, hi):
    """The weak order interval [lo, hi] by scanning W, in id order."""
    return [w for w in group.elements if lo.weak_le(w) and w.weak_le(hi)]


def coset_poset_reference(group, coset):
    """R(xW_I) = x(Phi^+ minus Phi_I^+), by applying the permutation of x."""
    span_bits, _ = group.parabolic_data(coset.subset)
    perm = coset.x.perm
    return sum(1 << perm[i] for i in range(group.system.num_positive)
               if not (span_bits >> i) & 1)


def descent_classes(group):
    """Map A (frozenset of simple positions) -> (lo, hi, members) for the
    elements with des = A; WeylGroup.interval_classes checks that members
    is the weak order interval from lo, its shortest, to hi, its longest.
    """
    classes = group.interval_classes(WeylElement.descents)
    return {key: (members[0], members[-1], members) for key, members in classes.items()}


def family_reference(group, family):
    """A family's posets built one set at a time, each once, in canonical
    order: element posets, interval_poset per pair, coset posets by
    permutation, COFP as the intersection of each facial class's coset
    posets, and the boolean posets as one closure per subset, two per
    BOIP pair."""
    system = group.system
    tag = family.normalized_tag()
    if tag in ("COEP", "COIP", "COFP"):
        c = coxeter_element(group, family.coxeter or "lin")
    n = system.rank
    subsets = [frozenset(i for i in range(n) if (m >> i) & 1)
               for m in range(1 << n)]

    def boolean(subset):
        simples = group.simple_root_indices
        return closure_bits(system, sum(
            1 << (system.neg(s) if i in subset else s)
            for i, s in enumerate(simples)))

    if tag == "WOEP":
        found = [w.poset_bits for w in group.elements]
    elif tag == "WOIP":
        found = [interval_poset(group, v, w).bits for v in group.elements
                 for w in group.elements if v.weak_le(w)]
    elif tag == "WOFP":
        found = [coset_poset_reference(group, co) for co in enumerate_cosets(group)]
    elif tag == "COEP":
        found = [interval_poset(group, cl.bottom, cl.top).bits
                 for cl in cambrian_classes(c)]
    elif tag == "COIP":
        classes = cambrian_classes(c)
        found = [interval_poset(group, x.bottom, y.top).bits
                 for x in classes for y in classes if x.bottom.weak_le(y.bottom)]
    elif tag == "COFP":
        found = []
        for fc in facial_cambrian_classes(c, enumerate_cosets(group)):
            bits = system.full_mask
            for co in fc.members:
                bits &= coset_poset_reference(group, co)
            found.append(bits)
    elif tag == "BOEP":
        found = [boolean(a) for a in subsets]
    else:
        found = [(boolean(a) & system.neg_mask) | (boolean(b) & system.pos_mask)
                 for a in subsets for b in subsets if a <= b]
    return canonical_sort(RootSet(system, bits) for bits in set(found))


def linear_extensions(rset, group):
    """All group elements w with R contained in R(w) = w(Phi^+).

    Nonempty for every poset: maximal extensions of a poset are exactly
    the element posets.
    """
    bits = rset.bits
    return [w for w in group.elements if bits & ~w.poset_bits == 0]


def cambrian_projection_reference(group, word):
    """The Cambrian tables of the Coxeter element ``word``, by brute force.

    w is sortable when the blocks of its c-sorting word are nested, and
    antisortable when w w0 is sortable for the reversed word.  Products
    compose root permutations.  pi_down(w) is found by scanning every
    sortable element below w for one above all the others (pi_up dually,
    over the antisortables above w).  The c-order is the inversion
    sequence of the c-sorting word of w0, built by reflecting root
    indices.  Returns (sortable ids, antisortable ids, down, up, c_order).
    """
    system = group.system
    simples = group.simple_root_indices
    gens = generator_perms(system)
    by_perm = {w.perm: w for w in group.elements}

    def sorting_word(letters_of_c, w):
        letters, blocks = [], []
        while w.length:
            block = set()
            for i in letters_of_c:
                if (w.inv_bits >> simples[i]) & 1:
                    w = by_perm[compose(gens[i], w.perm)]
                    letters.append(i)
                    block.add(i)
            blocks.append(block)
        return letters, blocks

    def nested(letters_of_c, w):
        _, blocks = sorting_word(letters_of_c, w)
        return all(b <= a for a, b in zip(blocks, blocks[1:]))

    els = group.elements
    w0 = max(els, key=lambda w: w.length)
    sortable = [w.id for w in els if nested(word, w)]
    anti = [w.id for w in els
            if nested(word[::-1], by_perm[compose(w.perm, w0.perm)])]

    def extremum(ids, in_range, above):
        inside = [els[i] for i in ids if in_range(els[i])]
        best = [x for x in inside
                if all((y.weak_le(x) if above else x.weak_le(y)) for y in inside)]
        assert len(best) == 1
        return best[0].id

    down = [extremum(sortable, lambda s, w=w: s.weak_le(w), True) for w in els]
    up = [extremum(anti, lambda a, w=w: w.weak_le(a), False) for w in els]

    letters, _ = sorting_word(word, w0)
    order = []
    for k, q in enumerate(letters):
        root = simples[q]
        for p in reversed(letters[:k]):
            root = reflect(system, simples[p], root)
        order.append(root)
    return sortable, anti, down, up, order


def naive_lattice_report(family, formula=None):
    """verify_lattice's fields, from the definitions and weak_le alone.

    The glb of a pair is the common lower bound above every common lower
    bound, the lub the mirror image; j is covered by i when nothing lies
    strictly between.  Pairs are visited in canonical order, which fixes
    the witness.  Returns (family_size, is_lattice,
    formula_matches_bruteforce, graded, witness, cover_count, covers).
    """
    fam = canonical_sort(family)
    k = len(fam)
    le = [[weak_le(a, b) for b in fam] for a in fam]
    index = {r.bits: i for i, r in enumerate(fam)}
    is_lattice, witness = True, None
    formula_ok = None if formula is None else True
    for i in range(k):
        for j in range(i + 1, k):
            lows = [x for x in range(k) if le[x][i] and le[x][j]]
            highs = [x for x in range(k) if le[i][x] and le[j][x]]
            glb = next((x for x in lows if all(le[y][x] for y in lows)), None)
            lub = next((x for x in highs if all(le[x][y] for y in highs)), None)
            pair_ok = glb is not None and lub is not None
            bad = not pair_ok
            if formula is not None:
                system, a, b = fam[i].system, fam[i].bits, fam[j].bits
                meet = lattice_op_reference(system, formula, "meet", a, b)
                join = lattice_op_reference(system, formula, "join", a, b)
                if not (pair_ok and index.get(meet) == glb
                        and index.get(join) == lub):
                    formula_ok, bad = False, True
            if bad:
                is_lattice = is_lattice and pair_ok
                if witness is None:
                    witness = (fam[i], fam[j])
    covers = sorted(
        (j, i) for i in range(k) for j in range(k)
        if j != i and le[j][i]
        and not any(x not in (i, j) and le[j][x] and le[x][i] for x in range(k)))
    graded = all(fam[i].grade() - fam[j].grade() == 1 for j, i in covers)
    return (k, is_lattice, formula_ok, graded, witness, len(covers), covers)
