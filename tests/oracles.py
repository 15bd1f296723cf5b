"""Independent reference implementations the tests compare the library to.

Each one takes the slow, literal route: the N-span by lattice reachability,
the posets by a sign-vector sweep, lattice bounds and covers straight from
their definitions, the level formulas with a full classification before
each deletion, the closure deletion by a walk on Coeff coordinates, the Cambrian projections by scanning every sortable
element, group products by composing root permutations, weak order
meets, joins and intervals by scanning W, the roots
and their tables by Coeff arithmetic, the families one RootSet per
element, pair, coset or class, the snake decompositions one search per
snake and root, the closed sets by one backtracking over every root
with a leaf per set, the closed and semiclosed flags by three sweeps.
Beside them sit small helpers only the tests need: the integer queries
on Coeff, an element from a word, the boolean element posets, and the
meets and joins inside WOIP, COIP and BOIP from their interval
components.
None of them is used by the library.
"""

from functools import cache, partial
from types import SimpleNamespace

from rootposets.cambrian import (
    cambrian_classes, coxeter_element, facial_cambrian_classes,
)
from rootposets.coeff import Coeff
from rootposets.errors import ContractViolationError, UnsupportedOperationError
from rootposets.families import _boolean_bits
from rootposets.rootset import (
    RootSet, _indices, classify, closure_bits, deletion_bits,
)
from rootposets.weakorder import Level, canonical_sort, weak_le
from rootposets.weyl import (
    WeylElement, enumerate_cosets, interval_bits, interval_poset,
)


def root_tables_reference(cartan):
    """A system's roots from Coeff coordinate tuples, for a Cartan matrix.

    The simple roots are closed under s_i(v) = v - <v, alpha_i^vee> alpha_i
    in Q(psi), the positive roots sorted by (height, coordinates) and
    their negatives placed N later.  Returns a namespace of coords,
    heights, literals, int_coords (the integer parts of the coordinates,
    then their psi parts off the crystallographic types) and
    index_of_coords.
    """
    rank = len(cartan)
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
    crystallographic = all(is_integer(c) for row in cartan for c in row)
    return SimpleNamespace(
        coords=coords,
        heights=[sum(cs, zero) for cs in coords],
        literals=tuple(f"{sign}[{','.join(map(str, cs))}]"
                       for sign in "+-" for cs in positives),
        int_coords=tuple(
            tuple(as_int(c) for c in cs) if crystallographic
            else tuple(int(c.a) for c in cs) + tuple(int(c.b) for c in cs)
            for cs in coords),
        index_of_coords={cs: k for k, cs in enumerate(coords)})


def sum_table_reference(vectors):
    """sum_table[i][j]: the index of vectors[i] + vectors[j], summed entry
    by entry (Coeffs or ints), or -1 when the sum is not among them."""
    index = {v: k for k, v in enumerate(vectors)}
    return [[index.get(tuple(a + b for a, b in zip(u, v)), -1) for v in vectors]
            for u in vectors]


def is_rational(c):
    """Whether the Coeff c = a + b psi lies in Q."""
    return c.b == 0


def is_integer(c):
    """Whether the Coeff c is a rational integer."""
    return c.b == 0 and c.a.denominator == 1


def as_int(c):
    """The Coeff c as an int; ValueError when it is not a rational integer."""
    if not is_integer(c):
        raise ValueError(f"{c} is not a rational integer")
    return int(c.a)


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
    as a mismatch there rather than pass silently.  A point is one int in
    mixed radix, each coordinate padded by the largest root coordinate so
    that a step from inside the box never carries into the next one, and
    the box and the points reached are byte tables over those ints.
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
    radix = 2 * (bound + cmax) + 1

    def code(coords):
        return sum((c + bound + cmax) * radix ** d for d, c in enumerate(coords))

    inside = b"\1"
    for _ in range(rank):
        pad = bytes(cmax * len(inside))
        inside = pad + inside * (2 * bound + 1) + pad
    origin = code([0] * rank)
    steps = [code(g) - origin for g in gens]
    seen = bytearray(len(inside))
    seen[origin] = 1
    frontier = [origin]
    while frontier:
        nxt = []
        for point in frontier:
            for step in steps:
                q = point + step
                if inside[q] and not seen[q]:
                    seen[q] = 1
                    nxt.append(q)
        frontier = nxt
    bits = 0
    for k, coords in enumerate(system.int_coords):
        if seen[code(coords)]:
            bits |= 1 << k
    return RootSet(system, bits)


def deletion_coeff_reference(system, bits, side):
    """closure_deletion by the exhaustive walk on Coeff coordinates: a
    victim goes when alpha + N(sources) meets Phi \\ R.  The sources
    share one sign, so the height moves one way along the walk, which is
    pruned at the largest root height."""
    if side == "negative":
        victims, sources = bits & system.neg_mask, bits & system.pos_mask
    else:
        victims, sources = bits & system.pos_mask, bits & system.neg_mask
    zero = Coeff(0)
    hmax = max(abs(r.height) for r in system.roots)
    if side == "negative":  # positive sources
        inside = lambda p: sum(p, zero) <= hmax
    else:
        inside = lambda p: -hmax <= sum(p, zero)
    gens = [system.roots[i].coords for i in _indices(sources)]

    def deletable(start):
        seen, stack = {start}, [start]
        while stack:
            point = stack.pop()
            for g in gens:
                q = tuple(a + b for a, b in zip(point, g))
                if q in seen or not inside(q):
                    continue
                k = system.index_of_coords.get(q)
                if k is not None and not (bits >> k) & 1:
                    return True
                seen.add(q)
                stack.append(q)
        return False

    out = bits
    for alpha in _indices(victims):
        if deletable(system.roots[alpha].coords):
            out &= ~(1 << alpha)
    return out


def closed_flags_reference(system, bits):
    """(closed, semiclosed) by three sweeps, as the definitions read: R
    holds every sum of two of its roots, and so do R+ and R- each."""
    def closed(part):
        members = [i for i in range(system.num_roots) if part >> i & 1]
        return all(system.sum_table[i][j] < 0 or part >> system.sum_table[i][j] & 1
                   for i in members for j in members)
    return closed(bits), closed(bits & system.pos_mask) and closed(bits & system.neg_mask)


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


def lattice_op_reference(system, level):
    """A level's meet or join as op(direction, rbits, sbits), one pair at
    a time.

    The closure and the deletion are applied as the formula reads; the
    fast deletion is chosen only when ``classify`` finds the whole
    intermediate set semiclosed.  The formula is a function of the input
    it reads of a pair, so it runs once per distinct input.
    """
    apply = cache(partial(_apply_formula, system, level))

    def op(direction, rbits, sbits):
        return apply(*_formula_input(system, direction, rbits, sbits))
    return op


def _formula_input(system, direction, rbits, sbits):
    """All a meet (join) formula reads of a pair: the union of its
    positive (negative) parts, the intersection of the other parts, and
    the side its deletion takes."""
    pos, neg = system.pos_mask, system.neg_mask
    if direction == "meet":
        return (rbits | sbits) & pos, rbits & sbits & neg, "negative"
    return (rbits | sbits) & neg, rbits & sbits & pos, "positive"


def _apply_formula(system, level, grown, kept, side):
    if level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        grown = closure_bits(system, grown)
    bits = grown | kept
    if level in (Level.CLOSED, Level.POSETS):
        fast = system.crystallographic and classify(RootSet(system, bits)).semiclosed
        bits = deletion_bits(system, bits, side, fast)
    return bits


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


def from_word(group, word):
    """The element s_{i1} s_{i2} ... of group for word = (i1, i2, ...),
    one right multiplication per letter from the identity."""
    ident = 0
    for i in word:
        ident = group.right[i][ident]
    return group.elements[ident]


def boolean_element_poset(group, subset):
    """R(A) = cl(-A | (Delta \\ A)) for A a set of simple positions."""
    system = group.system
    bits = 0
    for i, s in enumerate(group.simple_root_indices):
        bits |= 1 << (system.neg(s) if i in subset else s)
    return RootSet(system, closure_bits(system, bits))


def element_poset(group, w):
    """R(w) = w(Phi^+)."""
    return RootSet(group.system, w.poset_bits)


def coset_poset(group, coset):
    """R(xW_I) = x(Phi^+ minus Phi_I^+), the interval poset of [x, x w_{o,I}]."""
    return interval_poset(group, coset.x, coset.w_long)


def coset_members(coset):
    """The elements of xW_I in id order, walked as the interval [x, x w_{o,I}]."""
    g = coset.x.group
    return [g.elements[u]
            for u in sorted(g.interval(coset.x.id, coset.w_long.inv_bits))]


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


def interval_pairs_reference(group, family):
    """The (lo, hi) poset bits of WOEP, WOIP, COEP or COIP, streamed the
    way the construction once did: WOIP by WeylGroup.interval above each
    element, COEP as the bottom and top of each Cambrian class, COIP as
    the bottom of one class with the top of every class whose bottom lies
    above it in the weak order."""
    tag = family.normalized_tag()
    els = group.elements
    if tag == "WOEP":
        return [(w.poset_bits, w.poset_bits) for w in els]
    if tag == "WOIP":
        return [(els[v].poset_bits, els[u].poset_bits) for v in range(len(els))
                for u in group.interval(v, group.system.pos_mask)]
    classes = cambrian_classes(coxeter_element(group, family.coxeter or "lin"))
    if tag == "COEP":
        return [(cl.bottom.poset_bits, cl.top.poset_bits) for cl in classes]
    assert tag == "COIP"
    return [(x.bottom.poset_bits, y.top.poset_bits) for x in classes
            for y in classes if x.bottom.weak_le(y.bottom)]


def woip_interval_of(group, rset):
    """The (v, w) with v <= w realizing a WOIP poset as R(v, w).

    R(v, w) meets Phi^- in -inv(v) and Phi^+ in Phi^+ minus inv(w), so v
    and w are looked up by those inversion sets.
    """
    system = group.system
    v = group._by_inv.get(system.negate_bits(rset.bits & system.neg_mask))
    w = group._by_inv.get(system.pos_mask & ~rset.bits)
    if v is None or w is None:
        raise ContractViolationError("set is not a weak order interval poset")
    v, w = group.elements[v], group.elements[w]
    # interval_poset refuses v, w unless v <= w
    if interval_poset(group, v, w).bits != rset.bits:
        raise ContractViolationError("set is not a weak order interval poset")
    return v, w


def woip_op(group, direction, rset, sset):
    """Meet/join inside WOIP via componentwise weak-order meet/join."""
    lv, lw = woip_interval_of(group, rset)
    rv, rw = woip_interval_of(group, sset)
    op = group.weak_meet if direction == "meet" else group.weak_join
    return interval_poset(group, op(lv, rv), op(lw, rw))


def coip_op(group, c, direction, rset, sset):
    """Meet/join inside COIP(c) via the Cambrian class components."""
    lv, lw = woip_interval_of(group, rset)
    rv, rw = woip_interval_of(group, sset)
    if not (c.sortable[lv.id] and c.sortable[rv.id]):
        raise ContractViolationError("COIP bottom is not sortable")
    if not (c.antisortable[lw.id] and c.antisortable[rw.id]):
        raise ContractViolationError("COIP top is not antisortable")
    # sortables/antisortables are sublattices, so the result is again a COIP pair
    return woip_op(group, direction, rset, sset)


def boip_components_of(group, rset):
    """(A, A') with R = R(A, A'), read off the simple roots present."""
    system = group.system
    a_set, a_prime = set(), set(range(system.rank))
    for i, s in enumerate(group.simple_root_indices):
        if (rset.bits >> system.neg(s)) & 1:
            a_set.add(i)
        if (rset.bits >> s) & 1:
            a_prime.discard(i)
    return frozenset(a_set), frozenset(a_prime)


def boip_op(group, direction, rset, sset):
    """Meet/join inside BOIP via the meet/join of the components A, A'."""
    ra, rb = boip_components_of(group, rset)
    sa, sb = boip_components_of(group, sset)
    if direction == "meet":
        na, nb = ra & sa, rb & sb
    else:
        na, nb = ra | sa, rb | sb
    system = group.system
    return RootSet(system, interval_bits(
        system, _boolean_bits(group, na), _boolean_bits(group, nb)))


def binary_tree_posets_reference(system):
    """The posets of the binary trees on the in-order labels 1..n+1 of
    A_n, with e_i - e_j in R iff i lies in the subtree of j: for i < j
    the root alpha_i + ... + alpha_(j-1), for i > j its negative.  Trees
    are built by choosing a root label and recursing on both sides;
    root indices come from the integer coordinates alone."""
    assert system.family == "A"
    n = system.rank

    def trees(lo, hi):  # {node: its subtree} for each tree on lo..hi-1
        if lo == hi:
            yield {}
            return
        for r in range(lo, hi):
            for left in trees(lo, r):
                for right in trees(r + 1, hi):
                    yield {**left, **right, r: set(range(lo, hi))}

    found = set()
    for subtrees in trees(1, n + 2):
        bits = 0
        for j, below in subtrees.items():
            for i in below - {j}:
                lo, hi = min(i, j), max(i, j)
                coords = tuple(int(lo <= k + 1 < hi) for k in range(n))
                if i > j:
                    coords = tuple(-x for x in coords)
                bits |= 1 << system.index_of_int_coords[coords]
        found.add(bits)
    return found


def linear_extensions(rset, group):
    """All group elements w with R contained in R(w) = w(Phi^+).

    Nonempty for every poset: maximal extensions of a poset are exactly
    the element posets.
    """
    bits = rset.bits
    return [w for w in group.elements if bits & ~w.poset_bits == 0]


@cache
def _left_products(group):
    """The simple reflections as root permutations, and each element by
    its permutation."""
    return generator_perms(group.system), {w.perm: w for w in group.elements}


def sorting_word(group, word, w):
    """(letters, blocks) of the c-sorting word of w, c given by word.

    Greedy scan of c c c ... taking every letter that shortens w from
    the left, s_i w composed as root permutations; the letters taken
    during one pass over c form one block.
    """
    simples = group.simple_root_indices
    gens, by_perm = _left_products(group)
    letters, blocks = [], []
    while w.length:
        block = set()
        for i in word:
            if (w.inv_bits >> simples[i]) & 1:
                w = by_perm[compose(gens[i], w.perm)]
                letters.append(i)
                block.add(i)
        blocks.append(frozenset(block))
    return letters, blocks


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
    _, by_perm = _left_products(group)

    def nested(letters_of_c, w):
        _, blocks = sorting_word(group, letters_of_c, w)
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

    letters, _ = sorting_word(group, word, w0)
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
    strictly between.  Bounds are read from each member's down-set and
    up-set, as index bitmasks built from weak_le, and the formula is
    evaluated once per distinct input it reads of a pair.  Pairs are
    visited in canonical order, which fixes the witness.  Returns
    (family_size, is_lattice, formula_matches_bruteforce, graded,
    witness, cover_count, covers).
    """
    fam = canonical_sort(family)
    k = len(fam)
    le = [[weak_le(a, b) for b in fam] for a in fam]
    down = [sum(1 << x for x in range(k) if le[x][i]) for i in range(k)]
    up = [sum(1 << x for x in range(k) if le[i][x]) for i in range(k)]
    index = {r.bits: i for i, r in enumerate(fam)}

    def extremum(bounds, within):
        """The first x of ``bounds`` with every bound in ``within[x]``."""
        return next((x for x in _indices(bounds) if bounds & ~within[x] == 0), None)

    reference = lattice_op_reference(fam[0].system if fam else None, formula)

    def formula_index(direction, a, b):
        return index.get(reference(direction, a, b))

    is_lattice, witness = True, None
    formula_ok = None if formula is None else True
    for i in range(k):
        for j in range(i + 1, k):
            glb = extremum(down[i] & down[j], down)
            lub = extremum(up[i] & up[j], up)
            pair_ok = glb is not None and lub is not None
            bad = not pair_ok
            if formula is not None:
                a, b = fam[i].bits, fam[j].bits
                if not (pair_ok and formula_index("meet", a, b) == glb
                        and formula_index("join", a, b) == lub):
                    formula_ok, bad = False, True
            if bad:
                is_lattice = is_lattice and pair_ok
                if witness is None:
                    witness = (fam[i], fam[j])
    covers = sorted((j, i) for i in range(k) for j in _indices(down[i] ^ 1 << i)
                    if up[j] & down[i] == 1 << i | 1 << j)
    graded = all(fam[i].grade() - fam[j].grade() == 1 for j, i in covers)
    return (k, is_lattice, formula_ok, graded, witness, len(covers), covers)


def coip_sums_reference(system, c, bits):
    """The COIP sum condition, one pair of roots at a time: for a, b of
    one sign with a + b a root of the set and |a| <c |b|, the set holds
    b if they are positive and a if they are negative."""
    pos = c.c_position
    n = system.num_positive
    for a in range(system.num_roots):
        for b in range(system.num_roots):
            k = system.sum_table[a][b]
            if (k < 0 or (a < n) != (b < n) or not (bits >> k) & 1
                    or pos[a % n] > pos[b % n]):
                continue
            if not (bits >> (b if a < n else a)) & 1:
                return False
    return True


# -- snakes, one search per snake and root -------------------------------------

def _snakes(c, rset, max_len):
    """Yield all c-snakes of R up to max_len, as tuples of root indices.

    Template 1 alternates positive, negative, positive ... with
    |a1| <c |a2| >c |a3| <c ... on the positive versions; template 2 is
    the sign-swapped pattern with the mirrored comparison chain.
    """
    system = c.group.system
    pos = c.c_position
    members = _indices(rset.bits)

    def posval(i):
        j = i if system.is_positive(i) else system.neg(i)
        return pos[j]

    def extend(seq, template):
        yield tuple(seq)
        if len(seq) >= max_len:
            return
        k = len(seq)  # next position (0-based); paper's index k+1
        want_positive = (k % 2 == 0) if template == 1 else (k % 2 == 1)
        prev = seq[-1]
        # comparisons alternate: <c at odd paper-index steps, >c at even
        ascending = (k % 2 == 1) if template == 1 else (k % 2 == 0)
        for nxt in members:
            if system.is_positive(nxt) != want_positive:
                continue
            if ascending:
                if not posval(prev) < posval(nxt):
                    continue
            else:
                if not posval(prev) > posval(nxt):
                    continue
            yield from extend(seq + [nxt], template)

    for template in (1, 2):
        first_positive = template == 1
        for start in members:
            if system.is_positive(start) == first_positive:
                yield from extend([start], template)


def _bounded_combo(vecs, goal, bound):
    """Is goal a sum of l_i * vecs[i] with 0 <= l_i <= bound, exact ints?

    Pruned by per-coordinate reachability intervals of the suffixes.
    """
    m = len(vecs)
    rank = len(goal)
    lo = [[0] * rank for _ in range(m + 1)]
    hi = [[0] * rank for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for d in range(rank):
            x = bound * vecs[i][d]
            lo[i][d] = lo[i + 1][d] + min(0, x)
            hi[i][d] = hi[i + 1][d] + max(0, x)

    def rec(i, remaining):
        for d in range(rank):
            if not lo[i][d] <= remaining[d] <= hi[i][d]:
                return False
        if i == m:
            return True
        v = vecs[i]
        for lam in range(bound + 1):
            nxt = tuple(r - lam * x for r, x in zip(remaining, v))
            if rec(i + 1, nxt):
                return True
        return False

    return rec(0, goal)


def snake_decomposable_reference(c, rset):
    """All roots of Phi admitting a c-snake decomposition in R: every
    snake of at most 2 rank + 2 roots, a bounded-sum search per snake and
    root not yet found, each coefficient at most the largest coordinate.
    """
    system = c.group.system
    if not system.crystallographic:
        raise ContractViolationError("snake search needs integer coordinates")
    max_len = 2 * system.rank + 2
    coeff_bound = max(abs(x) for row in system.int_coords for x in row)
    found = set(_indices(rset.bits))
    todo = [i for i in range(system.num_roots) if i not in found]
    if not todo:
        return found
    for snake in _snakes(c, rset, max_len):
        vecs = []
        for p, idx in enumerate(snake):
            sign = 1 if p % 2 == 0 else -1
            vecs.append(tuple(sign * x for x in system.int_coords[idx]))
        still = []
        for alpha in todo:
            target = system.int_coords[alpha]
            hit = any(
                _bounded_combo(vecs, tuple(f * t for t in target), coeff_bound)
                for f in (1, -1))
            if hit:
                found.add(alpha)
            else:
                still.append(alpha)
        todo = still
        if not todo:
            break
    return found


def dfs_closed_reference(system, indices, antisymmetric, leaf):
    """Count subsets of `indices` closed under root sums, by backtracking,
    calling ``leaf(mask)`` on each in DFS order.

    Roots are processed by increasing absolute height so that, for any
    summable pair, the pair's sum is decided no later than needed: same
    sign pairs force sums at a later position, mixed-sign pairs have
    their sum decided before the later summand.
    """
    order = sorted(indices, key=lambda i: (abs(system.roots[i].height), i))
    pos_of = {r: p for p, r in enumerate(order)}
    table = system.sum_table
    # per position p: the root's bit, its negative's bit, and for each
    # earlier partner i summing to a root s, the pair (bit of i, bit of s):
    # a check where s comes before p, a force where it comes after
    rbits, negbits, checks, forces = [], [], [], []
    for p, r in enumerate(order):
        rbits.append(1 << r)
        negbits.append(1 << system.neg(r))
        row = table[r]
        pairs = [(i, row[i]) for i in order[:p] if row[i] >= 0]
        checks.append([(1 << i, 1 << s) for i, s in pairs if pos_of[s] < p])
        forces.append([(1 << i, 1 << s) for i, s in pairs if pos_of[s] > p])
    m = len(order)
    count = 0

    def rec(p, mask, forced, forbidden):
        nonlocal count
        if p == m:
            count += 1
            leaf(mask)
            return
        rbit = rbits[p]
        # include r
        ok = not forbidden & rbit
        if ok:
            for ibit, sbit in checks[p]:
                if mask & ibit and not mask & sbit:
                    ok = False
                    break
        if ok:
            nf = forced
            for ibit, sbit in forces[p]:
                if mask & ibit:
                    nf |= sbit
            rec(p + 1, mask | rbit, nf,
                forbidden | negbits[p] if antisymmetric else forbidden)
        # exclude r
        if not forced & rbit:
            rec(p + 1, mask, forced, forbidden)

    rec(0, 0, 0, 0)
    return count
