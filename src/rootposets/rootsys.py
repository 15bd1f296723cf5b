"""Finite root systems with exact arithmetic.

Systems are built from their Cartan matrix by closing the simple roots
under all simple reflections.  Coordinates live in the simple-root basis.
Every Cartan entry of a supported type lies in Z[psi], so every
coordinate does too: the closure, the sum table and the simple
reflections are computed on int vectors (x_1..x_r, y_1..y_r) for the
coordinates x_j + y_j psi, with no floating point anywhere.  ``Coeff``
appears only at the boundary: the Cartan matrix read in, and the
coordinates, heights and literals of the built roots, whose exact
(height, coordinates) key orders the positive roots.

Indexing convention: the N positive roots occupy indices 0..N-1, sorted
by (height, lexicographic coordinates); index i + N holds the negative
of root i, so negation, sign tests and sign splits are trivial index
arithmetic and bit masks downstream.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import add

from .coeff import Coeff, PSI
from .errors import ConfigurationError

CRYSTALLOGRAPHIC_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "G": lambda n: [2, 6],
    "F": lambda n: [2, 6, 8, 12],
    "E": lambda n: {6: [2, 5, 6, 8, 9, 12],
                    7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[n],
    "H": lambda n: {2: [2, 5], 3: [2, 6, 10]}[n],
}


def cartan_matrix(family, rank, m=None):
    """Cartan matrix in Bourbaki numbering, entries ``<alpha_i^vee, alpha_j>``.

    B_n has alpha_n short, C_n has alpha_n long.  H2/H3 use the symmetric
    matrix with off-diagonal -psi on the 5-labelled edge.  I2(m) is only
    available for m in {3, 4, 5, 6}, the orders realizable over Q(psi).
    """
    one = Coeff(1)
    two = Coeff(2)

    def zeros():
        return [[Coeff(0) for _ in range(rank)] for _ in range(rank)]

    def chain(a):
        for i in range(rank - 1):
            a[i][i + 1] = -one
            a[i + 1][i] = -one

    a = zeros()
    for i in range(rank):
        a[i][i] = two

    if family == "A":
        chain(a)
    elif family == "B":
        chain(a)
        if rank >= 2:
            a[rank - 1][rank - 2] = -two
    elif family == "C":
        chain(a)
        if rank >= 2:
            a[rank - 2][rank - 1] = -two
    elif family == "D":
        if rank < 3:
            raise ConfigurationError("D requires rank >= 3")
        for i in range(rank - 2):
            a[i][i + 1] = -one
            a[i + 1][i] = -one
        a[rank - 3][rank - 1] = -one
        a[rank - 1][rank - 3] = -one
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ConfigurationError("E requires rank in {6, 7, 8}")
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for u, v in edges:
            if u <= rank and v <= rank:
                a[u - 1][v - 1] = -one
                a[v - 1][u - 1] = -one
    elif family == "G":
        a[0][1] = -one
        a[1][0] = -Coeff(3)
    elif family == "F":
        chain(a)
        a[2][1] = -two
    elif family == "H":
        if rank not in (2, 3):
            raise ConfigurationError("H requires rank 2 or 3")
        a[0][1] = -PSI
        a[1][0] = -PSI
        if rank == 3:
            a[1][2] = -Coeff(1)
            a[2][1] = -Coeff(1)
            a[0][2] = a[2][0] = Coeff(0)
    elif family == "I":
        if m == 3:
            return cartan_matrix("A", 2)
        if m == 4:
            return cartan_matrix("B", 2)
        if m == 5:
            return cartan_matrix("H", 2)
        if m == 6:
            return cartan_matrix("G", 2)
        raise ConfigurationError(f"I2({m}) is not realizable over Q(psi)")
    else:
        raise ConfigurationError(f"unknown family {family!r}")
    return a


def _int_pairs(cartan, label):
    """The Cartan matrix as (x, y) pairs for x + y psi, refusing entries
    outside Z[psi]."""
    bad = [c for row in cartan for c in row
           if c.a.denominator != 1 or c.b.denominator != 1]
    if bad:
        raise ConfigurationError(f"{label}: Cartan entry {bad[0]} is not in Z[psi]")
    return [[(int(c.a), int(c.b)) for c in row] for row in cartan]


def _sign(x, y):
    """Sign of x + y psi for integers x, y: that of (2x + y) + y sqrt 5."""
    u = 2 * x + y
    lead = u if u * u > 5 * y * y else y
    return (lead > 0) - (lead < 0)


def _symmetrizer(cartan):
    """Positive rationals d_i with d_i * a_ij symmetric ((a_i, a_j) = d_i a_ij)."""
    n = len(cartan)
    d = [None] * n
    d[0] = Coeff(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if d[i] is None:
                continue
            for j in range(n):
                if cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    changed = True
    for i in range(n):
        if d[i] is None:  # disconnected diagram component
            d[i] = Coeff(1)
    return d


def _same_sign_sums(sum_table, n):
    """(a, b, a+b) triples with a <= b of one sign and a+b a root: the
    pairs of the n positive roots, then those of their negatives."""
    return tuple((a, b, sum_table[a][b]) for lo, hi in ((0, n), (n, 2 * n))
                 for a in range(lo, hi) for b in range(a, hi)
                 if sum_table[a][b] >= 0)


class Root:
    """A single root: exact coordinates plus cached height and sign."""

    __slots__ = ("index", "coords", "height", "positive")

    def __init__(self, index, coords, height, positive):
        self.index = index
        self.coords = coords
        self.height = height
        self.positive = positive

    def __repr__(self):
        return f"Root({self.index}, [{', '.join(map(str, self.coords))}])"


class RootSystem:
    """A finite root system with lookup tables for sums and simple reflections.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, family, rank, m=None):
        self.family = family
        self.rank = rank
        self.m = m
        self.label = f"I2({m})" if family == "I" else f"{family}{rank}"
        self.cartan = cartan_matrix(family, rank, m)
        int_cartan = _int_pairs(self.cartan, self.label)
        self.symmetrizer = _symmetrizer(self.cartan)
        if family == "I":
            self.degrees = [2, m]
        else:
            try:
                self.degrees = list(_DEGREES[family](rank))
            except (KeyError, IndexError):
                raise ConfigurationError(f"no degree data for {self.label}")
        self.crystallographic = all(
            y == 0 for row in int_cartan for _, y in row)
        self._build(int_cartan)
        # Gram matrix (alpha_i, alpha_j) = d_i * a_ij; exact in Q(psi)
        self.gram = [[self.symmetrizer[i] * self.cartan[i][j]
                      for j in range(rank)] for i in range(rank)]
        self._group = None  # lazily attached by weyl.weyl_group

    # -- construction --------------------------------------------------

    def _build(self, cartan):
        """Roots, their order and every table, from the int vectors.

        The root sum_j a_j alpha_j with a_j = x_j + y_j psi is the int
        vector (x_1..x_r, y_1..y_r).  s_i(v) = v - <v, alpha_i^vee> alpha_i,
        the pairing sum_j A_ij v_j taken in Z[psi] with psi^2 = psi + 1.
        """
        rank = self.rank
        rows = [[(j, x, y) for j, (x, y) in enumerate(row) if x or y]
                for row in cartan]
        vectors = [tuple(int(j == i) for j in range(2 * rank))
                   for i in range(rank)]
        seen = set(vectors)
        images = {}  # vector -> its images under s_1..s_r
        for v in vectors:  # vectors grows while it is read
            row = []
            for i in range(rank):
                p = q = 0
                for j, x, y in rows[i]:
                    a, b = v[j], v[rank + j]
                    p += x * a + y * b
                    q += x * b + y * a + y * b
                image = list(v)
                image[i] -= p
                image[rank + i] -= q
                image = tuple(image)
                row.append(image)
                if image not in seen:
                    seen.add(image)
                    vectors.append(image)
            images[v] = row

        coeff = cache(Coeff)  # built for the boundary only, once per value

        def boundary(v):
            """(height, coords) of an int vector, as Coeffs."""
            return (coeff(sum(v[:rank]), sum(v[rank:])),
                    tuple(coeff(x, y) for x, y in zip(v[:rank], v[rank:])))

        positives = []
        for v in vectors:
            signs = {_sign(x, y) for x, y in zip(v[:rank], v[rank:])}
            if -1 in signs and 1 in signs:
                raise ConfigurationError(
                    f"mixed-sign root generated for {self.label}; bad Cartan data")
            if 1 in signs:
                positives.append(v)
        positives.sort(key=boundary)
        n = self.num_positive = len(positives)
        self.num_roots = 2 * n
        order = positives + [tuple(-x for x in v) for v in positives]
        self.roots = [Root(k, coords, height, k < n)
                      for k, (height, coords) in enumerate(map(boundary, order))]
        self.index_of_coords = {r.coords: r.index for r in self.roots}
        # the signed literal of each root, e.g. -[0,1]: the sign, then the
        # coordinates of the positive root
        self.literals = tuple(
            f"{sign}[{','.join(str(c) for c in r.coords)}]"
            for sign in "+-" for r in self.roots[:n])

        index = {v: k for k, v in enumerate(order)}
        # the BFS starts from the unit vectors, the simple roots
        self._simple_indices = [index[v] for v in vectors[:rank]]
        # simple_reflections[i][k]: the index of s_i(root k)
        self.simple_reflections = tuple(
            tuple(index[images[v][i]] for v in order) for i in range(rank))
        n2 = self.num_roots
        sum_table = [[-1] * n2 for _ in range(n2)]
        for i, u in enumerate(order):
            row = sum_table[i]
            for j in range(i, n2):
                k = index.get(tuple(map(add, u, order[j])), -1)
                row[j] = k
                sum_table[j][i] = k
        self.sum_table = sum_table
        self.same_sign_sums = _same_sign_sums(sum_table, n)
        self.pos_mask = (1 << n) - 1
        self.full_mask = (1 << n2) - 1
        self.neg_mask = self.full_mask ^ self.pos_mask
        # integer coordinate table for the crystallographic fast paths
        if self.crystallographic:
            self.int_coords = tuple(v[:rank] for v in order)
            self.index_of_int_coords = {
                c: k for k, c in enumerate(self.int_coords)}
        else:
            self.int_coords = None
            self.index_of_int_coords = None

    # -- basic queries ---------------------------------------------------

    def neg(self, i):
        return i + self.num_positive if i < self.num_positive else i - self.num_positive

    def is_positive(self, i):
        return i < self.num_positive

    def negate_bits(self, bits):
        """Bitset of {-a : a in bits} under the i <-> i+N index pairing."""
        n = self.num_positive
        return ((bits & self.pos_mask) << n) | (bits >> n)

    def root_sum(self, i, j):
        """Index of root i + root j, or None when the sum is not a root."""
        k = self.sum_table[i][j]
        return None if k < 0 else k

    def inner(self, i, j):
        """Exact scalar product of two roots."""
        ci, cj = self.roots[i].coords, self.roots[j].coords
        total = Coeff(0)
        for a in range(self.rank):
            if not ci[a]:
                continue
            for b in range(self.rank):
                if cj[b]:
                    total = total + ci[a] * self.gram[a][b] * cj[b]
        return total

    @cached_property
    def byte_literals(self):
        """byte_literals[k][b]: the literals of the roots 8k + i, for the
        set bits i of the byte b, ascending and joined by commas; one row
        per byte of a bitset, built on first use."""
        rows = []
        for k in range(0, self.num_roots, 8):
            row = [""]
            for literal in self.literals[k:k + 8]:  # row[b | 1 << i] = row[b], literal
                row += [f"{s},{literal}" if s else literal for s in row]
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def sum_partners(self):
        """sum_partners[i]: a (1 << j, 1 << k, same sign) triple for each
        j > i with root i + root j = root k; built on first use."""
        n = self.num_positive
        return tuple(
            tuple((1 << j, 1 << k, (i < n) == (j < n))
                  for j, k in enumerate(row[i + 1:], i + 1) if k >= 0)
            for i, row in enumerate(self.sum_table))

    def simple_indices(self):
        """Root indices of the simple roots (unit coordinate vectors)."""
        return list(self._simple_indices)

    def abs_height(self, i):
        return abs(self.roots[i].height)

    def weyl_order(self):
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def coxeter_catalan(self):
        """Coxeter-Catalan number prod (d_i + h) / d_i with h the largest degree."""
        h = max(self.degrees)
        num, den = 1, 1
        for d in self.degrees:
            num *= d + h
            den *= d
        if num % den:
            raise ConfigurationError(f"non-integral Catalan number for {self.label}")
        return num // den

    def __repr__(self):
        return f"RootSystem({self.label}, {self.num_roots} roots)"


_EXPECTED_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
    "F": lambda n: 24,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "H": lambda n: {2: 5, 3: 15}[n],
}


def build_root_system(family, rank, m=None):
    """Build and sanity-check a root system.  rank <= 8 supported."""
    family = family.upper()
    if family == "I":
        if rank != 2:
            raise ConfigurationError("I2(m) has rank 2")
        if m is None:
            raise ConfigurationError("I2 requires an order parameter m")
    if not 1 <= rank <= 8:
        raise ConfigurationError(f"rank {rank} out of the supported range 1..8")
    if family in ("G",) and rank != 2:
        raise ConfigurationError("G2 has rank 2")
    if family in ("F",) and rank != 4:
        raise ConfigurationError("F4 has rank 4")
    rs = RootSystem(family, rank, m)
    expected = m if family == "I" else _EXPECTED_POSITIVE_COUNTS[family](rank)
    if rs.num_positive != expected:
        raise ConfigurationError(
            f"{rs.label}: generated {rs.num_positive} positive roots, expected {expected}")
    return rs


def parse_system_label(label):
    """Parse CLI labels like A3, B2, G2, H3, I2(5) into (family, rank, m)."""
    label = label.strip()
    try:
        if label.upper().startswith("I2(") and label.endswith(")"):
            return ("I", 2, int(label[3:-1]))
        return (label[0].upper(), int(label[1:]), None)
    except (IndexError, ValueError):
        raise ConfigurationError(f"cannot parse system label {label!r}") from None


def build_from_label(label):
    family, rank, m = parse_system_label(label)
    return build_root_system(family, rank, m)
