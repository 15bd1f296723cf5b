"""Finite root systems with exact arithmetic.

Systems are built from their Cartan matrix by closing the simple roots
under all simple reflections.  Coordinates live in the simple-root basis
and are exact elements of Q(psi), so membership questions (is this vector
a root?) are decided with no floating point anywhere.

Indexing convention: the N positive roots occupy indices 0..N-1, sorted
by (height, lexicographic coordinates); index i + N holds the negative
of root i, so negation, sign tests and sign splits are trivial index
arithmetic and bit masks downstream.
"""

from __future__ import annotations

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
    """A finite root system with lookup tables for sums, pairings, reflections.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, family, rank, m=None):
        self.family = family
        self.rank = rank
        self.m = m
        self.label = f"I2({m})" if family == "I" else f"{family}{rank}"
        self.cartan = cartan_matrix(family, rank, m)
        self.symmetrizer = _symmetrizer(self.cartan)
        if family == "I":
            self.degrees = [2, m]
        else:
            try:
                self.degrees = list(_DEGREES[family](rank))
            except (KeyError, IndexError):
                raise ConfigurationError(f"no degree data for {self.label}")
        self.crystallographic = all(
            c.is_integer() for row in self.cartan for c in row)
        self._build_roots()
        self._build_tables()
        self._group = None  # lazily attached by weyl.weyl_group

    # -- construction --------------------------------------------------

    def _simple_reflection_on_coords(self, i, coords):
        # s_i(v) = v - <v, alpha_i^vee> alpha_i, in simple-root coordinates
        pairing = sum((self.cartan[i][j] * coords[j] for j in range(self.rank)),
                      Coeff(0))
        new = list(coords)
        new[i] = new[i] - pairing
        return tuple(new)

    def _build_roots(self):
        rank = self.rank
        simples = []
        for i in range(rank):
            coords = tuple(Coeff(1 if j == i else 0) for j in range(rank))
            simples.append(coords)
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for coords in frontier:
                for i in range(rank):
                    image = self._simple_reflection_on_coords(i, coords)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        positives = []
        for coords in seen:
            signs = {c.sign() for c in coords}
            if -1 in signs and 1 in signs:
                raise ConfigurationError(
                    f"mixed-sign root generated for {self.label}; bad Cartan data")
            if 1 in signs:
                positives.append(coords)
        positives.sort(key=lambda cs: (sum(cs, Coeff(0)), cs))
        self.num_positive = len(positives)
        self.num_roots = 2 * self.num_positive
        self.roots = []
        for idx, coords in enumerate(positives):
            self.roots.append(Root(idx, coords, sum(coords, Coeff(0)), True))
        for idx, coords in enumerate(positives):
            neg = tuple(-c for c in coords)
            self.roots.append(Root(idx + self.num_positive, neg,
                                   sum(neg, Coeff(0)), False))
        self.index_of_coords = {r.coords: r.index for r in self.roots}
        # the signed literal of each root, e.g. -[0,1]: the sign, then the
        # coordinates of the positive root
        self.literals = tuple(
            f"{sign}[{','.join(str(c) for c in r.coords)}]"
            for sign in "+-" for r in self.roots[:self.num_positive])

    def _build_tables(self):
        n2 = self.num_roots
        coords = [r.coords for r in self.roots]
        lookup = self.index_of_coords
        sum_table = [[-1] * n2 for _ in range(n2)]
        for i in range(n2):
            ci = coords[i]
            row = sum_table[i]
            for j in range(i, n2):
                s = tuple(a + b for a, b in zip(ci, coords[j]))
                k = lookup.get(s, -1)
                row[j] = k
                sum_table[j][i] = k
        self.sum_table = sum_table
        self.pos_mask = (1 << self.num_positive) - 1
        self.full_mask = (1 << self.num_roots) - 1
        self.neg_mask = self.full_mask ^ self.pos_mask
        # Gram matrix (alpha_i, alpha_j) = d_i * a_ij; exact in Q(psi)
        g = [[self.symmetrizer[i] * self.cartan[i][j] for j in range(self.rank)]
             for i in range(self.rank)]
        self.gram = g
        self._norms = [self.inner(i, i) for i in range(n2)]
        # integer coordinate table for the crystallographic fast paths
        if self.crystallographic:
            self.int_coords = tuple(
                tuple(c.as_int() for c in r.coords) for r in self.roots)
            self.index_of_int_coords = {
                c: i for i, c in enumerate(self.int_coords)}
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

    def pairing(self, i, j):
        """Cartan pairing <alpha_i^vee, alpha_j> = 2 (a_i, a_j) / (a_i, a_i)."""
        return 2 * self.inner(i, j) / self._norms[i]

    def reflect(self, mirror, target):
        """Index of s_mirror(target); always a valid root index."""
        p = self.pairing(mirror, target)
        cm = self.roots[mirror].coords
        ct = self.roots[target].coords
        image = tuple(t - p * m for t, m in zip(ct, cm))
        return self.index_of_coords[image]

    def simple_indices(self):
        """Root indices of the simple roots (unit coordinate vectors)."""
        out = []
        for i in range(self.rank):
            coords = tuple(Coeff(1 if j == i else 0) for j in range(self.rank))
            out.append(self.index_of_coords[coords])
        return out

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
    if family == "A" and rank < 1:
        raise ConfigurationError("A requires rank >= 1")
    if family in ("B", "C") and rank < 1:
        raise ConfigurationError(f"{family} requires rank >= 1")
    rs = RootSystem(family, rank, m)
    expect = _EXPECTED_POSITIVE_COUNTS.get("I" if family == "I" else family)
    if family == "I":
        expected = m
    else:
        expected = expect(rank)
    if rs.num_positive != expected:
        raise ConfigurationError(
            f"{rs.label}: generated {rs.num_positive} positive roots, expected {expected}")
    return rs


def parse_system_label(label):
    """Parse CLI labels like A3, B2, G2, H3, I2(5) into (family, rank, m)."""
    label = label.strip()
    if label.upper().startswith("I2(") and label.endswith(")"):
        return ("I", 2, int(label[3:-1]))
    family = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError:
        raise ConfigurationError(f"cannot parse system label {label!r}")
    return (family, rank, None)


def build_from_label(label):
    family, rank, m = parse_system_label(label)
    return build_root_system(family, rank, m)
