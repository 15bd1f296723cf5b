"""Reference values and checks computed without the library's algorithms.

Root systems are generated here from their Gram matrices, in the same
Bourbaki labelling as the library, and every predicate below works on
integer coordinate vectors.  The library's bitsets are read through its
index-to-coordinates table only, which is the encoding, not a result.
"""

from __future__ import annotations

from math import factorial

# Gram matrices (times 2, so integral) of the simple roots.  B_n has the
# short last root, C_n the long one, F4 has alpha_3, alpha_4 short and G2
# has alpha_2 short, as in the library's Cartan matrices.


def gram(label):
    family, rank = label[0], int(label[1:])
    g = [[0] * rank for _ in range(rank)]
    edges = [(i, i + 1) for i in range(rank - 1)]
    diag = [2] * rank
    edge_val = {e: -1 for e in edges}
    if family == "B":
        diag = [4] * (rank - 1) + [2]
        edge_val = {e: -2 for e in edges}
    elif family == "C":
        diag = [2] * (rank - 1) + [4]
        edge_val[(rank - 2, rank - 1)] = -2
    elif family == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
        edge_val = {e: -1 for e in edges}
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
        edge_val = {(i, j): -1 for i, j in edges if j < rank}
    elif family == "F":
        diag = [4, 4, 2, 2]
        edge_val = {(0, 1): -2, (1, 2): -2, (2, 3): -1}
    elif family == "G":
        diag = [6, 2]
        edge_val = {(0, 1): -3}
    elif family != "A":
        raise ValueError(f"no Gram data for {label}")
    for i in range(rank):
        g[i][i] = diag[i]
    for (i, j), v in edge_val.items():
        g[i][j] = g[j][i] = v
    return g


def cartan(label):
    g = gram(label)
    n = len(g)
    return [[2 * g[i][j] // g[i][i] for j in range(n)] for i in range(n)]


def reflect(a, i, v):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i in simple-root coordinates."""
    p = sum(a[i][j] * v[j] for j in range(len(v)))
    out = list(v)
    out[i] -= p
    return tuple(out)


def roots(label):
    """All roots of the system as integer coordinate tuples."""
    a = cartan(label)
    n = len(a)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(a, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _irreducible_order(rank, npos, simply_laced):
    """|W| of an irreducible crystallographic type from its rank, number of
    positive roots and whether all its roots have one length."""
    if simply_laced:
        if npos == rank * (rank + 1) // 2:
            return factorial(rank + 1)                # A_n (A_3 = D_3)
        if npos == rank * (rank - 1):
            return 2 ** (rank - 1) * factorial(rank)  # D_n
        return {36: 51840, 63: 2903040, 120: 696729600}[npos]
    if npos == rank * rank:
        return 2 ** rank * factorial(rank)            # B_n, C_n
    return {(2, 6): 12, (4, 24): 1152}[(rank, npos)]


def parabolic_order(label, subset, positive):
    """|W_I| for a set I of simple positions, from the components of I."""
    a = cartan(label)
    todo = set(subset)
    order = 1
    while todo:
        comp = {todo.pop()}
        stack = list(comp)
        while stack:
            i = stack.pop()
            for j in list(todo):
                if a[i][j]:
                    todo.discard(j)
                    comp.add(j)
                    stack.append(j)
        npos = sum(1 for v in positive
                   if all(c == 0 for k, c in enumerate(v) if k not in comp))
        laced = all(a[i][j] == a[j][i] for i in comp for j in comp)
        order *= _irreducible_order(len(comp), npos, laced)
    return order


def weyl_order(label):
    positive = [v for v in roots(label) if sum(v) > 0]
    return parabolic_order(label, range(int(label[1:])), positive)


def wofp_count(label):
    """Number of faces of the permutahedron: sum over I of |W| / |W_I|."""
    rank = int(label[1:])
    positive = [v for v in roots(label) if sum(v) > 0]
    full = parabolic_order(label, range(rank), positive)
    total = 0
    for mask in range(1 << rank):
        sub = [i for i in range(rank) if (mask >> i) & 1]
        total += full // parabolic_order(label, sub, positive)
    return total


DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "F": lambda n: [2, 6, 8, 12],
    "G": lambda n: [2, 6],
    "E": lambda n: {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[n],
}


def coxeter_catalan(label):
    """prod (d_i + h) / d_i over the degrees, h the Coxeter number."""
    degrees = DEGREES[label[0]](int(label[1:]))
    h = max(degrees)
    num = den = 1
    for d in degrees:
        num *= d + h
        den *= d
    return num // den


def fubini(n):
    """Ordered set partitions (OEIS A000670)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(factorial(m) // (factorial(k) * factorial(m - k)) * a[m - k]
                     for k in range(1, m + 1)))
    return a[n]


def little_schroeder(n):
    """OEIS A001003, indexed so that A_{n-1} has little_schroeder(n) faces."""
    s = [1, 1]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


def tamari_intervals(n):
    """Intervals of the Tamari lattice T_n (Chapoton 2006); type A_{n-1}."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


# OEIS terms with no closed form, indexed by n for type A_{n-1}.
LABELED_POSETS = {3: 19, 4: 219, 5: 4231, 6: 130023}      # A001035
WEAK_ORDER_INTERVALS = {3: 17, 4: 151, 5: 1899, 6: 31711}  # A007767


def parse_literal(text):
    """Coordinate vectors of a set literal such as ``+[1,0],-[0,1]``."""
    out = set()
    for part in text.replace("],", "]|").split("|"):
        if part:
            sign = -1 if part[0] == "-" else 1
            out.add(tuple(sign * int(t) for t in part[2:-1].split(",")))
    return out


def is_closed(vs, all_roots):
    """No sum of two members (a member twice included) is a root outside."""
    vs = list(vs)
    inside = set(vs)
    for x in range(len(vs)):
        for y in range(x, len(vs)):
            s = tuple(p + q for p, q in zip(vs[x], vs[y]))
            if s in all_roots and s not in inside:
                return False
    return True


def is_antisymmetric(vs):
    return not any(tuple(-c for c in v) in vs for v in vs)


def grade(vs):
    """|R-| - |R+|."""
    return sum(1 if sum(v) < 0 else -1 for v in vs)


def le(rs, ss):
    """R <= S in the weak order: R+ contains S+ and R- is inside S-."""
    return (all(v in rs for v in ss if sum(v) > 0)
            and all(v in ss for v in rs if sum(v) < 0))


def covers_one_grade_apart(sets, less):
    """Comparable pairs whose grades differ by one; the covers of a family
    graded by ``grade`` (R < S forces grade(R) < grade(S))."""
    by_grade = {}
    for g, r in sets:
        by_grade.setdefault(g, []).append(r)
    return sum(1 for g, lows in by_grade.items()
               for r in lows for s in by_grade.get(g + 1, ()) if less(r, s))


class Coords:
    """A library root system read as integer coordinates.

    ``own`` is the root set generated here; ``matches`` says whether the
    library's coordinate table is the same set.  Membership questions use
    ``own`` only.
    """

    def __init__(self, system, label):
        self.own = roots(label)
        self.vec = [tuple(c) for c in system.int_coords]
        self.index = {v: i for i, v in enumerate(self.vec)}
        self.matches = set(self.vec) == self.own
        self.pos = sum(1 << i for i, v in enumerate(self.vec) if sum(v) > 0)
        self.neg = sum(1 << i for i, v in enumerate(self.vec) if sum(v) < 0)
        self.negation = [self.index[tuple(-c for c in v)] for v in self.vec]
        a = cartan(label)
        self.reflections = [[self.index[reflect(a, i, v)] for v in self.vec]
                            for i in range(len(a))]

    def members(self, bits):
        return {self.vec[i] for i in range(len(self.vec)) if (bits >> i) & 1}

    def grade(self, bits):
        return (bits & self.neg).bit_count() - (bits & self.pos).bit_count()

    def le(self, rbits, sbits):
        """Bitset form of ``le``."""
        return (sbits & self.pos) & ~rbits == 0 and (rbits & self.neg) & ~sbits == 0

    def graded_covers(self, bits_list):
        return covers_one_grade_apart(
            [(self.grade(b), b) for b in bits_list], self.le)

    def permuter(self, images):
        """Function applying a root permutation to bitsets, by byte tables."""
        n = len(images)
        tables = []
        for lo in range(0, n, 8):
            t = [0] * 256
            for byte in range(256):
                for k in range(8):
                    if (byte >> k) & 1 and lo + k < n:
                        t[byte] |= 1 << images[lo + k]
            tables.append((lo, t))

        def apply(bits):
            out = 0
            for lo, t in tables:
                out |= t[(bits >> lo) & 255]
            return out
        return apply
