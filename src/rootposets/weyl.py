"""Weyl/Coxeter group elements, parabolic cosets, and the facial weak order.

Elements are stored as permutations of root indices (the action on Phi),
which makes inversion sets, lengths and images of posets O(1)-ish lookups.
Products with a generator, inverses and the elements named by an
inversion set are read from integer tables built once with the group;
intervals and classes walk the w s_i table.
Reduced words are recovered on demand by stripping left descents.

Every poset attached to the group is an interval poset
R(lo, hi) = R(lo)^- | R(hi)^+ (``interval_bits`` on element-poset bits):
R(w) is R(w, w), and the face xW_I is the interval [x, x w_{o,I}].
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import ContractViolationError, InvariantError, ResourceCapError
from .rootset import RootSet, _indices

GROUP_CAP = 50_000


class WeylElement:
    __slots__ = ("group", "perm", "inv_bits", "length", "id")

    def __init__(self, group, perm, inv_bits, length, ident):
        self.group = group
        self.perm = perm
        self.inv_bits = inv_bits
        self.length = length
        self.id = ident

    @property
    def poset_bits(self):
        """Bits of R(w) = w(Phi^+)."""
        return self.group.poset_bits[self.id]

    def weak_le(self, other):
        return self.inv_bits & ~other.inv_bits == 0

    def descents(self):
        """Left descent set des(w) = inv(w) n Delta, as simple positions 0..n-1."""
        return self.group.descent_cache[self.id]

    def right_descents(self):
        return self.group.right_descent_cache[self.id]

    def word(self):
        """A reduced word over simple positions, by greedy descent stripping.

        Stripping left descents first yields w = s_{i1} s_{i2} ... directly
        in product order.
        """
        g = self.group
        w = self
        out = []
        while w.length:
            s = min(w.descents())
            out.append(s)
            w = g.mult_gen_left(s, w)
        return out

    def __repr__(self):
        return f"W[{format_word(self.word())}]"


def format_word(word):
    return " ".join(f"s{i + 1}" for i in word) if word else "e"


class WeylGroup:
    """The full element table of a finite reflection group.

    Ids follow (length, inversion bits): ``right[i][w]`` is the id of
    w s_i, ``left[i][w]`` of s_i w, ``inverse[w]`` of w^-1, and
    ``_by_inv`` maps inversion bits to ids.
    """

    def __init__(self, system):
        order = system.weyl_order()
        if order > GROUP_CAP:
            raise ResourceCapError(
                f"|W({system.label})| = {order} exceeds the cap {GROUP_CAP}")
        self.system = system
        n = system.num_positive
        simples = system.simple_indices()
        self.simple_root_indices = simples

        # Breadth first from the identity, finding elements by inversion
        # set inv(w) = Phi^+ n w(Phi^-): inv(w s) gains w(alpha_s) when it
        # is positive and loses -w(alpha_s) otherwise.
        perms = [tuple(range(system.num_roots))]
        inv_bits = [0]
        found = {0: 0}
        products = [[] for _ in simples]  # products[i][k]: BFS index of perms[k] s_i
        # right multiplication: (w s)(v) = w(s(v)), so w s is the
        # itemgetter of s applied to w
        steps = [(s, itemgetter(*gp), row) for s, gp, row
                 in zip(simples, system.simple_reflections, products)]
        for k, perm in enumerate(perms):  # perms grows while it is read
            for s, compose, row in steps:
                image = perm[s]
                bits = (inv_bits[k] | 1 << image if image < n
                        else inv_bits[k] & ~(1 << image - n))
                j = found.get(bits)
                if j is None:
                    j = found[bits] = len(perms)
                    perms.append(compose(perm))
                    inv_bits.append(bits)
                row.append(j)
        if len(perms) != order:
            raise InvariantError(
                f"generated {len(perms)} elements of W({system.label}), "
                f"expected {order}")

        # identity first, then by (length, inversion bits) for determinism
        bfs = sorted(range(order),
                     key=lambda k: (inv_bits[k].bit_count(), inv_bits[k]))
        new_id = [0] * order
        for ident, k in enumerate(bfs):
            new_id[k] = ident
        self.elements = [
            WeylElement(self, perms[k], inv_bits[k], inv_bits[k].bit_count(), ident)
            for ident, k in enumerate(bfs)]
        self._by_inv = {w.inv_bits: w.id for w in self.elements}
        self.right = [[new_id[row[k]] for k in bfs] for row in products]
        # inv(w^-1) holds the positive roots that w makes negative: with
        # at most 240 roots, w.perm[:n] fits in bytes, and one translate
        # writes its images as the binary digits of inv(w^-1), root 0 last
        negative = bytes(b"01"[v >= n] for v in range(256))
        self.inverse = [
            self._by_inv[int(bytes(w.perm[n - 1::-1]).translate(negative), 2)]
            for w in self.elements]
        inverse = self.inverse
        # s_i w = (w^-1 s_i)^-1
        self.left = [[inverse[row[inverse[w]]] for w in range(order)]
                     for row in self.right]
        # R(w) = w(Phi^+) = (Phi^+ minus inv(w)) | -inv(w)
        self.poset_bits = [(system.pos_mask & ~w.inv_bits) | w.inv_bits << n
                           for w in self.elements]
        # Positive roots sort by height, so the simple roots are the
        # indices 0..rank-1 and des(w) is read off the low rank bits of
        # inv(w); one frozenset per mask is shared.  The right descents of
        # w are the left descents of w^-1.
        low = (1 << system.rank) - 1
        by_mask = [frozenset(i for i, s in enumerate(simples) if mask >> s & 1)
                   for mask in range(low + 1)]
        self.descent_cache = [by_mask[w.inv_bits & low] for w in self.elements]
        self.right_descent_cache = [self.descent_cache[i] for i in inverse]
        self._parabolic_cache = {}
        self._coxeter_elements = {}  # word -> CoxeterElement, see cambrian

    # -- element access ----------------------------------------------------

    @property
    def identity(self):
        return self.elements[0]

    @property
    def longest(self):
        return self.elements[-1]

    def generator(self, i):
        """The simple reflection s_{i+1} as a group element."""
        return self.elements[self.right[i][0]]

    def mult(self, a, b):
        """Product ab (first apply b, then a, as permutations of roots)."""
        return self._walk(a.id, b.word())

    def mult_gen_left(self, i, w):
        return self.elements[self.left[i][w.id]]

    def mult_gen_right(self, w, i):
        return self.elements[self.right[i][w.id]]

    def inverse_of(self, w):
        return self.elements[self.inverse[w.id]]

    def _walk(self, ident, word):
        """The element (ident) s_{i1} s_{i2} ... for word = (i1, i2, ...)."""
        right = self.right
        for i in word:
            ident = right[i][ident]
        return self.elements[ident]

    def interval(self, lo, cap):
        """Ids of the u >= (id) lo with inv(u) inside the bits cap, breadth
        first over the upper covers u s_i, so cap = inv(hi) gives [lo, hi]:
        a saturated chain from lo to u grows inside inv(u), so u is reached.
        """
        els, right = self.elements, self.right
        if els[lo].inv_bits & ~cap:
            return []
        out, seen = [lo], {lo}
        for u in out:  # out grows while it is read
            bits = els[u].inv_bits
            for row in right:
                v = row[u]
                # inv(u s_i) gains or loses one root, so > means a cover
                vbits = els[v].inv_bits
                if vbits > bits and vbits & ~cap == 0 and v not in seen:
                    seen.add(v)
                    out.append(v)
        return out

    def interval_classes(self, key):
        """The fibers of key on W, {value: members in id order}, each
        checked to be the interval from its shortest member to its
        longest."""
        fibers = {}
        for w in self.elements:
            fibers.setdefault(key(w), []).append(w)
        for value, members in fibers.items():
            walk = sorted(self.interval(members[0].id, members[-1].inv_bits))
            if walk != [w.id for w in members]:
                raise InvariantError(
                    f"{self.system.label}: the fiber {value!r} is not the "
                    f"interval [{members[0]!r}, {members[-1]!r}]")
        return fibers

    # -- parabolic data ------------------------------------------------------

    def parabolic_data(self, subset):
        """(root bits of Phi_I^+, longest element w_{o,I}) for I a frozenset."""
        subset = frozenset(subset)
        got = self._parabolic_cache.get(subset)
        if got is not None:
            return got
        system = self.system
        rank = system.rank
        span_bits = 0
        # entry j of an int vector belongs to the simple root j % rank
        for i, v in enumerate(system.int_coords[:system.num_positive]):
            if all(j % rank in subset for j, x in enumerate(v) if x):
                span_bits |= 1 << i
        # w_{o,I} is the element whose inversion set is Phi_I^+
        ident = self._by_inv.get(span_bits)
        if ident is None:
            raise InvariantError(
                f"{system.label}: no element has the inversion set Phi_I^+ "
                f"for I = {sorted(subset)}")
        out = (span_bits, self.elements[ident])
        self._parabolic_cache[subset] = out
        return out


def weyl_group(system):
    """Generate (or fetch the cached) group of a root system."""
    if system._group is None:
        system._group = WeylGroup(system)
    return system._group


class ParabolicCoset(NamedTuple):
    """Standard parabolic coset xW_I with x its minimal-length representative."""
    x: WeylElement
    subset: frozenset  # simple positions 0..n-1
    w_long: WeylElement  # x * w_{o,I}, the coset maximum

    def __repr__(self):
        inner = ",".join(str(i + 1) for i in sorted(self.subset))
        return f"{format_word(self.x.word())}|{{{inner}}}"


def make_coset(group, x, subset):
    subset = frozenset(subset)
    if subset & x.right_descents():
        raise ContractViolationError(
            "representative has a right descent inside the parabolic subset")
    _, w_oi = group.parabolic_data(subset)
    return ParabolicCoset(x=x, subset=subset, w_long=group.mult(x, w_oi))


def enumerate_cosets(group):
    """Every standard parabolic coset (x, I), each exactly once."""
    masks = sorted(range(1 << group.system.rank),
                   key=lambda mask: (mask.bit_count(), _indices(mask)))
    # the right descents of each x as bits of simple positions, like I,
    # summed once per distinct (shared) descent set
    cache = group.right_descent_cache
    bits = {d: sum(1 << i for i in d) for d in set(cache)}
    descents = [bits[d] for d in cache]
    out = []  # ordered by (|I|, sorted I, x.id)
    for mask in masks:
        subset = frozenset(_indices(mask))
        word = group.parabolic_data(subset)[1].word()  # of w_{o,I}
        for x, d in zip(group.elements, descents):
            if not d & mask:
                out.append(ParabolicCoset(x=x, subset=subset,
                                          w_long=group._walk(x.id, word)))
    return out


# -- interval posets ----------------------------------------------------------

def interval_bits(system, lo, hi):
    """Bits of R(lo)^- | R(hi)^+ from the element-poset bits lo and hi."""
    return (lo & system.neg_mask) | (hi & system.pos_mask)


def interval_poset(group, lo, hi):
    """R(lo, hi) = R(lo)^- | R(hi)^+; requires lo <= hi in weak order."""
    if not lo.weak_le(hi):
        raise ContractViolationError("interval endpoints are not comparable")
    return RootSet(group.system,
                   interval_bits(group.system, lo.poset_bits, hi.poset_bits))


# -- facial weak order ---------------------------------------------------------

def facial_le(a, b):
    """xW_I <= yW_J iff x <= y and x w_{o,I} <= y w_{o,J}."""
    return a.x.weak_le(b.x) and a.w_long.weak_le(b.w_long)
