"""Weyl/Coxeter group elements, parabolic cosets, and the facial weak order.

Elements are stored as permutations of root indices (the action on Phi),
which makes inversion sets, lengths and images of posets O(1)-ish lookups.
Reduced words are recovered on demand by stripping left descents.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def apply(self, root_index):
        return self.perm[root_index]

    def weak_le(self, other):
        return self.inv_bits & ~other.inv_bits == 0

    def descents(self):
        """Left descent set des(w) = inv(w) n Delta, as simple positions 0..n-1."""
        return self.group.descent_cache[self.id]

    def right_descents(self):
        return self.group.right_descent_cache[self.id]

    def inverse(self):
        return self.group.inverse_of(self)

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
    """The full element table of a finite reflection group."""

    def __init__(self, system, cap=GROUP_CAP):
        order = system.weyl_order()
        if order > cap:
            raise ResourceCapError(
                f"|W({system.label})| = {order} exceeds the cap {cap}")
        self.system = system
        n2 = system.num_roots
        simples = system.simple_indices()
        self.simple_root_indices = simples
        gen_perms = []
        for s in simples:
            gen_perms.append(tuple(system.reflect(s, t) for t in range(n2)))
        self.gen_perms = gen_perms

        identity = tuple(range(n2))
        perms = {identity: 0}
        elements = [identity]
        frontier = [identity]
        while frontier:
            nxt = []
            for perm in frontier:
                for gp in gen_perms:
                    # right multiplication: (w s)(v) = w(s(v))
                    new = tuple(perm[gp[t]] for t in range(n2))
                    if new not in perms:
                        perms[new] = len(elements)
                        elements.append(new)
                        nxt.append(new)
            frontier = nxt
        if len(elements) != order:
            raise InvariantError(
                f"generated {len(elements)} elements of W({system.label}), "
                f"expected {order}")

        pos_mask = system.pos_mask
        neg_start = system.num_positive
        self.elements = []
        self._by_perm = perms
        for ident, perm in enumerate(elements):
            inv_bits = 0
            for j in range(neg_start, n2):
                image = perm[j]
                if image < neg_start:
                    inv_bits |= 1 << image
            w = WeylElement(self, perm, inv_bits, inv_bits.bit_count(), ident)
            self.elements.append(w)
        # identity first, then by (length, inversion bits) for determinism
        self.elements.sort(key=lambda w: (w.length, w.inv_bits))
        self._by_perm = {w.perm: i for i, w in enumerate(self.elements)}
        for i, w in enumerate(self.elements):
            w.id = i
        self.poset_bits = [self._poset_bits_of(w) for w in self.elements]
        simple_pos = {s: i for i, s in enumerate(simples)}
        self.descent_cache = [
            frozenset(simple_pos[s] for s in simples if (w.inv_bits >> s) & 1)
            for w in self.elements]
        self.right_descent_cache = [
            frozenset(i for i, s in enumerate(simples)
                      if w.perm[s] >= neg_start)
            for w in self.elements]
        self._longest = max(self.elements, key=lambda w: w.length)
        self._inverse_ids = None
        self._meet_cache = {}
        self._join_cache = {}
        self._parabolic_cache = {}
        self._coxeter_elements = {}  # word -> CoxeterElement, see cambrian
        self._woip_interval_cache = {}  # set bits -> (v, w), see families

    def _poset_bits_of(self, w):
        bits = 0
        for i in range(self.system.num_positive):
            bits |= 1 << w.perm[i]
        return bits

    # -- element access ----------------------------------------------------

    @property
    def identity(self):
        return self.elements[0]

    @property
    def longest(self):
        return self._longest

    def generator(self, i):
        """The simple reflection s_{i+1} as a group element."""
        return self.elements[self._by_perm[self.gen_perms[i]]]

    def by_perm(self, perm):
        return self.elements[self._by_perm[perm]]

    def mult(self, a, b):
        """Product ab (first apply b, then a, as permutations of roots)."""
        pa, pb = a.perm, b.perm
        return self.by_perm(tuple(pa[pb[t]] for t in range(self.system.num_roots)))

    def mult_gen_left(self, i, w):
        gp = self.gen_perms[i]
        return self.by_perm(tuple(gp[w.perm[t]] for t in range(self.system.num_roots)))

    def mult_gen_right(self, w, i):
        gp = self.gen_perms[i]
        return self.by_perm(tuple(w.perm[gp[t]] for t in range(self.system.num_roots)))

    def inverse_of(self, w):
        if self._inverse_ids is None:
            self._inverse_ids = [None] * len(self.elements)
            for x in self.elements:
                inv = [0] * len(x.perm)
                for t, image in enumerate(x.perm):
                    inv[image] = t
                self._inverse_ids[x.id] = self._by_perm[tuple(inv)]
        return self.elements[self._inverse_ids[w.id]]

    def from_word(self, word):
        w = self.identity
        for i in word:
            w = self.mult_gen_right(w, i)
        return w

    # -- weak order --------------------------------------------------------

    def weak_meet(self, a, b):
        """Greatest lower bound in the (right) weak order."""
        key = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
        got = self._meet_cache.get(key)
        if got is not None:
            return got
        cap = a.inv_bits & b.inv_bits
        best = self.identity
        for w in self.elements:
            if w.inv_bits & ~cap == 0 and w.length > best.length:
                best = w
        # glb sanity: every common lower bound must sit below best
        for w in self.elements:
            if w.inv_bits & ~cap == 0 and not w.weak_le(best):
                raise InvariantError("weak order meet failed to be a glb")
        self._meet_cache[key] = best
        return best

    def weak_join(self, a, b):
        key = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
        got = self._join_cache.get(key)
        if got is not None:
            return got
        cup = a.inv_bits | b.inv_bits
        best = None
        for w in self.elements:
            if cup & ~w.inv_bits == 0:
                if best is None or w.length < best.length:
                    best = w
        for w in self.elements:
            if cup & ~w.inv_bits == 0 and not best.weak_le(w):
                raise InvariantError("weak order join failed to be a lub")
        self._join_cache[key] = best
        return best

    # -- parabolic data ------------------------------------------------------

    def parabolic_data(self, subset):
        """(root bits of Phi_I^+, longest element w_{o,I}) for I a frozenset."""
        subset = frozenset(subset)
        got = self._parabolic_cache.get(subset)
        if got is not None:
            return got
        system = self.system
        span_bits = 0
        for i in range(system.num_positive):
            coords = system.roots[i].coords
            if all(not coords[j] or j in subset for j in range(system.rank)):
                span_bits |= 1 << i
        w_long = self.identity
        for w in self.elements:
            if w.inv_bits & ~span_bits == 0 and w.length > w_long.length:
                w_long = w
        if w_long.inv_bits != span_bits:
            raise InvariantError("longest parabolic element has wrong inversions")
        out = (span_bits, w_long)
        self._parabolic_cache[subset] = out
        return out


def weyl_group(system, cap=GROUP_CAP):
    """Generate (or fetch the cached) group of a root system."""
    if system._group is None:
        system._group = WeylGroup(system, cap)
    return system._group


@dataclass(frozen=True)
class ParabolicCoset:
    """Standard parabolic coset xW_I with x its minimal-length representative."""
    x: WeylElement
    subset: frozenset  # simple positions 0..n-1
    w_long: WeylElement  # x * w_{o,I}, the coset maximum

    def interval(self):
        return (self.x, self.w_long)

    def members(self):
        g = self.x.group
        lo, hi = self.x, self.w_long
        return [w for w in g.elements if lo.weak_le(w) and w.weak_le(hi)]

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
    n = group.system.rank
    out = []
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if (mask >> i) & 1)
        _, w_oi = group.parabolic_data(subset)
        for x in group.elements:
            if not subset & x.right_descents():
                out.append(ParabolicCoset(x=x, subset=subset,
                                          w_long=group.mult(x, w_oi)))
    out.sort(key=lambda c: (len(c.subset), sorted(c.subset), c.x.id))
    return out


# -- posets attached to elements / intervals / cosets -------------------------

def element_poset(group, w):
    """R(w) = w(Phi^+)."""
    return RootSet(group.system, w.poset_bits)


def interval_poset(group, lo, hi):
    """R(lo, hi) = R(lo)^- | R(hi)^+; requires lo <= hi in weak order."""
    if not lo.weak_le(hi):
        raise ContractViolationError("interval endpoints are not comparable")
    system = group.system
    bits = (lo.poset_bits & system.neg_mask) | (hi.poset_bits & system.pos_mask)
    return RootSet(system, bits)


def coset_poset(group, coset):
    """R(xW_I) = x(Phi^+ \\ Phi_I^+)."""
    system = group.system
    span_bits, _ = group.parabolic_data(coset.subset)
    bits = 0
    perm = coset.x.perm
    for i in _indices(system.pos_mask & ~span_bits):
        bits |= 1 << perm[i]
    return RootSet(system, bits)


# -- facial weak order ---------------------------------------------------------

def facial_le(a, b):
    """xW_I <= yW_J iff x <= y and x w_{o,I} <= y w_{o,J}."""
    return a.x.weak_le(b.x) and a.w_long.weak_le(b.w_long)


def _coset_from_pair(group, z, subset):
    """Coset z W_subset given any representative z."""
    subset = frozenset(subset)
    _, w_oi = group.parabolic_data(subset)
    x = z
    # strip right descents inside subset to reach the minimal representative
    moved = True
    while moved:
        moved = False
        for i in subset & x.right_descents():
            x = group.mult_gen_right(x, i)
            moved = True
            break
    return ParabolicCoset(x=x, subset=subset, w_long=group.mult(x, w_oi))


def facial_meet(group, a, b):
    z = group.weak_meet(a.x, b.x)
    t = group.weak_meet(a.w_long, b.w_long)
    u = group.mult(group.inverse_of(z), t)
    coset = _coset_from_pair(group, z, u.descents())
    if coset.x.perm != z.perm:
        raise InvariantError("facial meet representative is not minimal")
    return coset


def facial_join(group, a, b):
    z = group.weak_join(a.w_long, b.w_long)
    t = group.weak_join(a.x, b.x)
    u = group.mult(group.inverse_of(z), t)
    coset = _coset_from_pair(group, z, u.descents())
    if coset.w_long.perm != z.perm:
        raise InvariantError("facial join maximum mismatch")
    return coset
