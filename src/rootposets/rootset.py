"""Subsets of a root system as bitsets, and the closure machinery on them.

A RootSet is an immutable (system, bits) pair.  Bit i corresponds to root
index i of the owning system, so the positive part, negative part and
negation are single mask operations.  The closure operator, the negative
and positive closure deletions, convexity, and the classification
predicates (symmetric / antisymmetric / closed / semiclosed / poset)
all live here; the exhaustive closure deletion doubles as the tests'
oracle for the fast one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .coeff import Coeff
from .errors import ContractViolationError, UnsupportedOperationError

_COEFF_ZERO = Coeff(0)


class RootSet:
    """An immutable subset of the roots of one system."""

    __slots__ = ("system", "bits")

    def __init__(self, system, bits=0):
        self.system = system
        self.bits = bits

    @classmethod
    def from_indices(cls, system, indices):
        bits = 0
        for i in indices:
            if not 0 <= i < system.num_roots:
                raise ContractViolationError(f"root index {i} out of range")
            bits |= 1 << i
        return cls(system, bits)

    @classmethod
    def positive_roots(cls, system):
        return cls(system, system.pos_mask)

    @classmethod
    def negative_roots(cls, system):
        return cls(system, system.neg_mask)

    @classmethod
    def all_roots(cls, system):
        return cls(system, system.full_mask)

    # -- set algebra -------------------------------------------------------

    def _check_same(self, other):
        if self.system.label != other.system.label:
            raise ContractViolationError(
                f"mixed systems {self.system.label} and {other.system.label}")

    def union(self, other):
        self._check_same(other)
        return RootSet(self.system, self.bits | other.bits)

    def positive_part(self):
        return RootSet(self.system, self.bits & self.system.pos_mask)

    def negative_part(self):
        return RootSet(self.system, self.bits & self.system.neg_mask)

    def add(self, index):
        return RootSet(self.system, self.bits | (1 << index))

    def grade(self):
        """|R^-| - |R^+|, the rank function of the graded weak-order levels."""
        neg = (self.bits & self.system.neg_mask).bit_count()
        return neg - (self.bits & self.system.pos_mask).bit_count()

    def __contains__(self, index):
        return (self.bits >> index) & 1 == 1

    def __iter__(self):
        return iter(_indices(self.bits))

    def __len__(self):
        return self.bits.bit_count()

    def __eq__(self, other):
        return (isinstance(other, RootSet)
                and self.system.label == other.system.label
                and self.bits == other.bits)

    def __hash__(self):
        return hash((self.system.label, self.bits))

    def __repr__(self):
        return f"RootSet({self.system.label}, {{{format_set_literal(self)}}})"


@dataclass(frozen=True)
class SubsetClassification:
    symmetric: bool
    antisymmetric: bool
    closed: bool
    semiclosed: bool
    poset: bool


def _closed_bits(system, bits):
    indices = _indices(bits)
    table = system.sum_table
    for a, i in enumerate(indices):
        row = table[i]
        for j in indices[a:]:
            k = row[j]
            if k >= 0 and not (bits >> k) & 1:
                return False
    return True


def _indices(bits):
    """The set bits of ``bits``, ascending.  Clearing the top bit first
    keeps the remaining int short, which is faster on wide masks."""
    out = []
    while bits:
        k = bits.bit_length() - 1
        out.append(k)
        bits ^= 1 << k
    out.reverse()
    return out


def classify(rset):
    """Classification flags of a subset.

    On non-crystallographic systems the closed flag means pairwise-sum
    closedness only; the stronger multiset conditions are not equivalent
    there.
    """
    system, bits = rset.system, rset.bits
    neg_image = system.negate_bits(bits)
    symmetric = neg_image == bits
    antisymmetric = (neg_image & bits) == 0
    closed = _closed_bits(system, bits)
    semiclosed = (_closed_bits(system, bits & system.pos_mask)
                  and _closed_bits(system, bits & system.neg_mask))
    return SubsetClassification(
        symmetric=symmetric,
        antisymmetric=antisymmetric,
        closed=closed,
        semiclosed=semiclosed,
        poset=antisymmetric and closed,
    )


def closure_bits(system, bits):
    """Pairwise-sum fixpoint as raw bits; valid closure for crystallographic."""
    table = system.sum_table
    work = _indices(bits)
    members = list(work)
    while work:
        nxt = []
        for i in work:
            row = table[i]
            for j in members:
                k = row[j]
                if k >= 0 and not (bits >> k) & 1:
                    bits |= 1 << k
                    nxt.append(k)
                    members.append(k)
        work = nxt
    return bits


def closure(rset):
    """Smallest closed superset, cl(R) = NR intersect Phi (crystallographic only)."""
    if not rset.system.crystallographic:
        raise UnsupportedOperationError(
            "closure is only the pairwise fixpoint on crystallographic systems")
    return RootSet(rset.system, closure_bits(rset.system, rset.bits))


# -- closure deletions ------------------------------------------------------
#
# A root a of one sign is deleted when a + v lands in Phi \ R for some
# nonzero v in the N-span of the opposite-sign part of R.  Multiplicities
# matter: in G2, pcd must e.g. subtract a2 twice from a1+2a2 to fall out
# of the set, and with plain one-shot subsets the meet/join formulas of
# the closed level stop returning bounds.

def _deletable_exhaustive(system, bits, alpha, source_indices):
    """Exhaustive sweep of alpha + N(sources), oracle-grade.

    Walks the coefficient lattice itself (not just root-valued sums), so
    it is independent of the chain/filtration theory that justifies the
    fast path.  The sources all share one sign, so every coordinate is
    monotone along the walk; pruning at the coordinate range of the
    roots therefore loses nothing and guarantees termination.
    """
    if not source_indices:
        return False
    ascending = system.is_positive(source_indices[0])
    coords = system.int_coords
    if coords is not None:
        lookup = system.index_of_int_coords
        cmax = max(abs(c) for row in coords for c in row)
        start = coords[alpha]
        gens = [coords[i] for i in source_indices]
        if ascending:
            inside = lambda p: all(c <= cmax for c in p)
        else:
            inside = lambda p: all(c >= -cmax for c in p)
    else:
        lookup = system.index_of_coords
        hmax = max(abs(r.height) for r in system.roots)
        start = system.roots[alpha].coords
        gens = [system.roots[i].coords for i in source_indices]
        if ascending:
            inside = lambda p: sum(p, _COEFF_ZERO) <= hmax
        else:
            inside = lambda p: -hmax <= sum(p, _COEFF_ZERO)

    seen = {start}
    stack = [start]
    while stack:
        point = stack.pop()
        for g in gens:
            q = tuple(a + b for a, b in zip(point, g))
            if q in seen or not inside(q):
                continue
            k = lookup.get(q)
            if k is not None and not (bits >> k) & 1:
                return True
            seen.add(q)
            stack.append(q)
    return False


def _deletable_fast(system, bits, alpha, source_indices):
    """Chain search: reach Phi \\ R from alpha by adding source roots,
    every partial sum again a root.

    Complete for semiclosed crystallographic sets: a witness combination
    can be taken with no vanishing subsum, and then admits a filtration
    starting at alpha whose partial sums are all roots.
    """
    table = system.sum_table
    seen = 1 << alpha
    stack = [alpha]
    while stack:
        gamma = stack.pop()
        row = table[gamma]
        for beta in source_indices:
            k = row[beta]
            if k < 0:
                continue
            if not (bits >> k) & 1:
                return True
            if not (seen >> k) & 1:
                seen |= 1 << k
                stack.append(k)
    return False


def deletion_bits(system, bits, side, fast):
    """closure_deletion on raw bits; ``fast`` picks the chain search, which
    is complete only on semiclosed input of a crystallographic system."""
    if side == "negative":
        victims, sources = bits & system.neg_mask, bits & system.pos_mask
    else:
        victims, sources = bits & system.pos_mask, bits & system.neg_mask
    test = _deletable_fast if fast else _deletable_exhaustive
    sources = _indices(sources)
    out = bits
    for alpha in _indices(victims):
        if test(system, bits, alpha, sources):
            out &= ~(1 << alpha)
    return out


def closure_deletion(rset, side):
    """ncd (side='negative') or pcd (side='positive') of a subset.

    The fast path, taken when its preconditions hold, requires a
    semiclosed crystallographic input; the exhaustive path accepts
    anything.
    """
    if side not in ("negative", "positive"):
        raise ContractViolationError("side must be 'negative' or 'positive'")
    system, bits = rset.system, rset.bits
    fast = (system.crystallographic
            and _closed_bits(system, bits & system.pos_mask)
            and _closed_bits(system, bits & system.neg_mask))
    return RootSet(system, deletion_bits(system, bits, side, fast))


# -- convexity ---------------------------------------------------------------

def is_convex(rset):
    """Is R the trace on Phi of a convex cone, i.e. Phi meet cone(R) = R?"""
    system = rset.system
    if system.rank > 4:
        raise ContractViolationError("convexity decision is limited to rank <= 4")
    gens = [system.roots[i].coords for i in rset]
    if not gens:
        return True
    outside = [i for i in range(system.num_roots) if i not in rset]
    for k in outside:
        target = system.roots[k].coords
        if linalg.in_rational_cone(gens, target, system.rank):
            return False
    return True


# -- textual set literals ------------------------------------------------

def format_set_literal(rset):
    """Comma-separated signed coordinate vectors, e.g. ``+[1,1],-[0,1]``."""
    literals = rset.system.literals
    return ",".join([literals[i] for i in _indices(rset.bits)])


def parse_set_literal(system, text):
    """Inverse of format_set_literal; integer coordinates only."""
    text = text.strip()
    if not text:
        return RootSet(system, 0)
    bits = 0
    pos = 0
    while pos < len(text):
        sign = text[pos]
        if sign not in "+-":
            raise ContractViolationError(f"expected sign at {text[pos:]!r}")
        try:
            open_b = text.index("[", pos)
            close_b = text.index("]", open_b)
            coords = tuple(Coeff(int(t)) for t in text[open_b + 1:close_b].split(","))
        except ValueError:
            raise ContractViolationError(
                f"malformed set literal at {text[pos:]!r}") from None
        if len(coords) != system.rank:
            raise ContractViolationError(
                f"coordinate vector of length {len(coords)} for rank {system.rank}")
        idx = system.index_of_coords.get(coords)
        if idx is None:
            raise ContractViolationError(f"{text[pos:close_b + 1]} is not a root")
        if sign == "-":
            idx = system.neg(idx)
        bits |= 1 << idx
        pos = close_b + 1
        if pos < len(text):
            if text[pos] != ",":
                raise ContractViolationError(f"expected ',' at {text[pos:]!r}")
            pos += 1
    return RootSet(system, bits)
