"""Subsets of a root system as bitsets, and the closure machinery on them.

A RootSet is an immutable (system, bits) pair.  Bit i corresponds to root
index i of the owning system, so the positive part, negative part and
negation are single mask operations.  The closure operator, the negative
and positive closure deletions, convexity, and the classification
predicates (symmetric / antisymmetric / closed / semiclosed / poset)
all live here; the exhaustive closure deletion, a walk on the roots' int
vectors on every type, doubles as the tests' oracle for the fast one.
RootSets keeps a listing as its bits and builds a RootSet when one is read.
``Coeff`` is read only by the set literals and by convexity.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import product, repeat
from typing import NamedTuple

from . import linalg
from .coeff import Coeff
from .errors import ContractViolationError, UnsupportedOperationError
from .rootsys import DIGITS


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

    # -- set algebra -------------------------------------------------------

    def _check_same(self, other):
        if self.system.label != other.system.label:
            raise ContractViolationError(
                f"mixed systems {self.system.label} and {other.system.label}")

    def add(self, index):
        return RootSet(self.system, self.bits | (1 << index))

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


def sort_by_grade(system, bits):
    """Sort the list ``bits`` in place into canonical order, and return it:
    by bits, then stably by the grade |R^-| - |R^+| = |R ^ Phi^+| - |Phi^+|,
    faster than by the pair (grade, bits)."""
    bits.sort()
    bits.sort(key=lambda b: (b ^ system.pos_mask).bit_count())
    return bits


class RootSets(Sequence):
    """A read-only sequence of subsets of one system kept as ``bits``, a
    list or range of ints, so an int per set and no object the collector
    tracks: an element read is a new RootSet, a slice a list of them, and
    ``in`` tests the bits.  Equal to a list, tuple or RootSets of equal
    RootSets, in order; unhashable."""

    __slots__ = ("system", "bits")

    def __init__(self, system, bits):
        self.system = system
        self.bits = bits

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(RootSet, repeat(self.system), self.bits[index]))
        return RootSet(self.system, self.bits[index])

    def __iter__(self):
        return map(RootSet, repeat(self.system), self.bits)

    def __contains__(self, rset):
        return (isinstance(rset, RootSet) and rset.bits in self.bits
                and rset.system.label == self.system.label)

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, RootSets)):
            return NotImplemented
        return list(self) == list(other)


class SubsetClassification(NamedTuple):
    symmetric: bool
    antisymmetric: bool
    closed: bool
    semiclosed: bool
    poset: bool


# the 16 possible records, indexed by symmetric, antisymmetric, closed,
# semiclosed as bits 3..0; classify returns one of these
_CLASSIFICATIONS = tuple(
    SubsetClassification(s, a, c, sc, a and c)
    for s, a, c, sc in product((False, True), repeat=4))


def _closed_flags(system, bits, mixed=True):
    """(closed, semiclosed) from one sweep over each member's summing
    partners.  A sum of two roots of one sign has that sign, so a
    same-sign pair whose sum is missing breaks both and ends the sweep; a
    mixed pair breaks only closedness.  ``mixed=False`` sweeps only the
    same-sign pairs: enough for semiclosed, and for a set of one sign."""
    partners = system.sum_partners[mixed]
    closed = True
    for i in _indices(bits):
        for partner, total, same in partners[i]:
            if bits & partner and not bits & total:
                if same:
                    return False, False
                closed = False
    return closed, True


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
    closed, semiclosed = _closed_flags(system, bits)
    return _CLASSIFICATIONS[(neg_image == bits) << 3
                            | (not neg_image & bits) << 2
                            | closed << 1 | semiclosed]


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

    Walks the lattice of int vectors itself (not just root-valued sums),
    so it is independent of the chain/filtration theory that justifies
    the fast path.  The sources all share one sign, and every integer of
    a root has the root's sign, so every integer moves one way along the
    walk, on the H and I types as on the crystallographic ones; pruning
    at the integers' range over the roots therefore loses nothing and
    guarantees termination.
    """
    if not source_indices:
        return False
    coords, lookup = system.int_coords, system.index_of_int_coords
    cmax = max(abs(c) for row in coords for c in row)
    if system.is_positive(source_indices[0]):
        inside = lambda p: max(p) <= cmax
    else:
        inside = lambda p: min(p) >= -cmax
    gens = [coords[i] for i in source_indices]
    seen = {coords[alpha]}
    stack = [coords[alpha]]
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


def _chain_reach(system, alpha, source_indices):
    """The roots reached from alpha by adding source roots, every partial
    sum again a root, as a mask.

    The fast deletion: alpha is deleted from R iff the reach leaves R.  A
    chain search that stops at the first sum outside R finds the same
    roots up to that one.  Complete for semiclosed crystallographic sets:
    a witness combination can be taken with no vanishing subsum, and then
    admits a filtration starting at alpha whose partial sums are all roots.
    """
    table = system.sum_table
    seen = 0
    stack = [alpha]
    while stack:
        row = table[stack.pop()]
        for beta in source_indices:
            k = row[beta]
            if k >= 0 and not (seen >> k) & 1:
                seen |= 1 << k
                stack.append(k)
    return seen


def deletion_bits(system, bits, side, fast, reach=None):
    """closure_deletion on raw bits; ``fast`` picks the chain search, which
    is complete only on semiclosed input of a crystallographic system.
    ``reach``, a dict the caller keeps for one set of sources, holds the
    _chain_reach of each victim met so far."""
    if side == "negative":
        victims, sources = bits & system.neg_mask, bits & system.pos_mask
    else:
        victims, sources = bits & system.pos_mask, bits & system.neg_mask
    sources = _indices(sources)
    if reach is None:
        reach = {}
    out = bits
    for alpha in _indices(victims):
        if fast:
            if alpha not in reach:
                reach[alpha] = _chain_reach(system, alpha, sources)
            gone = reach[alpha] & ~bits
        else:
            gone = _deletable_exhaustive(system, bits, alpha, sources)
        if gone:
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
    fast = system.crystallographic and _closed_flags(system, bits, mixed=False)[1]
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
    """Comma-separated signed coordinate vectors, e.g. ``+[1,1],-[0,1]``,
    joined from the system's per-byte table, one entry per nonzero byte."""
    rows = rset.system.byte_literals
    data = rset.bits.to_bytes(len(rows), "little")
    return ",".join([row[b] for row, b in zip(rows, data) if b])


def _parse_coord(token):
    """One coordinate as str(Coeff) prints it: ``2``, ``1p`` or ``1+1p``,
    each number DIGITS, with spaces around it allowed."""
    got = re.fullmatch(rf"({DIGITS})|(?:({DIGITS})\+)?({DIGITS})p", token.strip())
    if got is None:
        raise ValueError(f"bad coordinate {token!r}")
    if got[1]:
        return Coeff(int(got[1]))
    return Coeff(int(got[2] or 0), int(got[3]))


def parse_set_literal(system, text):
    """Inverse of format_set_literal."""
    text = text.strip()
    if not text:
        return RootSet(system, 0)
    bits = 0
    pos = 0
    while True:
        sign = text[pos:pos + 1]
        if sign not in ("+", "-"):
            raise ContractViolationError(f"expected sign at {text[pos:]!r}")
        try:
            open_b = text.index("[", pos)
            close_b = text.index("]", open_b)
            coords = tuple(map(_parse_coord, text[open_b + 1:close_b].split(",")))
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
        pos = len(text) - len(text[close_b + 1:].lstrip())
        if pos == len(text):
            return RootSet(system, bits)
        if text[pos] != ",":
            raise ContractViolationError(f"expected ',' at {text[pos:]!r}")
        pos = len(text) - len(text[pos + 1:].lstrip())
