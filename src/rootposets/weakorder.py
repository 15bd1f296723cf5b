"""The weak order on subsets of roots, its level lattices, and a verifier.

Level formulas (meet shown; join is the mirror image):

    All         (R+ u S+) | (R- n S-)
    Antisym     same formulas, antisymmetry is preserved
    Semiclosed  cl(R+ u S+) | (R- n S-)
    Closed      ncd( cl(R+ u S+) | (R- n S-) )
    Posets      Closed formulas; they preserve antisymmetry

verify_lattice certifies lattice-ness of an explicit family from its
cover graph: a finite bounded poset is a lattice iff every two elements
covering a common element have a join (Bjorner-Edelman-Ziegler 1990,
Lemma 2.1), so only pairs of upper covers of one element are tested.
Its witness, and its check of a level formula, come from one search,
first_rejected_pair.  A formula, a glb and a lub each read a pair only
through its key, the all-level meet (join): with f = bits ^ Phi+ the
members below R and S are those with f inside f_R & f_S, an AND of one
column of members per root.  So the keys are gathered row by row, each
distinct key is tested once, for a glb (lub) and, with a formula, for
the formula naming it, and only the first row with a rejected key is
walked pair by pair.  On level members the set handed to ncd/pcd is
semiclosed by construction (a closure on one side, an intersection of
closed sets on the other), so the fast deletion applies after checking
the one half, with no full classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress
from operator import and_
from typing import Optional

from .errors import ContractViolationError, ResourceCapError, UnsupportedOperationError
from .rootset import RootSet, _closed_bits, _indices, classify, closure_bits, deletion_bits

VERIFY_CAP = 5000
HASSE_CAP = 10_000
BUILD_CAP = 1_000_000  # sets that `families build` lists


class Level(enum.Enum):
    ALL = "all"
    ANTISYM = "antisym"
    SEMICLOSED = "semiclosed"
    CLOSED = "closed"
    POSETS = "posets"

    @classmethod
    def named(cls, name):
        """The level called ``name``, or None when it names no level."""
        try:
            return cls(name)
        except ValueError:
            return None


def weak_le(rset, sset):
    """R <= S iff R+ contains S+ and R- is contained in S-."""
    rset._check_same(sset)
    return weak_le_bits(rset.system, rset.bits, sset.bits)


def weak_le_bits(system, rbits, sbits):
    rp, sp = rbits & system.pos_mask, sbits & system.pos_mask
    rn, sn = rbits & system.neg_mask, sbits & system.neg_mask
    return (rp | sp) == rp and (rn & sn) == rn


def _level_member(system, bits, level):
    flags = classify(RootSet(system, bits))
    if level is Level.ALL:
        return True
    if level is Level.ANTISYM:
        return flags.antisymmetric
    if level is Level.SEMICLOSED:
        return flags.semiclosed
    if level is Level.CLOSED:
        return flags.closed
    return flags.poset


def lattice_op_bits(system, level, direction, rbits, sbits):
    """Meet or join at a level, raw-bits variant without membership checks."""
    if direction == "meet":
        grown, kept, side = system.pos_mask, system.neg_mask, "negative"
    elif direction == "join":
        grown, kept, side = system.neg_mask, system.pos_mask, "positive"
    else:
        raise ContractViolationError("direction must be 'meet' or 'join'")
    key = ((rbits | sbits) & grown) | (rbits & sbits & kept)
    if level in (Level.ALL, Level.ANTISYM):
        return key
    out = closure_bits(system, key & grown) | (key & kept)
    if level in (Level.CLOSED, Level.POSETS):
        # the grown half is closed: the fast deletion is complete iff the kept one is
        fast = system.crystallographic and _closed_bits(system, key & kept)
        out = deletion_bits(system, out, side, fast)
    return out


def first_rejected_pair(system, level, bits_list, accept):
    """The first pair i < j of bits_list, in order, whose level meet or join
    ``accept(direction, x, result)`` rejects, as (i, j, direction, result),
    meet before join; None when it rejects none.

    A formula reads a pair only through its key, the all-level meet (join)
    (R+ u S+) | (R- n S-), and the key of (key, key) is the key itself, so
    lattice_op_bits and ``accept`` run once per distinct key, on (key,
    key).  With f = bits ^ grown (Phi+ for meets, Phi- for joins) the key
    of a pair is x ^ grown, x = f_R & f_S, and ``accept`` gets x.  Rows i
    are walked in order: the keys f_i & f_j (j > i) of both directions not
    met in an earlier row are tested, and the first row with a rejected
    key, all earlier ones having been accepted, holds the witness.
    """
    sides = [(direction, grown, [b ^ grown for b in bits_list], set())
             for direction, grown in (("meet", system.pos_mask), ("join", system.neg_mask))]
    for i in range(len(bits_list)):
        rejected = {}
        for direction, grown, flips, seen in sides:
            row = flips[i]
            keys = {row & f for f in flips[i + 1:]} - seen
            seen |= keys
            for x in keys:
                out = lattice_op_bits(system, level, direction, x ^ grown, x ^ grown)
                if not accept(direction, x, out):
                    rejected[direction, x] = out
        if rejected:
            return next((i, j, direction, rejected[direction, flips[i] & flips[j]])
                        for j in range(i + 1, len(bits_list))
                        for direction, _, flips, _ in sides
                        if (direction, flips[i] & flips[j]) in rejected)
    return None


def require_lattice_ops(system, level):
    """Refuse the level's meet/join formulas where their theory fails.

    The closure in the semiclosed, closed and posets formulas is the
    pairwise-sum fixpoint, which is cl(R) only on crystallographic systems.
    """
    if level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        if not system.crystallographic:
            raise UnsupportedOperationError(
                f"{level.value} lattice operations need a crystallographic system")


def lattice_op(level, direction, rset, sset):
    """Meet/join of two sets inside the given level of the weak order."""
    rset._check_same(sset)
    system = rset.system
    require_lattice_ops(system, level)
    for x in (rset, sset):
        if not _level_member(system, x.bits, level):
            raise ContractViolationError(
                f"input is not in level {level.value}")
    bits = lattice_op_bits(system, level, direction, rset.bits, sset.bits)
    return RootSet(system, bits)


def covers(level, rset):
    """Elements covering R in the level's weak order, by the cover formulas.

    The closed level has no published cover description; use
    verify_lattice / hasse on an explicit family there.
    """
    system, bits = rset.system, rset.bits
    if level is Level.CLOSED:
        raise UnsupportedOperationError(
            "no cover formula at the closed level; use the generic path")
    if not _level_member(system, bits, level):
        raise ContractViolationError(f"input is not in level {level.value}")
    table = system.sum_table
    pos_in = _indices(bits & system.pos_mask)
    neg_in = _indices(bits & system.neg_mask)
    members = _indices(bits)
    out = []

    def decomposable(alpha, pool):
        # at the posets level a mixed-sign pair summing to alpha also
        # obstructs the deletion (the remainder would not be closed)
        for g in pool:
            row = table[g]
            for d in pool:
                if row[d] == alpha:
                    return True
        return False

    for alpha in pos_in:
        if level is Level.SEMICLOSED and decomposable(alpha, pos_in):
            continue
        if level is Level.POSETS and decomposable(alpha, members):
            continue
        out.append(RootSet(system, bits & ~(1 << alpha)))

    neg_candidates = _indices(system.neg_mask & ~bits)
    for beta in neg_candidates:
        if level in (Level.ANTISYM, Level.POSETS):
            if (bits >> system.neg(beta)) & 1:
                continue
        if level is Level.SEMICLOSED:
            anchors = neg_in
        elif level is Level.POSETS:
            anchors = members
        else:
            anchors = []
        row = table[beta]
        if any(row[g] >= 0 and not (bits >> row[g]) & 1 for g in anchors):
            continue
        out.append(RootSet(system, bits | (1 << beta)))
    return out


@dataclass
class LatticeReport:
    family_size: int
    is_lattice: bool
    formula_matches_bruteforce: Optional[bool]
    graded: bool
    witness: Optional[tuple] = None
    cover_count: int = 0
    level: Optional[Level] = None


def canonical_sort(family):
    """Deterministic family order: by (|R-| - |R+|, bits)."""
    return sorted(family, key=lambda r: (r.grade(), r.bits))


_HOLDS, _LACKS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"01", b"\1\0")


def _key_row(system, x):
    """x as ASCII 0/1 bytes, root r at byte r."""
    return format(x, f"0{system.num_roots}b")[::-1].encode()


def _order_masks(system, bits_list):
    """having[r] / above[i]: masks of the members whose key f = bits ^ Phi+
    holds root r, and of the j with family[j] >= family[i].

    R <= S iff f_R is a subset of f_S, so above[i] is the AND of the
    columns of the roots in f_i.  The columns are read off the keys,
    written as fixed-width binary rows with root r at character r, in one
    transpose; a row, as 0/1 bytes, then selects its columns.
    """
    full = (1 << len(bits_list)) - 1
    rows = [_key_row(system, b ^ system.pos_mask) for b in bits_list]
    # rows reversed, so the last row (row 0) becomes bit 0 of each column
    having = [int(bytes(col), 2) for col in zip(*reversed(rows))]
    above = [reduce(and_, compress(having, row.translate(_HOLDS)), full) for row in rows]
    return having, above


def _upper_covers(above):
    """covers[i]: the j with family[j] covering family[i], ascending.

    Canonical order is a linear extension, so the first index strictly
    above i covers i; dropping everything above it and taking the first
    index left finds the next, one step per cover.
    """
    out = []
    for i, rest in enumerate(above):
        rest ^= 1 << i
        found = []
        while rest:
            j = (rest & -rest).bit_length() - 1
            found.append(j)
            rest &= ~above[j]
        out.append(found)
    return out


def _covered_pairs_have_joins(above, upper_covers):
    """Whether every two upper covers of one element have a lub.

    In canonical order the only candidate is the first common upper
    bound, which is the lub iff everything above both lies above it (an
    empty mask picks index -1, whose mask is not empty).
    """
    for ups in upper_covers:
        for a, x in enumerate(ups):
            ax = above[x]
            for y in ups[a + 1:]:
                highs = ax & above[y]
                if highs != above[(highs & -highs).bit_length() - 1]:
                    return False
    return True


def _bounds_checker(system, bits_list, having, formula):
    """accept(direction, x, result) for first_rejected_pair: whether the
    pairs with key x have a glb (lub) m and, when ``formula`` names a
    level, the result is bits_list[m].

    With f = bits ^ Phi+ the members below R and S are the F with f_F
    inside x = f_R & f_S: those lacking every root outside x.  With g =
    bits ^ Phi-, the complement of f, the members above both are the F
    with g_F inside x = g_R & g_S: those whose f holds every root outside
    x.  In canonical order the only candidate glb is the last of them (lub:
    the first), m, and it is the glb iff they are its down-set (up-set),
    the bounds of its own key.  Those lie among them, so comparing sizes
    decides it, and each m's size is found once.
    """
    full = (1 << len(bits_list)) - 1
    grown = {"meet": system.pos_mask, "join": system.neg_mask}
    columns = {"meet": [full ^ col for col in having], "join": having}

    def bounds(direction, x):
        outside = _key_row(system, x).translate(_LACKS)
        return reduce(and_, compress(columns[direction], outside), full)

    @cache
    def own_size(direction, m):
        return bounds(direction, bits_list[m] ^ grown[direction]).bit_count()

    def accept(direction, x, out):
        found = bounds(direction, x)
        m = (found.bit_length() if direction == "meet"
             else (found & -found).bit_length()) - 1
        # an empty mask picks index -1, whose own bounds are not empty
        return (found.bit_count() == own_size(direction, m)
                and (formula is None or out == bits_list[m]))
    return accept


def verify_lattice(family, formula=None, cap=VERIFY_CAP):
    """Lattice certification of a family under the weak order.

    A finite bounded poset is a lattice iff every two elements covering a
    common element have a join (Bjorner-Edelman-Ziegler, Hyperplane
    arrangements with a lattice of regions, DCG 5 (1990), Lemma 2.1).  A
    strict step in the weak order raises the grade, so canonical order is
    a linear extension: the family is bounded iff its first element lies
    below all and its last above all, and the only possible lub of a pair
    is its first common upper bound (glb: its last common lower bound).
    So lattice-ness is decided from the cover graph, which also gives
    gradedness and the cover count.  When the family is not a lattice or
    ``formula`` names a level, first_rejected_pair looks for the witness,
    the first pair in canonical order without a glb or a lub or whose
    level meet or join is not that glb or lub.  It walks the rows in
    canonical order and tests each distinct meet and join key once, in
    the first row that has it (_bounds_checker), with the all-level
    formula, which names the key itself, when no formula is given.
    """
    family = canonical_sort(family)
    k = len(family)
    if k > cap:
        raise ResourceCapError(f"family of size {k} exceeds the cap {cap}")
    if k == 0:
        return LatticeReport(0, True, None if formula is None else True, True)
    system = family[0].system
    if formula is not None:
        require_lattice_ops(system, formula)
    bits_list = [r.bits for r in family]
    if len(set(bits_list)) != k:
        raise ContractViolationError("family contains duplicates")
    having, above = _order_masks(system, bits_list)
    upper_covers = _upper_covers(above)
    is_lattice = (above[0] == (1 << k) - 1 and all(a >> (k - 1) for a in above)
                  and _covered_pairs_have_joins(above, upper_covers))
    bad = None
    if not is_lattice or formula is not None:
        bad = first_rejected_pair(system, formula or Level.ALL, bits_list,
                                  _bounds_checker(system, bits_list, having, formula))
    witness = None if bad is None else (family[bad[0]], family[bad[1]])
    grades = [r.grade() for r in family]
    return LatticeReport(
        family_size=k,
        is_lattice=is_lattice,
        formula_matches_bruteforce=None if formula is None else witness is None,
        graded=all(grades[j] - grades[i] == 1
                   for i, found in enumerate(upper_covers) for j in found),
        witness=witness,
        cover_count=sum(map(len, upper_covers)),
        level=formula,
    )


def hasse_edges(family):
    """Transitive reduction of weak_le on the family; deterministic order."""
    family = canonical_sort(family)
    if not family:
        return family, []
    _, above = _order_masks(family[0].system, [r.bits for r in family])
    edges = [(i, j) for i, found in enumerate(_upper_covers(above)) for j in found]
    return family, edges


def export_hasse(family, fmt="dot"):
    """DOT or JSON document of the Hasse diagram of the family."""
    if len(family) > HASSE_CAP:
        raise ResourceCapError(f"hasse export capped at {HASSE_CAP} nodes")
    from .rootset import format_set_literal
    nodes, edges = hasse_edges(family)
    labels = [format_set_literal(r) for r in nodes]
    if fmt == "dot":
        lines = ["digraph weak_order {", "  rankdir=BT;"]
        for i, lab in enumerate(labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for a, b in edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        import json
        return json.dumps({"nodes": labels, "edges": edges}, indent=0)
    raise ContractViolationError(f"unknown hasse format {fmt!r}")
