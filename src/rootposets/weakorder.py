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
Lemma 2.1), so only pairs of upper covers of one element are tested.  It
optionally checks a level formula against the glb and lub of every pair,
running the closure and deletion once per mask combination such as
(R+ u S+) | (R- n S-); a non-lattice is scanned pair by pair up to its
first pair without a glb or a lub.  On level members the set
handed to ncd/pcd is semiclosed by construction (a closure on one side, an
intersection of closed sets on the other), so the fast deletion applies
after checking the one half, with no full classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import ContractViolationError, ResourceCapError, UnsupportedOperationError
from .rootset import RootSet, _closed_bits, _indices, classify, closure_bits, deletion_bits

VERIFY_CAP = 5000
HASSE_CAP = 10_000


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


def lattice_op_bits(system, level, direction, rbits, sbits, memo=None):
    """Meet or join at a level, raw-bits variant without membership checks.

    ``memo``: an optional dict from mask combinations to results, kept by
    the caller for one system, level and direction.
    """
    if direction == "meet":
        grown, kept, side = system.pos_mask, system.neg_mask, "negative"
    elif direction == "join":
        grown, kept, side = system.neg_mask, system.pos_mask, "positive"
    else:
        raise ContractViolationError("direction must be 'meet' or 'join'")
    key = ((rbits | sbits) & grown) | (rbits & sbits & kept)
    if level in (Level.ALL, Level.ANTISYM):
        return key
    if memo is not None and key in memo:
        return memo[key]
    out = closure_bits(system, key & grown) | (key & kept)
    if level in (Level.CLOSED, Level.POSETS):
        # the grown half is closed: the fast deletion is complete iff the kept one is
        fast = system.crystallographic and _closed_bits(system, key & kept)
        out = deletion_bits(system, out, side, fast)
    if memo is not None:
        memo[key] = out
    return out


def require_lattice_ops(system, level):
    """Refuse the level's meet/join formulas where their theory fails.

    The closure in the semiclosed, closed and posets formulas is the
    pairwise-sum fixpoint, which is cl(R) only on crystallographic systems.
    """
    if level in (Level.SEMICLOSED, Level.CLOSED, Level.POSETS):
        if not system.crystallographic:
            raise UnsupportedOperationError(
                f"{level.value} lattice operations need a crystallographic system")


def lattice_op(level, direction, rset, sset, check_membership=True):
    """Meet/join of two sets inside the given level of the weak order."""
    rset._check_same(sset)
    system = rset.system
    require_lattice_ops(system, level)
    if check_membership:
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


def _below_masks(system, bits_list):
    """below[i] / above[i]: masks of the j with family[j] <= / >= family[i].

    R <= S iff R xor Phi+ is a subset of S xor Phi+, so each bound is an
    intersection of one family mask per root.
    """
    keys = [b ^ system.pos_mask for b in bits_list]
    having = [0] * system.num_roots  # having[r] bit j set iff r in keys[j]
    for j, key in enumerate(keys):
        for r in _indices(key):
            having[r] |= 1 << j
    full = (1 << len(keys)) - 1
    below, above = [], []
    for key in keys:
        lo = hi = full
        for r in _indices(system.full_mask & ~key):
            lo &= ~having[r]
        for r in _indices(key):
            hi &= having[r]
        below.append(lo)
        above.append(hi)
    return below, above


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


def _first_bad_pair(system, bits_list, below, above, formula, is_lattice):
    """The first pair (i, j), i < j, in canonical order that fails, or None.

    A pair fails when it has no glb or no lub (never on a lattice, where
    that check is skipped) or, when ``formula`` names a level, when the
    level's meet or join of the pair is not that glb or lub.  The glb of
    a pair is the element whose lower bounds are exactly the pair's common
    lower bounds, so each formula result is memoised by its mask key as
    the below (above) mask of the set it names, or -1 off the family, and
    lattice_op_bits runs once per key and direction.
    """
    pos, neg = system.pos_mask, system.neg_mask
    plus, minus = [b & pos for b in bits_list], [b & neg for b in bits_list]
    index_of = {b: i for i, b in enumerate(bits_list)}
    meets, joins = {}, {}
    k = len(bits_list)
    for i in range(k):
        rp, rn, bi, ai = plus[i], minus[i], below[i], above[i]
        for j, sp, sn, bj, aj in zip(range(i + 1, k), plus[i + 1:], minus[i + 1:],
                                     below[i + 1:], above[i + 1:]):
            lows, highs = bi & bj, ai & aj
            if not is_lattice and (
                    lows != below[lows.bit_length() - 1]
                    or highs != above[(highs & -highs).bit_length() - 1]):
                return i, j
            if formula is None:
                continue
            key = rp | sp | (rn & sn)
            got = meets.get(key)
            if got is None:
                out = index_of.get(lattice_op_bits(system, formula, "meet",
                                                   bits_list[i], bits_list[j]))
                got = meets[key] = -1 if out is None else below[out]
            if got != lows:
                return i, j
            key = rn | sn | (rp & sp)
            got = joins.get(key)
            if got is None:
                out = index_of.get(lattice_op_bits(system, formula, "join",
                                                   bits_list[i], bits_list[j]))
                got = joins[key] = -1 if out is None else above[out]
            if got != highs:
                return i, j
    return None


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
    gradedness and the cover count.  The pairs are scanned only to check
    ``formula``, when it names a level, against the glb and lub of every
    pair, or to find the witness of a non-lattice; the witness is the
    first failing pair in canonical order and the scan stops there.
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
    below, above = _below_masks(system, bits_list)
    upper_covers = _upper_covers(above)
    full = (1 << k) - 1
    is_lattice = (above[0] == full and below[-1] == full
                  and _covered_pairs_have_joins(above, upper_covers))
    witness = None
    if formula is not None or not is_lattice:
        bad = _first_bad_pair(system, bits_list, below, above, formula, is_lattice)
        if bad is not None:
            witness = (family[bad[0]], family[bad[1]])
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
    _, above = _below_masks(family[0].system, [r.bits for r in family])
    edges = sorted((i, j) for i, found in enumerate(_upper_covers(above))
                   for j in found)
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
