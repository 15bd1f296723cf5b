"""The nine poset families of the permutahedron, associahedra, and cube.

Every family is a set of interval posets R(lo)^- | R(hi)^+, with lo and
hi taken from elements, cosets, Cambrian classes or the boolean posets
R(A); family_set streams the (lo, hi) pairs of each tag as bits and
keeps the distinct posets, which family_bits orders and construct_family
wraps once.  interval_bits is injective on pairs: the negative half of
R(lo, hi) is -inv(lo) and its positive half Phi^+ minus inv(hi).  So a
family has as many posets as distinct pairs, and family_count counts
them from the tables without building one; construct_family refuses a
family over its cap from that count.  One up-set sweep over the kept
elements (all, or the c-sortable class bottoms) lists the pairs v <= u
of WOIP and COIP, and family_count sums its masks.  Where the source
material gives one, an intrinsic membership predicate on posets is
asserted to coincide with the construction by verify_family_equality;
the COEP predicate is conjectural and must be opted into explicitly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from . import cambrian as camb
from . import weyl as wy
from .errors import (ContractViolationError, ResourceCapError,
                     UnsupportedOperationError)
from .linalg import strict_separation_exists
from .rootset import RootSet, classify, closure_bits, _indices

FAMILY_TAGS = ("WOEP", "WOIP", "WOFP", "COEP", "COIP", "COFP", "BOEP", "BOIP", "BOFP")
CAMBRIAN_TAGS = ("COEP", "COIP", "COFP")


@dataclass(frozen=True)
class FamilyId:
    tag: str
    coxeter: Optional[object] = None  # CoxeterElement or spec for Cambrian tags

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ContractViolationError(f"unknown family tag {self.tag!r}")

    @classmethod
    def parse(cls, name, coxeter=None):
        """Inverse of str(): 'WOIP', 'COIP(bip)', 'COIP(s2s1s3)'.

        A bare Cambrian tag takes ``coxeter``; other tags ignore it.  Only
        the tag is case-insensitive, so 'coip(bip)' reads as COIP(bip).
        """
        tag, paren, spec = name.partition("(")
        tag = tag.upper()
        if paren:
            if tag not in CAMBRIAN_TAGS or not spec.endswith(")"):
                raise ContractViolationError(f"malformed family name {name!r}")
            coxeter = spec[:-1]
        return cls(tag, coxeter if tag in CAMBRIAN_TAGS else None)

    def __str__(self):
        c = self.coxeter
        if self.tag in CAMBRIAN_TAGS and c is not None:
            return f"{self.tag}({c if isinstance(c, str) else c.label()})"
        return self.tag

    def normalized_tag(self):
        # BOFP is the same family as BOIP
        return "BOIP" if self.tag == "BOFP" else self.tag


def _spec(family):
    """lin when no word is given; an empty word is refused as a word."""
    return "lin" if family.coxeter is None else family.coxeter


def check_coxeter(system, family):
    """Refuse a bad Coxeter word of a Cambrian family from the system
    alone, before any group is built."""
    if family.tag in CAMBRIAN_TAGS:
        camb.coxeter_word(system, _spec(family))


def _resolve_coxeter(group, family):
    if family.tag not in CAMBRIAN_TAGS:
        return None
    if isinstance(family.coxeter, camb.CoxeterElement):  # resolved once per sweep
        return family.coxeter
    return camb.coxeter_element(group, _spec(family))


def _boolean_bits(group, subset):
    """R(A) = cl(-A | (Delta \\ A)) for A a set of simple positions, as bits."""
    system = group.system
    bits = 0
    for i, s in enumerate(group.simple_root_indices):
        bits |= 1 << (system.neg(s) if i in subset else s)
    return closure_bits(system, bits)


def _interval_pairs(group, tag, c):
    """(lo, hi) poset bits whose interval posets R(lo)^- | R(hi)^+ make
    up the family; distinct pairs give distinct posets (interval_bits is
    injective), and every stream gives each pair once.  WO keeps every
    element and CO the c-sortable class bottoms, with top[u] = u or
    pi_up(u): WOEP and COEP pair each kept v with top[v], WOIP and COIP
    with top[u] for each kept u >= v in the up-set sweep."""
    bits = group.poset_bits
    if tag in ("WOEP", "WOIP", "COEP", "COIP"):
        keep = c.sortable if c else [True] * len(bits)
        top = c.up if c else range(len(bits))
        if tag in ("WOEP", "COEP"):
            yield from ((bits[v], bits[top[v]])
                        for v in range(len(bits)) if keep[v])
        else:
            for v, mask in _weak_intervals(group, keep):
                yield from ((bits[v], bits[top[u]]) for u in _indices(mask))
    elif tag == "WOFP":
        yield from ((co.x.poset_bits, co.w_long.poset_bits)
                    for co in wy.enumerate_cosets(group))
    elif tag == "COFP":
        # the interval from the class's least minimum to its largest maximum
        yield from ((fc.down.x.poset_bits, fc.up.w_long.poset_bits) for fc in
                    camb.facial_cambrian_classes(c, wy.enumerate_cosets(group)))
    elif tag in ("BOEP", "BOIP"):
        masks = range(1 << group.system.rank)
        table = [_boolean_bits(group, _indices(a)) for a in masks]
        if tag == "BOEP":
            yield from ((b, b) for b in table)
        else:  # R(A, A') for A inside A'
            yield from ((table[a], table[b]) for a in masks for b in masks
                        if a & ~b == 0)
    else:
        raise ContractViolationError(f"unhandled family {tag}")


def family_set(group, family):
    """The bits of the family's posets, unordered."""
    system = group.system
    pairs = _interval_pairs(group, family.normalized_tag(),
                            _resolve_coxeter(group, family))
    return {wy.interval_bits(system, lo, hi) for lo, hi in pairs}


def family_count(system, family):
    """len(family_set(group, family)), from the tables alone: no poset is
    built.  The cube has 2^rank vertices R(A), one per set A of simple
    roots, and 3^rank faces R(A, A'), one per A inside A', so its
    counts build no group.  The other families keep every element, or
    for the Cambrian ones the c-sortable elements, one bottom per class:
    WOEP and COEP count them, WOIP and COIP sum the masks of
    _weak_intervals, and WOFP and COFP count the cosets (x, I) of kept x,
    one per facial class (the Reading-Speyer h-vector sum for COFP)."""
    tag = family.normalized_tag()
    if tag in ("BOEP", "BOIP"):
        return (2 if tag == "BOEP" else 3) ** system.rank
    group = wy.weyl_group(system)
    c = _resolve_coxeter(group, family)
    keep = c.sortable if c else [True] * len(group.elements)
    if tag in ("WOEP", "COEP"):
        return sum(keep)
    if tag in ("WOIP", "COIP"):
        return sum(mask.bit_count() for _, mask in _weak_intervals(group, keep))
    return _count_faces(group, keep)


def _weak_intervals(group, keep):
    """Yield (v, mask) for each kept v, the mask holding the bits of the
    ids of the kept u >= v.  The mask of any v is v, if kept, with the
    masks of its upper covers v s_i, one longer.  Ids run by length, so
    the levels are swept from the top, each reading only the masks of the
    level above, ids hi.. on."""
    lengths = [w.length for w in group.elements]
    above, hi = [], len(lengths)
    while hi:
        lo = bisect_left(lengths, lengths[hi - 1])
        level = []
        for v in range(lo, hi):
            mask = keep[v] << v
            for row in group.right:
                u = row[v]
                if u >= hi:  # one longer, an upper cover
                    mask |= above[u - hi]
            level.append(mask)
            if keep[v]:
                yield v, mask
        above, hi = level, lo


def _count_faces(group, keep):
    """The cosets (x, I) with x kept and I free of the right descents of
    x, 2^(rank - |D_R(x)|) for each.  Every w_{o,I} is still resolved, so
    a system that lacks one is refused as by enumerate_cosets."""
    rank = group.system.rank
    for mask in range(1 << rank):
        group.parabolic_data(_indices(mask))
    return sum(1 << rank - len(d)
               for d, kept in zip(group.right_descent_cache, keep) if kept)


def family_bits(group, family):
    """The bits of family_set, ordered by (grade, bits)."""
    neg, pos = group.system.neg_mask, group.system.pos_mask
    ordered = sorted(family_set(group, family))
    # then stably by grade, faster than by a pair
    ordered.sort(key=lambda b: (b & neg).bit_count() - (b & pos).bit_count())
    return ordered


def construct_family(group, family, cap=None):
    """The family's posets as RootSets, in the order of family_bits.  A
    family of more than ``cap`` sets is refused from its count, before
    any poset is built."""
    if cap is not None and family_count(group.system, family) > cap:
        raise ResourceCapError(
            f"{family} family of {group.system.label} has more than {cap} sets")
    return [RootSet(group.system, b) for b in family_bits(group, family)]


def _coip_sums_hold(system, c, bits):
    """The COIP condition on a poset: of each same-sign pair summing to a
    root of the set, the c-later positive (c-earlier negative) root is in."""
    return (camb.requires(c.later, bits & system.pos_mask)
            and camb.requires(c.earlier, bits >> system.num_positive))


def _boip_sums_hold(system, bits):
    """The BOIP condition on a poset: both roots of each same-sign pair
    summing to a root of the set are in."""
    for a, b, k in system.same_sign_sums:
        if (bits >> k) & 1 and not ((bits >> a) & 1 and (bits >> b) & 1):
            return False
    return True


def member_predicate(group, family, rset, allow_conjectural=False):
    """The intrinsic characterization of family membership, taken literally.

    Raises for COFP (the source material leaves it open), for COEP unless
    allow_conjectural is set, and off the crystallographic types for
    every tag but WOFP: there the sums of two roots are not the closure.
    """
    system = group.system
    tag = family.normalized_tag()
    bits = rset.bits
    if tag != "WOFP" and not system.crystallographic:
        raise UnsupportedOperationError(f"{tag} predicate needs a crystallographic system")
    if not classify(rset).poset:
        return False

    if tag == "WOEP":
        neg = system.negate_bits(bits)
        return (bits | neg) == system.full_mask

    if tag == "WOIP":
        for a, b, k in system.same_sign_sums:
            if (bits >> k) & 1 and not ((bits >> a) & 1 or (bits >> b) & 1):
                return False
        return True

    if tag == "WOFP":
        inside = [system.roots[i].coords for i in _indices(bits)]
        outside = [system.roots[i].coords
                   for i in _indices(system.full_mask & ~bits)]
        return strict_separation_exists(inside, outside, system.rank)

    if tag == "BOIP":
        return _boip_sums_hold(system, bits)

    if tag == "BOEP":
        if not _boip_sums_hold(system, bits):
            return False
        neg = system.negate_bits(bits)
        have = bits | neg
        return all((have >> s) & 1 for s in group.simple_root_indices)

    if tag == "COIP":
        return _coip_sums_hold(system, _resolve_coxeter(group, family), bits)

    if tag == "COEP":
        if not allow_conjectural:
            raise UnsupportedOperationError(
                "the COEP characterization is conjectural; pass allow_conjectural")
        c = _resolve_coxeter(group, family)
        if not _coip_sums_hold(system, c, bits):
            return False
        good = camb.snake_decomposable_roots(c, rset)
        return len(good) == system.num_roots

    if tag == "COFP":
        raise UnsupportedOperationError(
            "no intrinsic COFP characterization is known; use construction lookup")

    raise ContractViolationError(f"unhandled family {tag}")


@dataclass
class FamilyEqualityReport:
    family: str
    system: str
    construction_count: int
    predicate_count: int
    equal: bool
    only_constructed: list
    only_predicate: list


def verify_family_equality(group, family, all_posets, allow_conjectural=False):
    """Constructed family == predicate filter over all posets of the system."""
    tag = family.normalized_tag()
    if tag == "COFP":
        raise UnsupportedOperationError("COFP has no predicate to compare")
    family = FamilyId(family.tag, _resolve_coxeter(group, family))
    cbits = family_set(group, family)
    pbits = {r.bits for r in all_posets
             if member_predicate(group, family, r, allow_conjectural)}
    return FamilyEqualityReport(
        family=tag,
        system=group.system.label,
        construction_count=len(cbits),
        predicate_count=len(pbits),
        equal=cbits == pbits,
        only_constructed=sorted(cbits - pbits),
        only_predicate=sorted(pbits - cbits),
    )


# -- family-internal lattice operations (for the sublattice suite) ---------

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
    if wy.interval_poset(group, v, w).bits != rset.bits:
        raise ContractViolationError("set is not a weak order interval poset")
    return v, w


def woip_op(group, direction, rset, sset):
    """Meet/join inside WOIP via componentwise weak-order meet/join."""
    lv, lw = woip_interval_of(group, rset)
    rv, rw = woip_interval_of(group, sset)
    op = group.weak_meet if direction == "meet" else group.weak_join
    return wy.interval_poset(group, op(lv, rv), op(lw, rw))


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
    ra, rb = boip_components_of(group, rset)
    sa, sb = boip_components_of(group, sset)
    if direction == "meet":
        na, nb = ra & sa, rb & sb
    else:
        na, nb = ra | sa, rb | sb
    system = group.system
    return RootSet(system, wy.interval_bits(
        system, _boolean_bits(group, na), _boolean_bits(group, nb)))
