"""The nine poset families of the permutahedron, associahedra, and cube.

Each family has a construction (from group elements, intervals, cosets,
Cambrian classes, or descent classes) and, where the source material
gives one, an intrinsic membership predicate on posets; the two are
asserted to coincide by verify_family_equality.  The COEP predicate is
conjectural and must be opted into explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import cambrian as camb
from . import weyl as wy
from .errors import ContractViolationError, UnsupportedOperationError
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

        A bare Cambrian tag takes ``coxeter``; other tags ignore it.
        """
        tag, paren, spec = name.partition("(")
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


def _resolve_coxeter(group, family):
    if family.tag in CAMBRIAN_TAGS:
        spec = family.coxeter if family.coxeter is not None else "lin"
        return camb.coxeter_element(group, spec)
    return None


def descent_classes(group):
    """Map A (frozenset of simple positions) -> (lo, hi, members) for the
    elements with des = A; WeylGroup.interval_classes checks that members
    is the weak order interval from lo, its shortest, to hi, its longest.
    """
    classes = group.interval_classes(wy.WeylElement.descents)
    return {key: (members[0], members[-1], members) for key, members in classes.items()}


def boolean_element_poset(group, subset):
    """R(A) = cl(-A | (Delta \\ A)) for A a set of simple positions."""
    system = group.system
    bits = 0
    for i, s in enumerate(group.simple_root_indices):
        if i in subset:
            bits |= 1 << system.neg(s)
        else:
            bits |= 1 << s
    return RootSet(system, closure_bits(system, bits))


def construct_family(group, family):
    """Duplicate-free list of the family's posets, deterministic order."""
    system = group.system
    tag = family.normalized_tag()
    c = _resolve_coxeter(group, family)
    seen = {}

    def put(rset):
        seen.setdefault(rset.bits, rset)

    if tag == "WOEP":
        for w in group.elements:
            put(wy.element_poset(group, w))
    elif tag == "WOIP":
        for v in group.elements:
            for w in group.interval(v.id, system.pos_mask):
                put(wy.interval_poset(group, v, group.elements[w]))
    elif tag == "WOFP":
        for coset in wy.enumerate_cosets(group):
            put(wy.coset_poset(group, coset))
    elif tag == "COEP":
        for cl in camb.cambrian_classes(c):
            put(wy.interval_poset(group, cl.bottom, cl.top))
    elif tag == "COIP":
        classes = camb.cambrian_classes(c)
        for x in classes:
            for y in classes:
                if x.bottom.weak_le(y.bottom):
                    put(wy.interval_poset(group, x.bottom, y.top))
    elif tag == "COFP":
        cosets = wy.enumerate_cosets(group)
        for fc in camb.facial_cambrian_classes(c, cosets):
            bits = system.full_mask
            for coset in fc.members:
                bits &= wy.coset_poset(group, coset).bits
            put(RootSet(system, bits))
    elif tag == "BOEP":
        n = system.rank
        for mask in range(1 << n):
            put(boolean_element_poset(group, _mask_set(mask)))
    elif tag == "BOIP":
        n = system.rank
        for amask in range(1 << n):
            bmask = amask
            while True:
                lo = boolean_element_poset(group, _mask_set(amask))
                hi = boolean_element_poset(group, _mask_set(bmask))
                put(RootSet(system,
                            (lo.bits & system.neg_mask) | (hi.bits & system.pos_mask)))
                if bmask == (1 << n) - 1:
                    break
                bmask = (bmask + 1) | amask
    else:
        raise ContractViolationError(f"unhandled family {tag}")
    out = sorted(seen.values(), key=lambda r: (r.grade(), r.bits))
    return out


def _mask_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _same_sign_pairs(system):
    """(a, b, a+b) triples with a, b of one sign and a+b a root, each once."""
    out = []
    table = system.sum_table
    n = system.num_positive
    for lo, hi in ((0, n), (n, 2 * n)):
        for a in range(lo, hi):
            row = table[a]
            for b in range(a, hi):
                k = row[b]
                if k >= 0:
                    out.append((a, b, k))
    return out


def member_predicate(group, family, rset, allow_conjectural=False):
    """The intrinsic characterization of family membership, taken literally.

    Raises for COFP (the source material leaves it open) and for COEP
    unless allow_conjectural is set.
    """
    system = group.system
    tag = family.normalized_tag()
    bits = rset.bits
    if not classify(rset).poset:
        return False

    if tag == "WOEP":
        neg = system.negate_bits(bits)
        return (bits | neg) == system.full_mask

    if tag == "WOIP":
        for a, b, k in _same_sign_pairs(system):
            if (bits >> k) & 1 and not ((bits >> a) & 1 or (bits >> b) & 1):
                return False
        return True

    if tag == "WOFP":
        inside = [system.roots[i].coords for i in _indices(bits)]
        outside = [system.roots[i].coords
                   for i in _indices(system.full_mask & ~bits)]
        return strict_separation_exists(inside, outside, system.rank)

    if tag == "BOIP":
        for a, b, k in _same_sign_pairs(system):
            if (bits >> k) & 1 and not ((bits >> a) & 1 and (bits >> b) & 1):
                return False
        return True

    if tag == "BOEP":
        if not member_predicate(group, FamilyId("BOIP"), rset):
            return False
        neg = system.negate_bits(bits)
        have = bits | neg
        return all((have >> s) & 1 for s in group.simple_root_indices)

    if tag == "COIP":
        c = _resolve_coxeter(group, family)
        pos = c.c_position
        n = system.num_positive
        for a, b, k in _same_sign_pairs(system):
            if not (bits >> k) & 1:
                continue
            if a < n:  # positive pair: the <c-larger root must be present
                first, second = (a, b) if pos[a] < pos[b] else (b, a)
                if not (bits >> second) & 1:
                    return False
            else:      # negative pair, ordered through the positive versions
                pa, pb = system.neg(a), system.neg(b)
                first, second = (a, b) if pos[pa] < pos[pb] else (b, a)
                if not (bits >> first) & 1:
                    return False
        return True

    if tag == "COEP":
        if not allow_conjectural:
            raise UnsupportedOperationError(
                "the COEP characterization is conjectural; pass allow_conjectural")
        c = _resolve_coxeter(group, family)
        if not member_predicate(group, FamilyId("COIP", c), rset):
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
    constructed = construct_family(group, family)
    cbits = {r.bits for r in constructed}
    pbits = {r.bits for r in all_posets
             if member_predicate(group, family, r,
                                 allow_conjectural=allow_conjectural)}
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
    lo = boolean_element_poset(group, na)
    hi = boolean_element_poset(group, nb)
    return RootSet(system,
                   (lo.bits & system.neg_mask) | (hi.bits & system.pos_mask))
