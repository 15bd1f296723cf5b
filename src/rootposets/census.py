"""Exhaustive census: family counts, reference values, conjecture checkers,
and reproductions of the published counterexamples.

Counting strategies
-------------------
all             closed form 2^|Phi|
antisymmetric   closed form 3^|Phi^+|
semiclosed      (number of closed subsets of Phi^+) squared
closed / posets backtracking over roots ordered by absolute height
                (weakorder.level_count, which builds no set)
WOEP / COEP     the number of kept elements (all, or the c-sortable ones)
WOIP / COIP     the pairs v <= u of kept elements, from kept up-set
                bitmasks over element ids swept by length from the top
WOFP / COFP     the cosets xW_I with x kept, sum over kept x of
                2^(rank - |D_R(x)|)
BOEP / BOIP     closed forms 2^rank and 3^rank, the cube's vertices and
                faces, read off the rank before any group is built
Every family row is families.family_count, which lists no poset; the
listed families (families.family_set) are its oracle in the tests.

The counterexamples need only roots, subsets and the weak order, so the
group layers (cambrian, families, weyl) are imported by the functions
that use them, not with this module.  They name each root by its set
literal and add roots as int vectors (RootSystem.int_coords).
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple, Optional

from . import weakorder as wo
from .coeff import Coeff
from .errors import ContractViolationError, ResourceCapError, UnsupportedOperationError
from .rootset import (
    RootSet, _indices, classify, closure_deletion, format_set_literal, is_convex,
    parse_set_literal,
)
from .rootsys import build_from_label


class CensusResult(NamedTuple):
    system: str
    family: str
    count: int
    elapsed: float
    method: str


def enumerate_posets(system):
    """Deterministic list of all posets of the system (DFS order)."""
    return wo.level_members(system, wo.Level.POSETS)


def count_family(system, family):
    """Exact count of one family over the system.

    ``family`` is a level, a family name such as 'COIP(bip)', or a
    FamilyId.
    """
    t0 = time.perf_counter()
    level = wo.Level.named(family)
    if level is not None:
        count = wo.level_count(system, level)
        method = ("closed-form" if level in (wo.Level.ALL, wo.Level.ANTISYM)
                  else "backtracking")
    else:
        from . import families as fam
        family = fam.FamilyId.parse(family) if isinstance(family, str) else family
        count = fam.family_count(system, family)
        method = "group tables"
    return CensusResult(system.label, str(family) if level is None else level.value,
                        count, time.perf_counter() - t0, method)


# -- Table 1 reference data ---------------------------------------------------
#
# Values indexed by rank, copied from the source table, whose one B/C
# column serves both B_n and C_n.  A slash entry is stored as a
# {"B": x, "C": y} pair; which Bourbaki label carries which value is
# exactly the alignment question the census answers (the regression
# goldens in the tests record the computed resolution).

TABLE1 = {
    wo.Level.ANTISYM.value: {
        "A": {1: 3, 2: 27, 3: 729, 4: 3 ** 10},
        "BC": {1: 3, 2: 81, 3: 3 ** 9},
        "D": {4: 3 ** 12},
    },
    wo.Level.SEMICLOSED.value: {
        "A": {1: 4, 2: 49, 3: 1600, 4: 127449},
        "BC": {1: 4, 2: 144, 3: 29584, 4: {"B": 5310 ** 2, "C": 5318 ** 2}},
        "D": {4: 888 ** 2},
    },
    wo.Level.CLOSED.value: {
        "A": {1: 4, 2: 29, 3: 355, 4: 6942},
        "BC": {1: 4, 2: 55, 3: {"B": 1785, "C": 1803}},
        "D": {4: 18291},
    },
    wo.Level.POSETS.value: {
        "A": {1: 3, 2: 19, 3: 219, 4: 4231},
        "BC": {1: 3, 2: 37, 3: {"B": 1235, "C": 1225}},
        "D": {4: 219},
    },
    "WOEP": {
        "A": {1: 2, 2: 6, 3: 24, 4: 120},
        "BC": {1: 2, 2: 8, 3: 48, 4: 384},
        "D": {4: 192},
    },
    "WOIP": {
        "A": {1: 3, 2: 17, 3: 151, 4: 1899},
        "BC": {1: 3, 2: 27, 3: 457},
        "D": {4: 3959},
    },
    "WOFP": {
        "A": {1: 3, 2: 13, 3: 75, 4: 541},
        "BC": {1: 3, 2: 17, 3: 147, 4: 1697},
        "D": {4: 865},
    },
    "COEP": {
        "A": {1: 2, 2: 5, 3: 14, 4: 42},
        "BC": {1: 2, 2: 6, 3: 20, 4: 70},
        "D": {4: 50},
    },
    "COIP(bip)": {
        "A": {1: 3, 2: 13, 3: 70, 4: 433},
        "BC": {1: 3, 2: 18, 3: 138, 4: 1185},
        "D": {4: 622},
    },
    "COIP(lin)": {
        "A": {1: 3, 2: 13, 3: 68, 4: 399},
        "BC": {1: 3, 2: 18, 3: 132, 4: 1069},
        "D": {4: 578},
    },
    "COFP": {
        "A": {1: 3, 2: 11, 3: 45, 4: 197},
        "BC": {1: 3, 2: 13, 3: 63, 4: 321},
        "D": {4: 233},
    },
    "BOEP": {
        "A": {n: 2 ** n for n in range(1, 6)},
        "BC": {n: 2 ** n for n in range(1, 5)},
        "D": {4: 16},
    },
    "BOIP": {
        "A": {n: 3 ** n for n in range(1, 5)},
        "BC": {n: 3 ** n for n in range(1, 5)},
        "D": {4: 81},
    },
}
TABLE1["BOFP"] = TABLE1["BOIP"]


def reference_count(system_label, family_name):
    """Table value for a system/family, or None when the table has none.

    Slash-ambiguous entries come back as the {"B": x, "C": y} pair.
    """
    fam_table = TABLE1.get(family_name)
    if fam_table is None:
        return None
    letter = system_label[0]
    col = fam_table.get("BC" if letter in ("B", "C") else letter)
    if col is None:
        return None
    try:
        rank = int(system_label[1:])
    except ValueError:
        return None
    return col.get(rank)


class Table1Row(NamedTuple):
    system: str
    family: str
    count: int
    reference: Optional[object]
    match: Optional[bool]
    variant: Optional[str] = None  # which slash variant matched


def table1_rows(system_labels, family_names):
    from . import families as fam
    # a bad name or Coxeter word is a usage error, whatever the caps
    names = [wo.Level.named(name) or fam.FamilyId.parse(name)
             for name in family_names]
    if wo.Level.ALL in names:
        raise ContractViolationError(
            "the all level (every subset) has no Table 1 row")
    systems = [build_from_label(label) for label in system_labels]
    for system in systems:
        for name in names:
            if isinstance(name, fam.FamilyId):
                fam.check_coxeter(system, name)
    for system in systems:  # refuse an oversized row before counting any row
        for name in names:
            wo.require_dfs(system, name)
    rows = []
    for system in systems:
        for name in names:
            res = count_family(system, name)
            ref = reference_count(res.system, res.family)
            variant = None
            if isinstance(ref, dict):
                variant = next((k for k, v in ref.items() if v == res.count), None)
                match = variant is not None
            else:
                match = None if ref is None else res.count == ref
            rows.append(Table1Row(res.system, res.family, res.count, ref, match,
                                  variant))
    return rows


# -- sublattice and conjecture checkers ---------------------------------------

class SublatticeReport(NamedTuple):
    size: int
    closed_under_ops: bool
    witness: Optional[tuple] = None  # (R, S, direction, result)


def check_sublattice(members, level):
    """Is the family closed under the level's meet and join?

    The witness is the first pair in canonical order, meet before join,
    whose result is missing.  The level's formula runs once per distinct
    pair key, row by row (weakorder.first_rejected_pair).
    """
    members = wo.canonical_sort(members)
    if not members:
        return SublatticeReport(0, True)
    system = members.system
    wo.require_lattice_ops(system, level)
    have = set(members.bits)
    bad = wo.first_rejected_pair(system, level, members.bits,
                                 lambda direction, x, out: out in have)
    if bad is None:
        return SublatticeReport(len(members), True)
    i, j, direction, out = bad
    return SublatticeReport(len(members), False, (members[i], members[j], direction,
                                                  RootSet(system, out)))


class ConjectureReport(NamedTuple):
    conjecture: str
    system: str
    coxeter: str
    verified: bool
    detail: str = ""
    witness: Optional[object] = None


CONJECTURE_IDS = ("coep-characterization", "coep-sublattice", "coip-sublattice")


def _require_id(kind, name, ids):
    if name not in ids:
        raise ContractViolationError(
            f"unknown {kind} {name!r}; expected one of {', '.join(ids)}")


def check_conjecture(conj_id, system, coxeter_spec="lin", rank_cap=3):
    """Exhaustively test one of the open conjectures on a desk-scale system."""
    from . import cambrian as camb
    from . import families as fam
    from .weyl import weyl_group
    _require_id("conjecture", conj_id, CONJECTURE_IDS)
    camb.coxeter_word(system, coxeter_spec)  # a bad word exits 2, not on a cap
    if not system.crystallographic:  # refused before any group or poset is built
        raise UnsupportedOperationError(
            f"the {conj_id} conjecture needs a crystallographic system")
    if system.rank > rank_cap:
        raise ResourceCapError(
            f"conjecture scope capped at rank {rank_cap}")
    group = weyl_group(system)
    c = camb.coxeter_element(group, coxeter_spec)
    label = c.label()

    if conj_id == "coep-characterization":
        posets = enumerate_posets(system)
        report = fam.verify_family_equality(
            group, fam.FamilyId("COEP", c), posets, allow_conjectural=True)
        detail = (f"constructed {report.construction_count}, "
                  f"predicate {report.predicate_count}")
        if not report.equal:
            def first(only):
                return (f"{{{format_set_literal(RootSet(system, only[0]))}}}"
                        if only else "none")
            detail += (f"; first only in the predicate: "
                       f"{first(report.only_predicate)}, first only "
                       f"constructed: {first(report.only_constructed)}")
        return ConjectureReport(
            conj_id, system.label, label, report.equal, detail=detail,
            witness=None if report.equal else
            (report.only_constructed, report.only_predicate))

    tag = "COEP" if conj_id == "coep-sublattice" else "COIP"
    members = fam.construct_family(group, fam.FamilyId(tag, c))
    rep = check_sublattice(members, wo.Level.POSETS)
    if rep.closed_under_ops:
        detail = f"{rep.size} members, all pairwise meets and joins inside"
    else:
        r, s, direction, out = rep.witness
        detail = (f"{rep.size} members; the {direction} of "
                  f"{{{format_set_literal(r)}}} and {{{format_set_literal(s)}}} "
                  f"is {{{format_set_literal(out)}}}, outside the family")
    return ConjectureReport(
        conj_id, system.label, label, rep.closed_under_ops,
        detail=detail, witness=rep.witness)


# -- published counterexamples -------------------------------------------------

class CounterexampleReport(NamedTuple):
    case: str
    reproduced: bool
    details: list


COUNTEREXAMPLE_IDS = ("h3-sums", "h2-flag", "h3-ncd",
                      "h3-closed-lattice", "b3-convex-lattice")


def _root(system, literal):
    """The index of the one root a literal such as ``-[1,1p,0]`` names."""
    (k,) = parse_set_literal(system, literal)
    return k


def _h3_remark_roots(system):
    """alpha = a1, beta = -(a1 + psi a2), gamma = -(psi a1 + a2 + a3)."""
    return tuple(_root(system, literal)
                 for literal in ("+[1,0,0]", "-[1,1p,0]", "-[1p,1,1]"))


def reproduce_counterexample(case):
    """Re-derive one of the published failures from its defining roots."""
    _require_id("counterexample", case, COUNTEREXAMPLE_IDS)
    checks = []

    def expect(label, ok):
        checks.append((label, bool(ok)))

    if case == "h3-sums":
        system = build_from_label("H3")
        alpha, beta = _root(system, "+[1,0,0]"), _root(system, "+[0,1,0]")
        psi = Coeff(0, 1)
        gamma = system.index_of_coords.get((psi, psi, psi))
        expect("gamma = psi(a1+a2+a3) is a root", gamma is not None)
        expect("<alpha, beta> < 0", system.inner(alpha, beta).sign() < 0)
        expect("alpha != -beta", system.neg(alpha) != beta)
        expect("alpha + beta is not a root",
               system.root_sum(alpha, beta) is None)
        if gamma is not None:  # else the claims on gamma have no subject
            triple = _coord_sum(system, (alpha, beta, gamma))
            expect("alpha + beta + gamma is a root",
                   system.index_of_int_coords.get(triple) is not None)
            # the two-of-three-subsums property fails: of the subsums with
            # gamma, exactly one is a root (which one depends on the diagram
            # orientation; the source text's labels are mirrored against ours)
            in_phi = [system.root_sum(alpha, gamma) is not None,
                      system.root_sum(beta, gamma) is not None]
            expect("exactly one of alpha+gamma, beta+gamma is a root",
                   sum(in_phi) == 1)

    elif case == "h2-flag":
        system = build_from_label("H2")
        lookup = system.index_of_int_coords
        quad = [_root(system, literal)
                for literal in ("+[1,0]", "+[0,1]", "+[1p,1p]", "-[1,1p]")]
        total = _coord_sum(system, quad)
        expect("the four roots are summable", lookup.get(total) is not None)
        summable2or3 = []
        for k in (2, 3):
            for sub in itertools.combinations(quad, k):
                if lookup.get(_coord_sum(system, sub)) is not None:
                    summable2or3.append(sub)
        expect("no summable 2- or 3-subset, hence not a single flag",
               not summable2or3)
        # bounded sweep of the N-span: only the five claimed roots appear
        found = set()
        columns = list(zip(*(system.int_coords[i] for i in quad)))
        for lams in itertools.product(range(5), repeat=4):
            k = lookup.get(tuple(sum(lam * x for lam, x in zip(lams, column))
                                 for column in columns))
            if k is not None:
                found.add(k)
        claimed = set(quad) | {lookup[total]}
        expect("N-span meets Phi in exactly the five claimed roots",
               found == claimed)

    elif case == "h3-ncd":
        system = build_from_label("H3")
        alpha, beta, gamma = _h3_remark_roots(system)
        bg = system.root_sum(beta, gamma)
        expect("beta + gamma is a root", bg is not None)
        rset = RootSet.from_indices(system, [alpha, beta, gamma, bg])
        ncd = closure_deletion(rset, "negative")
        expected = RootSet.from_indices(system, [alpha, beta, gamma])
        expect("ncd removes exactly beta + gamma", ncd == expected)
        expect("the result is not closed", not classify(ncd).closed)

    elif case == "h3-closed-lattice":
        system = build_from_label("H3")
        alpha, beta, gamma = _h3_remark_roots(system)
        bg = system.root_sum(beta, gamma)
        abg = system.root_sum(alpha, bg)
        expect("alpha + beta + gamma is a root", abg is not None)
        big = RootSet.from_indices(system, [alpha, beta, gamma, bg, abg])
        small = RootSet.from_indices(system, [beta, gamma, bg])
        u = RootSet.from_indices(system, [alpha, beta])
        v = RootSet.from_indices(system, [alpha, gamma])
        for name, r in [("R", big), ("S", small), ("U", u), ("V", v)]:
            expect(f"{name} is closed and antisymmetric",
                   classify(r).poset)
        for lower in (u, v):
            for upper in (big, small):
                expect("U, V below R, S", wo.weak_le(lower, upper))
        expect("no closed set between them", not any(
            classify(t).closed
            for t in _sandwich_candidates(system, [u, v], [big, small])))
        report = wo.verify_lattice([big, small, u, v])
        expect("the four-set family is not a lattice", not report.is_lattice)

    elif case == "b3-convex-lattice":
        system = build_from_label("B3")
        sets = {
            "R": "-[1,0,0],-[1,1,0],-[1,1,1],-[1,2,2],+[0,0,1]",
            "S": "-[1,0,0],-[1,1,1],-[1,2,2]",
            "U": "-[1,0,0],+[0,0,1]",
            "V": "-[1,2,2],+[0,0,1]",
        }
        rs = {k: parse_set_literal(system, v) for k, v in sets.items()}
        for k, r in rs.items():
            expect(f"{k} is convex", is_convex(r))
        for lower in (rs["U"], rs["V"]):
            for upper in (rs["R"], rs["S"]):
                expect("U, V below R, S", wo.weak_le(lower, upper))
        mid = wo.lattice_op(wo.Level.CLOSED, "meet", rs["R"], rs["S"])
        expect("closed meet is {-a1, -a1-2a2-2a3, a3}",
               mid == parse_set_literal(system, "-[1,0,0],-[1,2,2],+[0,0,1]"))
        expect("that meet is not convex", not is_convex(mid))
        expect("it forces -a1-a2 into the cone",
               _cone_member(system, mid, "-[1,1,0]"))
        expect("no convex set between them", not any(
            is_convex(t) for t in _sandwich_candidates(
                system, [rs["U"], rs["V"]], [rs["R"], rs["S"]])))

    return CounterexampleReport(case, all(ok for _, ok in checks), checks)


def _coord_sum(system, indices):
    """The int vector of the sum of the roots at ``indices``."""
    return tuple(map(sum, zip(*(system.int_coords[i] for i in indices))))


def _sandwich_candidates(system, lowers, uppers):
    """All subsets T with every lower <= T <= every upper in weak order."""
    pos_must = 0
    pos_may = system.pos_mask
    neg_must = 0
    neg_may = system.neg_mask
    for r in uppers:
        pos_must |= r.bits & system.pos_mask
        neg_may &= r.bits | system.pos_mask
    for r in lowers:
        pos_may &= r.bits | system.neg_mask
        neg_must |= r.bits & system.neg_mask
    if pos_must & ~pos_may or neg_must & ~neg_may:
        return
    pos_free = _indices(pos_may & system.pos_mask & ~pos_must)
    neg_free = _indices(neg_may & system.neg_mask & ~neg_must)
    base = pos_must | neg_must
    free = pos_free + neg_free
    for mask in range(1 << len(free)):
        yield RootSet(system, base | sum(1 << free[i] for i in _indices(mask)))


def _cone_member(system, rset, literal):
    from .linalg import in_rational_cone
    gens = [system.roots[i].coords for i in rset]
    target = system.roots[_root(system, literal)].coords
    return in_rational_cone(gens, target, system.rank)
