"""Exhaustive census: family counts, reference values, conjecture checkers,
and reproductions of the published counterexamples.

Counting strategies
-------------------
antisymmetric   closed form 3^|Phi^+|
semiclosed      (number of closed subsets of Phi^+) squared
closed / posets backtracking over roots ordered by absolute height, with
                forced-inclusion propagation: once two included roots sum
                to a root, that sum is either already decided (checked) or
                forced into the set at its own position
WOIP / COIP     the pairs v <= u of kept elements (all, or the c-sortable
                ones), from kept up-set bitmasks over element ids swept
                by length from the top
WOFP / COFP     the cosets xW_I with x kept, sum over kept x of
                2^(rank - |D_R(x)|)
COEP            the number of c-sortable elements
other families  the distinct posets of the family's intervals
                (families.family_set, also the oracle of the rows above)

The backtracking meets in the middle.  Its last roots, the tail (9/20
of them, at most 16), are decided once: the K tail sets closed among
themselves (and antisymmetric, for posets) are listed in backtracking
order, and each tail root gets a K-bit column of the tail sets that
hold it.  The backtracking over the other roots, the head, carries a
K-bit mask of the tail sets still allowed; each decision ANDs in the
columns that the root sums linking it to the tail require, and a branch
whose mask is 0 is cut.  A head leaf stands for the sets head |
tail[k], k ascending over the mask's bits.  Deciding the head first and
taking the tail sets in their own backtracking order is the order of
one backtracking over all roots, so every count and member list is
unchanged.

count_family counts per head leaf, by the mask's bit count, and builds
no set.  level_members lists the sets of each head leaf, refusing past
a cap: every subset for all, the 3^N sign choices for antisym, closed
subsets of Phi^+ times those of Phi^- for semiclosed, and the
backtracking for closed and posets.  Every enumeration visits
candidates in one fixed order, so member lists are identical across
reruns.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from . import cambrian as camb
from . import families as fam
from . import weakorder as wo
from .coeff import PSI, Coeff
from .errors import ContractViolationError, ResourceCapError
from .rootset import (
    RootSet, _indices, classify, closure_deletion, format_set_literal, is_convex,
    parse_set_literal,
)
from .rootsys import build_from_label
from .weyl import weyl_group

CLOSED_BITSET_LIMIT = 32    # |Phi| cap for the backtracking counters


@dataclass
class CensusResult:
    system: str
    family: str
    count: int
    elapsed: float
    method: str


def _tail_size(n):
    """How many of n roots the tail takes: 9/20 of them, about the best
    size from 15 to 40 roots, and at most 16, since every tail set is
    listed (E7's 63 positive roots would give 28 and about 2^28 sets)."""
    return min(n * 9 // 20, 16)


def _tail_columns(tails, roots):
    """has[r]: bit k set when the tail set tails[k] holds root r, read off
    in one transpose of the sets written as fixed-width binary rows."""
    width = max(roots, default=0) + 1
    # rows reversed, so tails[0] becomes bit 0; root r is character -1 - r
    columns = list(zip(*[format(t, f"0{width}b") for t in reversed(tails)]))
    return {r: int("".join(columns[width - 1 - r]), 2) for r in roots}


def _closed_sets(system, indices, antisymmetric, leaf):
    """Count the subsets of `indices` closed under root sums (and
    antisymmetric if asked), handing them to ``leaf`` in backtracking order.

    Roots are taken by increasing absolute height, then index.  The last
    _tail_size(n) of the n form the tail: its subsets closed among themselves
    are listed once, in backtracking order, as ``tails``.  The backtracking
    over the other roots, the head, ends at each head set ``mask`` with a
    K-bit ``allowed`` of the tails that close it, and calls
    ``leaf(mask, allowed, tails)``: the sets are ``mask | tails[k]`` for
    the set bits k of ``allowed``, ascending.
    """
    order = sorted(indices, key=lambda i: (system.abs_height(i), i))
    cut = len(order) - _tail_size(len(order))
    tails = []
    _backtrack(system, order[cut:], antisymmetric, {}, 1,
               lambda mask, allowed: tails.append(mask))
    has = _tail_columns(tails, order[cut:])
    count = 0

    def head_leaf(mask, allowed):
        nonlocal count
        count += allowed.bit_count()
        leaf(mask, allowed, tails)

    _backtrack(system, order[:cut], antisymmetric, has, (1 << len(tails)) - 1,
               head_leaf)
    return count


def _backtrack(system, order, antisymmetric, has, full, leaf):
    """Backtrack over the roots of `order`, in that order, calling
    ``leaf(mask, allowed)`` on each set closed among them.

    ``has`` maps each root of a tail decided after `order` to its column:
    the bits, within ``full``, of the tail sets that hold it.  ``allowed``
    keeps the tail sets that the root sums linking the two parts admit,
    and a branch whose ``allowed`` reaches 0 is cut.  A sum of two roots
    of `order` is either already decided (checked) or forced into the set
    at its own position.
    """
    pos_of = {r: p for p, r in enumerate(order)}
    table = system.sum_table
    m = len(order)
    rbits = [1 << r for r in order]
    negbits = [1 << system.neg(r) for r in order]
    # per position p, for sums inside `order` with an earlier partner i:
    # (bit of i, bit of the sum), a check where the sum comes before p, a
    # force where after.  For sums that reach the tail: the mask that a
    # decision ANDs into allowed always (inc_all, exc_all), or when an
    # earlier root is in the set (inc_in, exc_in) or out of it (inc_out)
    checks, forces = [[] for _ in order], [[] for _ in order]
    inc_in, inc_out, exc_in = ([{} for _ in order] for _ in range(3))
    inc_all, exc_all = [full] * m, [full] * m

    def meet(links, bit, col):
        links[bit] = links.get(bit, full) & col

    roots = order + list(has)  # x before y below, so y is head only if x is
    for a, x in enumerate(roots):
        for y in roots[a + 1:]:
            s = table[x][y]
            if s < 0 or s not in pos_of and s not in has:
                continue
            if x in has:                     # both tail
                if s in pos_of:              # s out: not both in the tail set
                    exc_all[pos_of[s]] &= ~(has[x] & has[y])
            elif y not in has:               # both head, p < q
                p, q = pos_of[x], pos_of[y]
                if s in has:                 # both in: s in the tail set
                    meet(inc_in[q], rbits[p], has[s])
                else:
                    (checks if pos_of[s] < q else forces)[q].append(
                        (rbits[p], 1 << s))
            elif s in has:                   # x in: tail set with y has s
                inc_all[pos_of[x]] &= ~has[y] | has[s]
            elif pos_of[s] < pos_of[x]:      # x in, s out: y not in tail set
                meet(inc_out[pos_of[x]], 1 << s, ~has[y])
            else:
                meet(exc_in[pos_of[s]], 1 << x, ~has[y])
    if antisymmetric:                        # r in: -r not in the tail set
        for p, r in enumerate(order):
            if system.neg(r) in has:
                inc_all[p] &= ~has[system.neg(r)]
    inc_in, inc_out, exc_in = ([list(links.items()) for links in part]
                               for part in (inc_in, inc_out, exc_in))

    def rec(p, mask, forced, forbidden, allowed):
        if p == m:
            leaf(mask, allowed)
            return
        rbit = rbits[p]
        # include r
        keep = allowed & inc_all[p] if not forbidden & rbit else 0
        if keep:
            for ibit, sbit in checks[p]:
                if mask & ibit and not mask & sbit:
                    keep = 0
                    break
        if keep:
            for ibit, col in inc_in[p]:
                if mask & ibit:
                    keep &= col
            for sbit, col in inc_out[p]:
                if not mask & sbit:
                    keep &= col
        if keep:
            nf = forced
            for ibit, sbit in forces[p]:
                if mask & ibit:
                    nf |= sbit
            rec(p + 1, mask | rbit, nf,
                forbidden | negbits[p] if antisymmetric else forbidden, keep)
        # exclude r
        if not forced & rbit:
            keep = allowed & exc_all[p]
            for xbit, col in exc_in[p]:
                if mask & xbit:
                    keep &= col
            if keep:
                rec(p + 1, mask, forced, forbidden, keep)

    rec(0, 0, 0, 0, full)


def _skip(mask, allowed, tails):
    """A leaf for counts alone: _closed_sets sums the batch sizes."""


def _batch(mask, allowed, tails):
    """The sets of one head leaf, in backtracking order."""
    return [mask | tails[k] for k in _indices(allowed)]


def _collect(found, cap, refusal):
    """A leaf that adds each batch to ``found`` and raises ``refusal``
    once ``found`` holds more than ``cap`` sets."""
    def leaf(mask, allowed, tails):
        found.extend(_batch(mask, allowed, tails))
        if cap is not None and len(found) > cap:
            raise refusal
    return leaf


def _require_dfs(system, level):
    if level in (wo.Level.CLOSED, wo.Level.POSETS) and (
            system.num_roots > CLOSED_BITSET_LIMIT):
        raise ResourceCapError(
            f"{level.value} backtracking capped at |Phi| <= {CLOSED_BITSET_LIMIT}")


def level_members(system, level, cap=None):
    """Every set of one level of the weak order, as RootSets.

    Closed and posets come in DFS order.  A level of more than ``cap``
    sets is refused before its sets are built; the backtracking stops as
    soon as it has found enough sets to exceed the cap.
    """
    n = system.num_positive
    refusal = ResourceCapError(
        f"{level.value} level of {system.label} has more than {cap} sets")
    if level is wo.Level.ALL:
        if cap is not None and 1 << system.num_roots > cap:
            raise refusal
        found = range(1 << system.num_roots)
    elif level is wo.Level.ANTISYM:
        if cap is not None and 3 ** n > cap:
            raise refusal
        found = [0]
        for i in range(n):
            found = [b | s for b in found for s in (0, 1 << i, 1 << (i + n))]
    elif level is wo.Level.SEMICLOSED:
        # closed subsets of Phi^+, whose negations are those of Phi^-;
        # more than isqrt(cap) of them make more than cap products
        halves = []
        _closed_sets(system, range(n), False, _collect(
            halves, None if cap is None else math.isqrt(cap), refusal))
        negs = [system.negate_bits(h) for h in halves]
        found = [p | q for p in halves for q in negs]
    else:
        _require_dfs(system, level)
        found = []
        _closed_sets(system, range(system.num_roots),
                     level is wo.Level.POSETS, _collect(found, cap, refusal))
    return [RootSet(system, b) for b in found]


def enumerate_posets(system):
    """Deterministic list of all posets of the system (DFS order)."""
    return level_members(system, wo.Level.POSETS)


def count_family(system, family, group=None):
    """Exact count of one family over the system.

    ``family`` is a level name other than all, a family name such as
    'COIP(bip)', or a FamilyId.
    """
    t0 = time.perf_counter()
    level = wo.Level.named(family)
    if level is wo.Level.ANTISYM:
        count, method = 3 ** system.num_positive, "closed-form"
    elif level is wo.Level.SEMICLOSED:
        half = _closed_sets(system, range(system.num_positive), False, _skip)
        count, method = half * half, "backtracking"
    elif level in (wo.Level.CLOSED, wo.Level.POSETS):
        _require_dfs(system, level)
        count = _closed_sets(system, range(system.num_roots),
                             level is wo.Level.POSETS, _skip)
        method = "backtracking"
    else:
        family = fam.FamilyId.parse(family) if isinstance(family, str) else family
        count = fam.family_count(group or weyl_group(system), family)
        method = ("group tables" if family.normalized_tag() in fam.TABLE_COUNTED
                  else "exhaustive")
    return CensusResult(system.label, str(family) if level is None else level.value,
                        count, time.perf_counter() - t0, method)


# -- Table 1 reference data ---------------------------------------------------
#
# Values indexed by rank, copied from the source table.  A slash entry is
# stored as a {"B": x, "C": y} pair; which Bourbaki label carries which
# value is exactly the alignment question the census answers (the
# regression goldens in the tests record the computed resolution).

TABLE1 = {
    wo.Level.ANTISYM.value: {
        "A": {1: 3, 2: 27, 3: 729, 4: 3 ** 10},
        "B": {1: 3, 2: 81, 3: 3 ** 9},
        "C": {1: 3, 2: 81, 3: 3 ** 9},
        "D": {4: 3 ** 12},
    },
    wo.Level.SEMICLOSED.value: {
        "A": {1: 4, 2: 49, 3: 1600, 4: 127449},
        "B": {1: 4, 2: 144, 3: 29584, 4: {"B": 5310 ** 2, "C": 5318 ** 2}},
        "C": {1: 4, 2: 144, 3: 29584, 4: {"B": 5310 ** 2, "C": 5318 ** 2}},
        "D": {4: 888 ** 2},
    },
    wo.Level.CLOSED.value: {
        "A": {1: 4, 2: 29, 3: 355, 4: 6942},
        "B": {1: 4, 2: 55, 3: {"B": 1785, "C": 1803}},
        "C": {1: 4, 2: 55, 3: {"B": 1785, "C": 1803}},
        "D": {4: 18291},
    },
    wo.Level.POSETS.value: {
        "A": {1: 3, 2: 19, 3: 219, 4: 4231},
        "B": {1: 3, 2: 37, 3: {"B": 1235, "C": 1225}},
        "C": {1: 3, 2: 37, 3: {"B": 1235, "C": 1225}},
        "D": {4: 219},
    },
    "WOEP": {
        "A": {1: 2, 2: 6, 3: 24, 4: 120},
        "B": {1: 2, 2: 8, 3: 48, 4: 384},
        "C": {1: 2, 2: 8, 3: 48, 4: 384},
        "D": {4: 192},
    },
    "WOIP": {
        "A": {1: 3, 2: 17, 3: 151, 4: 1899},
        "B": {1: 3, 2: 27, 3: 457},
        "C": {1: 3, 2: 27, 3: 457},
        "D": {4: 3959},
    },
    "WOFP": {
        "A": {1: 3, 2: 13, 3: 75, 4: 541},
        "B": {1: 3, 2: 17, 3: 147, 4: 1697},
        "C": {1: 3, 2: 17, 3: 147, 4: 1697},
        "D": {4: 865},
    },
    "COEP": {
        "A": {1: 2, 2: 5, 3: 14, 4: 42},
        "B": {1: 2, 2: 6, 3: 20, 4: 70},
        "C": {1: 2, 2: 6, 3: 20, 4: 70},
        "D": {4: 50},
    },
    "COIP(bip)": {
        "A": {1: 3, 2: 13, 3: 70, 4: 433},
        "B": {1: 3, 2: 18, 3: 138, 4: 1185},
        "C": {1: 3, 2: 18, 3: 138, 4: 1185},
        "D": {4: 622},
    },
    "COIP(lin)": {
        "A": {1: 3, 2: 13, 3: 68, 4: 399},
        "B": {1: 3, 2: 18, 3: 132, 4: 1069},
        "C": {1: 3, 2: 18, 3: 132, 4: 1069},
        "D": {4: 578},
    },
    "COFP": {
        "A": {1: 3, 2: 11, 3: 45, 4: 197},
        "B": {1: 3, 2: 13, 3: 63, 4: 321},
        "C": {1: 3, 2: 13, 3: 63, 4: 321},
        "D": {4: 233},
    },
    "BOEP": {
        "A": {n: 2 ** n for n in range(1, 6)},
        "B": {n: 2 ** n for n in range(1, 5)},
        "C": {n: 2 ** n for n in range(1, 5)},
        "D": {4: 16},
    },
    "BOIP": {
        "A": {n: 3 ** n for n in range(1, 5)},
        "B": {n: 3 ** n for n in range(1, 5)},
        "C": {n: 3 ** n for n in range(1, 5)},
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
    col = fam_table.get(letter)
    if col is None:
        return None
    try:
        rank = int(system_label[1:])
    except ValueError:
        return None
    return col.get(rank)


@dataclass
class Table1Row:
    system: str
    family: str
    count: int
    reference: Optional[object]
    match: Optional[bool]
    variant: Optional[str] = None  # which slash variant matched


def table1_rows(system_labels, family_names):
    for name in family_names:  # a bad name is a usage error, whatever the types
        if wo.Level.named(name) is None:
            fam.FamilyId.parse(name)
    systems = [build_from_label(label) for label in system_labels]
    for system in systems:  # refuse an oversized row before counting any row
        for name in family_names:
            _require_dfs(system, wo.Level.named(name))
    rows = []
    for label, system in zip(system_labels, systems):
        group = None
        for name in family_names:
            if wo.Level.named(name) is None and group is None:
                group = weyl_group(system)
            res = count_family(system, name, group)
            ref = reference_count(label, name)
            match = None
            variant = None
            if isinstance(ref, dict):
                for key, val in ref.items():
                    if val == res.count:
                        match, variant = True, key
                if match is None:
                    match = False
            elif ref is not None:
                match = res.count == ref
            rows.append(Table1Row(label, name, res.count, ref, match, variant))
    return rows


# -- sublattice and conjecture checkers ---------------------------------------

@dataclass
class SublatticeReport:
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
    system = members[0].system
    wo.require_lattice_ops(system, level)
    have = {r.bits for r in members}
    bad = wo.first_rejected_pair(system, level, [r.bits for r in members],
                                 lambda direction, x, out: out in have)
    if bad is None:
        return SublatticeReport(len(members), True)
    i, j, direction, out = bad
    return SublatticeReport(len(members), False, (members[i], members[j], direction,
                                                  RootSet(system, out)))


@dataclass
class ConjectureReport:
    conjecture: str
    system: str
    coxeter: str
    verified: bool
    detail: str = ""
    witness: Optional[object] = None


CONJECTURE_IDS = ("coep-characterization", "coep-sublattice", "coip-sublattice")


def check_conjecture(conj_id, system, coxeter_spec="lin", rank_cap=3):
    """Exhaustively test one of the open conjectures on a desk-scale system."""
    if conj_id not in CONJECTURE_IDS:
        raise ContractViolationError(f"unknown conjecture {conj_id!r}")
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

@dataclass
class CounterexampleReport:
    case: str
    reproduced: bool
    details: list = field(default_factory=list)


COUNTEREXAMPLE_IDS = ("h3-sums", "h2-flag", "h3-ncd",
                      "h3-closed-lattice", "b3-convex-lattice")


def _h3_remark_roots(system):
    """alpha = a1, beta = -(a1 + psi a2), gamma = -(psi a1 + a2 + a3)."""
    lookup = system.index_of_coords
    alpha = lookup[(Coeff(1), Coeff(0), Coeff(0))]
    beta_pos = lookup[(Coeff(1), PSI, Coeff(0))]
    gamma_pos = lookup[(PSI, Coeff(1), Coeff(1))]
    return alpha, system.neg(beta_pos), system.neg(gamma_pos)


def reproduce_counterexample(case):
    """Re-derive one of the published failures from its defining roots."""
    if case not in COUNTEREXAMPLE_IDS:
        raise ContractViolationError(f"unknown counterexample {case!r}")
    checks = []

    def expect(label, ok):
        checks.append((label, bool(ok)))

    if case == "h3-sums":
        system = build_from_label("H3")
        alpha = system.index_of_coords[(Coeff(1), Coeff(0), Coeff(0))]
        beta = system.index_of_coords[(Coeff(0), Coeff(1), Coeff(0))]
        gamma = system.index_of_coords[(PSI, PSI, PSI)]
        expect("gamma = psi(a1+a2+a3) is a root", gamma is not None)
        expect("<alpha, beta> < 0", system.inner(alpha, beta).sign() < 0)
        expect("alpha != -beta", system.neg(alpha) != beta)
        expect("alpha + beta is not a root",
               system.root_sum(alpha, beta) is None)
        triple = tuple(a + b + g for a, b, g in zip(
            system.roots[alpha].coords, system.roots[beta].coords,
            system.roots[gamma].coords))
        expect("alpha + beta + gamma is a root",
               system.index_of_coords.get(triple) is not None)
        # the two-of-three-subsums property fails: of the subsums with
        # gamma, exactly one is a root (which one depends on the diagram
        # orientation; the source text's labels are mirrored against ours)
        in_phi = [system.root_sum(alpha, gamma) is not None,
                  system.root_sum(beta, gamma) is not None]
        expect("exactly one of alpha+gamma, beta+gamma is a root",
               sum(in_phi) == 1)

    elif case == "h2-flag":
        system = build_from_label("H2")
        lookup = system.index_of_coords
        alpha = lookup[(Coeff(1), Coeff(0))]
        beta = lookup[(Coeff(0), Coeff(1))]
        gamma = lookup[(PSI, PSI)]
        delta = system.neg(lookup[(Coeff(1), PSI)])
        quad = [alpha, beta, gamma, delta]
        total = _coord_sum(system, quad)
        expect("the four roots are summable",
               system.index_of_coords.get(total) is not None)
        summable2or3 = []
        for k in (2, 3):
            for sub in itertools.combinations(quad, k):
                s = _coord_sum(system, sub)
                if system.index_of_coords.get(s) is not None:
                    summable2or3.append(sub)
        expect("no summable 2- or 3-subset, hence not a single flag",
               not summable2or3)
        # bounded sweep of the N-span: only the five claimed roots appear
        found = set()
        vecs = [system.roots[i].coords for i in quad]
        for lams in itertools.product(range(5), repeat=4):
            s = None
            for lam, v in zip(lams, vecs):
                term = tuple(lam * x for x in v)
                s = term if s is None else tuple(a + b for a, b in zip(s, term))
            k = system.index_of_coords.get(s)
            if k is not None:
                found.add(k)
        claimed = set(quad) | {system.index_of_coords[total]}
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
    total = None
    for i in indices:
        c = system.roots[i].coords
        total = c if total is None else tuple(a + b for a, b in zip(total, c))
    return total


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
    target = parse_set_literal(system, literal)
    (t,) = list(target)
    gens = [system.roots[i].coords for i in rset]
    return in_rational_cone(gens, system.roots[t].coords, system.rank)
