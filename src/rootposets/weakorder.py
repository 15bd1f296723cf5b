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
the one half, with no full classification.  The search keeps one memo
per direction, as the formula reads each half of a key apart: the
closure of each grown half, the check of each kept half, and the chain
reach of each kept root from each closed half (a root is deleted iff
its reach leaves the set).  Distinct keys share few distinct halves.

The levels are listed (level_members) and counted (level_count) here.
All is every subset, antisym the 3^N sign choices, and semiclosed the
closed subsets of Phi^+ times those of Phi^-.  Closed and posets are a
backtracking over roots ordered by height level (the system's integer
rank of each absolute height), which includes or excludes each root.
Every constraint is a link (bits, want, column) on one decision: when
the roots decided so far, mask, have mask & bits == want, the decision
ANDs column into the branch's mask of allowed completions, and a branch
whose mask is 0 is cut.  The links of a decision read only mask & reads,
reads the OR of their bits, so the AND of the columns of the links that
hold is memoised by that value for one call; far fewer values repeat
than branches reach the decision, and equal columns are stored once.
A root sum decided
before the later summand cuts including that summand with the other in
and the sum out; one decided after both cuts excluding it with both in;
for posets, including the later of r and -r with the other in is cut.

The backtracking meets in the middle.  Its last roots, the tail (9/20 of
them, at most 16), are decided once: the K tail sets closed among
themselves (and antisymmetric, for posets) are listed in backtracking
order, and each tail root gets a K-bit column of the tail sets that hold
it, one strided slice of their bytes.  The backtracking over the other
roots, the head, carries a K-bit mask of the tail sets still allowed; a
root sum linking the head to the tail is a link whose column is made
from those of its tail roots.  A head leaf stands for the sets head |
tail[k], k ascending over the mask's bits.  Deciding the head first and
taking the tail sets in their own backtracking order is the order of one
backtracking over all roots.  level_count counts per head leaf, by the
mask's bit count, and builds no set; level_members lists the sets of
each head leaf, refusing past a cap.  Every enumeration visits candidates
in one fixed order, so member lists are identical across reruns.
"""

from __future__ import annotations

import enum
import math
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import NamedTuple, Optional

from .errors import ContractViolationError, ResourceCapError, UnsupportedOperationError
from .rootset import (
    RootSet, _closed_flags, _indices, classify, closure_bits, deletion_bits,
    format_set_literal, root_sets)

VERIFY_CAP = 5000
HASSE_CAP = 10_000
BUILD_CAP = 1_000_000  # sets that `families build` lists
CLOSED_BITSET_LIMIT = 32  # |Phi| cap for the closed and posets backtracking
SEMICLOSED_LIMIT = 42  # |Phi+| cap for the semiclosed backtracking (D7 counts, B7 not)


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
    system, rbits, sbits = rset.system, rset.bits, sset.bits
    rp, sp = rbits & system.pos_mask, sbits & system.pos_mask
    rn, sn = rbits & system.neg_mask, sbits & system.neg_mask
    return (rp | sp) == rp and (rn & sn) == rn


def _level_member(system, bits, level):
    if level is Level.ALL:
        return True
    if level is Level.SEMICLOSED:  # the same-sign pairs decide it
        return _closed_flags(system, bits, mixed=False)[1]
    flags = classify(RootSet(system, bits))
    if level is Level.ANTISYM:
        return flags.antisymmetric
    if level is Level.CLOSED:
        return flags.closed
    return flags.poset


def lattice_op_bits(system, level, direction, rbits, sbits, memo=None):
    """Meet or join at a level, raw-bits variant without membership checks.

    ``memo``, three dicts a caller keeps for one system, level and
    direction, holds what the formula reads of each half of its key: the
    closure of each grown half, the fast-deletion flag of each kept half,
    and per closed grown half the chain reach of each kept root."""
    if direction == "meet":
        grown, kept, side = system.pos_mask, system.neg_mask, "negative"
    elif direction == "join":
        grown, kept, side = system.neg_mask, system.pos_mask, "positive"
    else:
        raise ContractViolationError("direction must be 'meet' or 'join'")
    key = ((rbits | sbits) & grown) | (rbits & sbits & kept)
    if level in (Level.ALL, Level.ANTISYM):
        return key
    closures, flags, reaches = memo or ({}, {}, {})
    half, rest = key & grown, key & kept
    closed = closures.get(half)
    if closed is None:
        closed = closures[half] = closure_bits(system, half)
    out = closed | rest
    if level in (Level.CLOSED, Level.POSETS):
        # the grown half is closed: the fast deletion is complete iff the
        # kept one is, and on one sign its same-sign pairs decide that
        fast = flags.get(rest)
        if fast is None:
            fast = flags[rest] = (system.crystallographic
                                  and _closed_flags(system, rest, mixed=False)[1])
        out = deletion_bits(system, out, side, fast, reaches.setdefault(closed, {}))
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
    sides = [(direction, grown, [b ^ grown for b in bits_list], set(), ({}, {}, {}))
             for direction, grown in (("meet", system.pos_mask), ("join", system.neg_mask))]
    for i in range(len(bits_list)):
        rejected = {}
        for direction, grown, flips, seen, memo in sides:
            row = flips[i]
            keys = {row & f for f in flips[i + 1:]} - seen
            seen |= keys
            for x in keys:
                out = lattice_op_bits(system, level, direction, x ^ grown, x ^ grown, memo)
                if not accept(direction, x, out):
                    rejected[direction, x] = out
        if rejected:
            return next((i, j, direction, rejected[direction, flips[i] & flips[j]])
                        for j in range(i + 1, len(bits_list))
                        for direction, _, flips, _, _ in sides
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
    """Elements covering R in the level's weak order: the level's members
    one root above R, R less one of its positive roots or R with a
    negative root it lacks, positives ascending, then negatives.

    The closed level has no published cover description; use
    verify_lattice / hasse on an explicit family there.
    """
    system, bits = rset.system, rset.bits
    if level is Level.CLOSED:
        raise UnsupportedOperationError(
            "no cover formula at the closed level; use the generic path")
    if not _level_member(system, bits, level):
        raise ContractViolationError(f"input is not in level {level.value}")
    steps = [bits & ~(1 << a) for a in _indices(bits & system.pos_mask)]
    steps += [bits | 1 << b for b in _indices(system.neg_mask & ~bits)]
    return [RootSet(system, s) for s in steps if _level_member(system, s, level)]


class LatticeReport(NamedTuple):
    family_size: int
    is_lattice: bool
    formula_matches_bruteforce: Optional[bool]
    graded: bool
    witness: Optional[tuple] = None
    cover_count: int = 0


def canonical_sort(family):
    """Deterministic family order: by (|R-| - |R+|, bits)."""
    return sorted(family, key=lambda r: (r.grade(), r.bits))


_LACKS = bytes.maketrans(b"01", b"\1\0")
_BIT_ASCII = [bytes(48 + (b >> i & 1) for b in range(256)) for i in range(8)]


def _key_row(system, x):
    """x as ASCII 0/1 bytes, root r at byte r."""
    return format(x, f"0{system.num_roots}b")[::-1].encode()


def _bit_columns(sets, roots):
    """{r: column}: bit k of column r set when sets[k] holds root r, read
    off the sets' little-endian bytes, last set first: root r's bytes are
    rows[r >> 3::width], which _BIT_ASCII[r & 7] maps to ASCII 1s and 0s."""
    width = (max(roots, default=0) >> 3) + 1
    rows = b"".join([s.to_bytes(width, "little") for s in reversed(sets)])
    return {r: int(rows[r >> 3::width].translate(_BIT_ASCII[r & 7]), 2) for r in roots}


class _Order:
    """The weak order on a canonically sorted family, read off the keys
    f = bits ^ Phi+: R <= S iff f_R is a subset of f_S.

    columns["meet"][r] masks the members whose f lacks root r, and
    columns["join"][r] those whose f holds it; the first are the bit
    columns of the keys g = bits ^ Phi-, the complement of f.  bounds(direction,
    x) ANDs the columns of the roots outside x, those of its positive and
    its negative half apart, each half's AND kept in _halves (as x with
    the other half filled in) for the life of the order.  With x = f_R & f_S it
    gives the members below R and S (those lacking every root outside x);
    with x = g_R & g_S, the members above both (those holding every root
    outside x).  above[i], the up-set of member i, is the bounds of (i, i);
    below(i), its down-set, is found only when asked.  covers[i] lists the
    members covering member i, ascending.
    """

    def __init__(self, system, bits_list):
        self.system, self.bits_list = system, bits_list
        self.full = full = (1 << len(bits_list)) - 1
        keys = [b ^ system.neg_mask for b in bits_list]
        lacking = list(_bit_columns(keys, range(system.num_roots)).values())
        holding = [full ^ col for col in lacking]
        self.columns = {"meet": lacking, "join": holding}
        self._halves = {"meet": {}, "join": {}}
        self.above = above = [self.bounds("join", g) for g in keys]
        # canonical order is a linear extension, so the first index strictly
        # above i covers i; dropping everything above it and taking the
        # first index left finds the next, one step per cover
        self.covers = []
        for i, rest in enumerate(above):
            rest ^= 1 << i
            found = []
            while rest:
                j = (rest & -rest).bit_length() - 1
                found.append(j)
                rest &= ~above[j]
            self.covers.append(found)

    def bounds(self, direction, x):
        memo, out = self._halves[direction], self.full
        for half in (x | self.system.neg_mask, x | self.system.pos_mask):
            found = memo.get(half)
            if found is None:
                outside = _key_row(self.system, half).translate(_LACKS)
                found = memo[half] = reduce(
                    and_, compress(self.columns[direction], outside), self.full)
            out &= found
        return out

    def below(self, i):
        return self.bounds("meet", self.bits_list[i] ^ self.system.pos_mask)

    def extremum(self, direction, found):
        """The index of the glb (meet) or lub (join) of the common bounds
        ``found``, or None.  In canonical order the only candidate is the
        last (first) of them, m, and it is the extremum iff they are its
        own down-set (up-set).  An empty mask picks index -1, whose own
        bounds are not empty."""
        if direction == "meet":
            m = found.bit_length() - 1
            own = self.below(m)
        else:
            m = (found & -found).bit_length() - 1
            own = self.above[m]
        return m if found == own else None


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
    the first row that has it, with the all-level formula, which names
    the key itself, when no formula is given.
    """
    k = len(family)
    if k > cap:
        raise ResourceCapError(f"family of size {k} exceeds the cap {cap}")
    if k == 0:
        return LatticeReport(0, True, None if formula is None else True, True)
    family = canonical_sort(family)
    system = family[0].system
    if formula is not None:
        require_lattice_ops(system, formula)
    bits_list = [r.bits for r in family]
    if len(set(bits_list)) != k:
        raise ContractViolationError("family contains duplicates")
    order = _Order(system, bits_list)
    above, covers = order.above, order.covers
    is_lattice = (above[0] == order.full and all(a >> (k - 1) for a in above)
                  and all(order.extremum("join", above[x] & above[y]) is not None
                          for ups in covers for a, x in enumerate(ups)
                          for y in ups[a + 1:]))

    def accept(direction, x, out):
        m = order.extremum(direction, order.bounds(direction, x))
        return m is not None and (formula is None or out == bits_list[m])

    bad = None
    if not is_lattice or formula is not None:
        bad = first_rejected_pair(system, formula or Level.ALL, bits_list, accept)
    witness = None if bad is None else (family[bad[0]], family[bad[1]])
    grades = [r.grade() for r in family]
    return LatticeReport(
        family_size=k,
        is_lattice=is_lattice,
        formula_matches_bruteforce=None if formula is None else witness is None,
        graded=all(grades[j] - grades[i] == 1
                   for i, found in enumerate(covers) for j in found),
        witness=witness,
        cover_count=sum(map(len, covers)),
    )


def hasse_edges(family):
    """Transitive reduction of weak_le on the family; deterministic order."""
    family = canonical_sort(family)
    if not family:
        return family, []
    covers = _Order(family[0].system, [r.bits for r in family]).covers
    return family, [(i, j) for i, found in enumerate(covers) for j in found]


def export_hasse(family, fmt="dot"):
    """DOT or JSON document of the Hasse diagram of the family."""
    if len(family) > HASSE_CAP:
        raise ResourceCapError(f"hasse export capped at {HASSE_CAP} nodes")
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


# -- level enumeration ------------------------------------------------------

def _tail_size(n):
    """How many of n roots the tail takes: 9/20 of them, about the best
    size from 15 to 40 roots, and at most 16, since every tail set is
    listed (E7's 63 positive roots would give 28 and about 2^28 sets)."""
    return min(n * 9 // 20, 16)


def _closed_sets(system, indices, antisymmetric, leaf=None):
    """Count the subsets of `indices` closed under root sums (and
    antisymmetric if asked), handing them to ``leaf``, if given, in
    backtracking order.

    Roots are taken by height level, that is by increasing absolute
    height, then index.  The last
    _tail_size(n) of the n form the tail: its subsets closed among themselves
    are listed once, in backtracking order, as ``tails``.  The backtracking
    over the other roots, the head, ends at each head set ``mask`` with a
    K-bit ``allowed`` of the tails that close it, and calls
    ``leaf(mask, allowed, tails)``: the sets are ``mask | tails[k]`` for
    the set bits k of ``allowed``, ascending.
    """
    order = sorted(indices, key=lambda i: (system.height_levels[i], i))
    cut = len(order) - _tail_size(len(order))
    tails = []
    _backtrack(system, order[cut:], antisymmetric, {}, 1,
               lambda mask, allowed: tails.append(mask))
    has = _bit_columns(tails, order[cut:])
    count = 0

    def head_leaf(mask, allowed):
        nonlocal count
        count += allowed.bit_count()
        if leaf is not None:
            leaf(mask, allowed, tails)

    _backtrack(system, order[:cut], antisymmetric, has, (1 << len(tails)) - 1,
               head_leaf)
    return count


def _backtrack(system, order, antisymmetric, has, full, leaf):
    """Backtrack over the roots of `order`, in that order, calling
    ``leaf(mask, allowed)`` on each set closed among them.

    ``has`` maps each root of a tail decided after `order` to its column:
    the bits, within ``full``, of the tail sets that hold it, and
    ``allowed`` keeps the tail sets still admitted.  Every constraint is a
    link (bits, want, column) on one decision, to include or to exclude
    the root at one position: when the roots decided so far, ``mask``,
    have ``mask & bits == want``, the decision ANDs ``column`` into
    ``allowed``.  A branch whose ``allowed`` reaches 0 is cut, so a link
    with column 0 forbids its decision.  Links with one key on one
    decision are ANDed into one.

    A decision's links read only ``mask & reads``, reads the OR of their
    bits, so the AND of the columns of the links that hold is memoised
    per decision by that value: A5 closed reaches the head's decisions
    22,159 times with 2,635 distinct values on the include side and 140
    on the exclude side.  Every stored column goes through ``interned``,
    one dict per call, so equal columns share one int: F4 closed stores
    107,165 keys but 1,845 distinct columns, each one bit per tail set.
    The memos live for one call; ``allowed`` stays out of the key.
    """
    if not order:
        return leaf(0, full)
    pos_of = {r: p for p, r in enumerate(order)}
    table = system.sum_table
    last = len(order) - 1
    rbits = [1 << r for r in order]
    inc, exc = [{} for _ in order], [{} for _ in order]

    def link(links, bits, want, col):
        links[bits, want] = links.get((bits, want), full) & col

    roots = order + list(has)  # x before y below, so y is head only if x is
    for a, x in enumerate(roots):
        xbit = 1 << x
        for y in roots[a + 1:]:
            s = table[x][y]
            if s < 0 or s not in pos_of and s not in has:
                continue
            if x in has:                     # both tail
                if s in pos_of:              # s out: not both in the tail set
                    link(exc[pos_of[s]], 0, 0, ~(has[x] & has[y]))
            elif y not in has:               # both head, x before y
                q = pos_of[y]
                if s in has:                 # x and y in: s in the tail set
                    link(inc[q], xbit, xbit, has[s])
                elif pos_of[s] < q:          # x in, s out: y out
                    link(inc[q], xbit | 1 << s, xbit, 0)
                else:                        # x and y in: s in
                    link(exc[pos_of[s]], xbit | 1 << y, xbit | 1 << y, 0)
            elif s in has:                   # x in: tail set with y has s
                link(inc[pos_of[x]], 0, 0, ~has[y] | has[s])
            elif pos_of[s] < pos_of[x]:      # x in, s out: y not in tail set
                link(inc[pos_of[x]], 1 << s, 0, ~has[y])
            else:                            # s out, x in: y not in tail set
                link(exc[pos_of[s]], xbit, xbit, ~has[y])
    if antisymmetric:                        # r in: -r out
        for p, r in enumerate(order):
            nr = system.neg(r)
            if nr in has:
                link(inc[p], 0, 0, ~has[nr])
            elif nr in pos_of and pos_of[nr] < p:
                link(inc[p], 1 << nr, 1 << nr, 0)
    interned = {}

    def decision(links):
        links = [(*key, col) for key, col in links.items()]
        reads = reduce(or_, [bits for bits, _, _ in links], 0)
        memo = {}

        def column(mask):
            col = full
            for bits, want, link_col in links:
                if mask & bits == want:
                    col &= link_col
                    if not col:
                        break
            col = memo[mask] = interned.setdefault(col, col)
            return col
        return reads, memo, column

    inc, exc = ([decision(links) for links in part] for part in (inc, exc))

    def rec(p, mask, allowed):
        # include r; the last position hands its sets to leaf directly
        reads, memo, column = inc[p]
        key = mask & reads
        keep = memo.get(key)
        if keep is None:
            keep = column(key)
        keep &= allowed
        if keep:
            if p == last:
                leaf(mask | rbits[p], keep)
            else:
                rec(p + 1, mask | rbits[p], keep)
        # exclude r
        reads, memo, column = exc[p]
        key = mask & reads
        keep = memo.get(key)
        if keep is None:
            keep = column(key)
        keep &= allowed
        if keep:
            if p == last:
                leaf(mask, keep)
            else:
                rec(p + 1, mask, keep)

    rec(0, 0, full)
    # rec holds itself, and so the memos, in a cycle: break it here, or
    # they outlive the call until a collection (root_sets pauses those)
    del rec


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


def require_dfs(system, level):
    """Refuse the backtracking past the roots it may take: CLOSED_BITSET_LIMIT
    of Phi for closed and posets, SEMICLOSED_LIMIT of Phi+ for semiclosed."""
    if level is Level.SEMICLOSED:
        roots, limit, name = system.num_positive, SEMICLOSED_LIMIT, "Phi+"
    elif level in (Level.CLOSED, Level.POSETS):
        roots, limit, name = system.num_roots, CLOSED_BITSET_LIMIT, "Phi"
    else:
        return
    if roots > limit:
        raise ResourceCapError(f"{level.value} backtracking capped at |{name}| <= {limit}")


def level_members(system, level, cap=None):
    """Every set of one level of the weak order, as RootSets wrapped by
    root_sets.

    Closed and posets come in DFS order.  A level of more than ``cap``
    sets is refused before its sets are built; the backtracking stops as
    soon as it has found enough sets to exceed the cap.
    """
    require_dfs(system, level)
    n = system.num_positive
    refusal = ResourceCapError(
        f"{level.value} level of {system.label} has more than {cap} sets")
    if level is Level.ALL:
        if cap is not None and 1 << system.num_roots > cap:
            raise refusal
        found = range(1 << system.num_roots)
    elif level is Level.ANTISYM:
        if cap is not None and 3 ** n > cap:
            raise refusal
        found = [0]
        for i in range(n):
            found = [b | s for b in found for s in (0, 1 << i, 1 << (i + n))]
    elif level is Level.SEMICLOSED:
        # closed subsets of Phi^+, whose negations are those of Phi^-;
        # more than isqrt(cap) of them make more than cap products
        halves = []
        _closed_sets(system, range(n), False, _collect(
            halves, None if cap is None else math.isqrt(cap), refusal))
        negs = [system.negate_bits(h) for h in halves]
        found = [p | q for p in halves for q in negs]
    else:
        found = []
        _closed_sets(system, range(system.num_roots),
                     level is Level.POSETS, _collect(found, cap, refusal))
    return root_sets(system, found)


def level_count(system, level):
    """The number of sets of one level, listing none: 2^|Phi| for all,
    3^N for antisym, the square of the closed subsets of Phi^+ for
    semiclosed, and for closed and posets the backtracking's batch sizes."""
    require_dfs(system, level)
    n = system.num_positive
    if level is Level.ALL:
        return 1 << system.num_roots
    if level is Level.ANTISYM:
        return 3 ** n
    if level is Level.SEMICLOSED:
        return _closed_sets(system, range(n), False) ** 2
    return _closed_sets(system, range(system.num_roots), level is Level.POSETS)
