"""Coxeter elements, sortable elements, Cambrian classes, snakes.

Each (group, word) has one CoxeterElement, which builds its tables once:
the sortable and antisortable flags, the projections pi_down / pi_up and
the c-order on the positive roots.  The projections come from the cover
recursion: every sortable element below w lies below some lower cover
of w, so pi_down(w) is the largest of the lower covers' images, and the
recursion checks that it lies above all of them (dually for pi_up).  By
induction this local check proves the uniqueness the cited theory
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, InvariantError
from .rootset import _indices
from .weyl import ParabolicCoset, facial_le, format_word


class CoxeterElement:
    """A Coxeter element given by an ordering of the simple reflections.

    Tables indexed by element id: ``sortable``, ``antisortable`` (flags),
    ``down``, ``up`` (ids of the projections).  ``c_order`` lists the
    positive-root indices in c-order and ``c_position`` inverts it.
    """

    def __init__(self, group, word):
        word = tuple(word)
        if sorted(word) != list(range(group.system.rank)):
            raise ContractViolationError(
                "a Coxeter element uses every simple reflection exactly once")
        self.group = group
        self.word = word
        els = group.elements
        self.sortable = [_is_sortable(group, word, w) for w in els]
        # w is antisortable iff w w0 is sortable for the reversed word;
        # inv(w w0) is Phi^+ minus inv(w)
        pos = group.system.pos_mask
        self.antisortable = [
            _is_sortable(group, word[::-1], els[group._by_inv[pos ^ w.inv_bits]])
            for w in els]
        self.down = _cover_projection(group, self.sortable, "down")
        self.up = _cover_projection(group, self.antisortable, "up")
        self.c_order = _c_root_order(group, word)
        self.c_position = [0] * len(self.c_order)
        for rank_, idx in enumerate(self.c_order):
            self.c_position[idx] = rank_

    def label(self):
        return "".join(f"s{i + 1}" for i in self.word)

    def __repr__(self):
        return f"CoxeterElement({self.label()})"


def coxeter_element(group, spec):
    """The group's Coxeter element for a word spec, or the aliases lin / bip.

    lin is s1 s2 ... sn, except sn ... s1 in types B/C (the special
    vertex, on the double edge, goes first) and s(n-1) sn s(n-2) ... s1
    in type D; bip multiplies one part of the diagram bipartition, then
    the other.  Specs naming the same word give the same object, so its
    tables are built once per group.
    """
    if isinstance(spec, CoxeterElement):
        return spec
    n = group.system.rank
    family = group.system.family
    if spec == "lin":
        if family in ("B", "C"):
            word = range(n - 1, -1, -1)
        elif family == "D":
            word = [n - 2, n - 1] + list(range(n - 3, -1, -1))
        else:
            word = range(n)
    elif spec == "bip":
        cartan = group.system.cartan
        color = [None] * n
        for start in range(n):
            if color[start] is not None:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and cartan[i][j] and color[j] is None:
                        color[j] = 1 - color[i]
                        stack.append(j)
        word = [i for i in range(n) if color[i] == 0]
        word += [i for i in range(n) if color[i] == 1]
    elif isinstance(spec, str):
        parts = spec.replace(" ", "")
        word = []
        i = 0
        while i < len(parts):
            j = i + 1
            while j < len(parts) and parts[j].isdigit():
                j += 1
            if parts[i] != "s" or j == i + 1:
                raise ContractViolationError(f"bad Coxeter word {spec!r}")
            word.append(int(parts[i + 1:j]) - 1)
            i = j
    else:
        word = spec
    word = tuple(word)
    got = group._coxeter_elements.get(word)
    if got is None:
        got = group._coxeter_elements[word] = CoxeterElement(group, word)
    return got


def _sorting_word(group, word, w):
    simples = group.simple_root_indices
    letters = []
    blocks = []
    u = w
    while u.length:
        block = set()
        for i in word:
            if (u.inv_bits >> simples[i]) & 1:  # left descent at i
                u = group.mult_gen_left(i, u)
                letters.append(i)
                block.add(i)
        if not block:
            raise InvariantError("sorting scan made no progress")
        blocks.append(frozenset(block))
    return letters, blocks


def _is_sortable(group, word, w):
    _, blocks = _sorting_word(group, word, w)
    return all(blocks[i] >= blocks[i + 1] for i in range(len(blocks) - 1))


def sorting_word(c, w):
    """(letters, blocks) of the c-sorting word of w.

    Greedy scan of c^infinity taking every letter that shortens w from
    the left; the letters taken during one pass over c form one block.
    """
    return _sorting_word(c.group, c.word, w)


def is_sortable(c, w, kind="sortable"):
    """Is w c-sortable (nested blocks), or c-antisortable (w*w0 is
    c^-1-sortable)?  Read from c's tables."""
    if kind == "sortable":
        return c.sortable[w.id]
    if kind == "antisortable":
        return c.antisortable[w.id]
    raise ContractViolationError("kind must be 'sortable' or 'antisortable'")


def _cover_projection(group, keep, direction):
    """Ids of the largest kept element below each w ("down"), or of the
    smallest kept element above it ("up"), by the cover recursion.

    Raises InvariantError where the lower (upper) covers' images have no
    largest (smallest) element among them.
    """
    down = direction == "down"
    els = group.elements  # sorted by length
    out = [None] * len(els)
    for w in (els if down else reversed(els)):
        if keep[w.id]:
            out[w.id] = w.id
            continue
        descents = w.right_descents()
        images = [els[out[group.mult_gen_right(w, i).id]]
                  for i in range(group.system.rank) if (i in descents) == down]
        if down:
            best = max(images, key=lambda x: x.length)
            ok = all(x.weak_le(best) for x in images)
        else:
            best = min(images, key=lambda x: x.length)
            ok = all(best.weak_le(x) for x in images)
        if not ok:
            raise InvariantError(
                f"{group.system.label}: no unique "
                f"{'largest' if down else 'smallest'} kept element "
                f"{'below' if down else 'above'} {w!r}; covers project to "
                f"{sorted(images, key=lambda x: x.id)!r}")
        out[w.id] = best.id
    return out


def cambrian_project(c, w, direction="down"):
    """pi_down (maximal sortable below) or pi_up (minimal antisortable above)."""
    table = c.down if direction == "down" else c.up
    return c.group.elements[table[w.id]]


@dataclass
class CambrianClass:
    bottom: object  # sortable WeylElement
    top: object     # antisortable WeylElement
    members: tuple

    def __repr__(self):
        return f"[{format_word(self.bottom.word())}, {format_word(self.top.word())}]"


def cambrian_classes(c):
    """The fibers of pi_down, in bottom order; WeylGroup.interval_classes
    checks each is the interval from its shortest member, which must be
    its own pi_down, to its longest, which must be every member's pi_up."""
    group = c.group
    classes = []
    for key, members in group.interval_classes(lambda w: c.down[w.id]).items():
        bottom, top = members[0], members[-1]
        if key != bottom.id or any(c.up[w.id] != top.id for w in members):
            raise InvariantError(f"{group.system.label}: the Cambrian class "
                                 f"[{bottom!r}, {top!r}] misses its projections")
        classes.append(CambrianClass(bottom=bottom, top=top,
                                     members=tuple(members)))
    return classes


# -- the c-order on positive roots and alignment ------------------------------

def _c_root_order(group, word):
    """Total order on positive-root indices from the c-sorting word of w0."""
    system = group.system
    letters, _ = _sorting_word(group, word, group.longest)
    if len(letters) != system.num_positive:
        raise InvariantError("sorting word of w0 has wrong length")
    order = []
    prefix = group.identity
    for q in letters:
        root = prefix.perm[group.simple_root_indices[q]]
        order.append(root)
        prefix = group.mult_gen_right(prefix, q)
    if sorted(order) != list(range(system.num_positive)):
        raise InvariantError("c-order does not enumerate the positive roots")
    return order


def is_c_aligned(c, rset):
    """alpha <_c beta and alpha+beta in S imply alpha in S, for S inside Phi^+."""
    system = c.group.system
    if rset.bits & system.neg_mask:
        raise ContractViolationError("alignment is defined for sets of positive roots")
    pos = c.c_position
    table = system.sum_table
    n = system.num_positive
    bits = rset.bits
    for a in range(n):
        row = table[a]
        for b in range(n):
            if pos[a] < pos[b]:
                k = row[b]
                if 0 <= k < n and (bits >> k) & 1 and not (bits >> a) & 1:
                    return False
    return True


# -- snakes -------------------------------------------------------------------

def _snakes(c, rset, max_len):
    """Yield all c-snakes of R up to max_len, as tuples of root indices.

    Template 1 alternates positive, negative, positive ... with
    |a1| <c |a2| >c |a3| <c ... on the positive versions; template 2 is
    the sign-swapped pattern with the mirrored comparison chain.
    """
    system = c.group.system
    pos = c.c_position
    members = _indices(rset.bits)

    def posval(i):
        j = i if system.is_positive(i) else system.neg(i)
        return pos[j]

    def extend(seq, template):
        yield tuple(seq)
        if len(seq) >= max_len:
            return
        k = len(seq)  # next position (0-based); paper's index k+1
        want_positive = (k % 2 == 0) if template == 1 else (k % 2 == 1)
        prev = seq[-1]
        # comparisons alternate: <c at odd paper-index steps, >c at even
        ascending = (k % 2 == 1) if template == 1 else (k % 2 == 0)
        for nxt in members:
            if system.is_positive(nxt) != want_positive:
                continue
            if ascending:
                if not posval(prev) < posval(nxt):
                    continue
            else:
                if not posval(prev) > posval(nxt):
                    continue
            yield from extend(seq + [nxt], template)

    for template in (1, 2):
        first_positive = template == 1
        for start in members:
            if system.is_positive(start) == first_positive:
                yield from extend([start], template)


def _bounded_combo(vecs, goal, bound):
    """Is goal a sum of l_i * vecs[i] with 0 <= l_i <= bound, exact ints?

    Pruned by per-coordinate reachability intervals of the suffixes.
    """
    m = len(vecs)
    rank = len(goal)
    lo = [[0] * rank for _ in range(m + 1)]
    hi = [[0] * rank for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for d in range(rank):
            x = bound * vecs[i][d]
            lo[i][d] = lo[i + 1][d] + min(0, x)
            hi[i][d] = hi[i + 1][d] + max(0, x)

    def rec(i, remaining):
        for d in range(rank):
            if not lo[i][d] <= remaining[d] <= hi[i][d]:
                return False
        if i == m:
            return True
        v = vecs[i]
        for lam in range(bound + 1):
            nxt = tuple(r - lam * x for r, x in zip(remaining, v))
            if rec(i + 1, nxt):
                return True
        return False

    return rec(0, goal)


def snake_decomposable_roots(c, rset):
    """All roots of Phi admitting a c-snake decomposition in R (bulk form).

    Snakes have at most 2 rank + 2 roots, and each enters with a
    coefficient of at most the largest root coordinate.
    """
    system = c.group.system
    if not system.crystallographic:
        raise ContractViolationError("snake search needs integer coordinates")
    max_len = 2 * system.rank + 2
    coeff_bound = max(abs(x) for row in system.int_coords for x in row)
    found = set(_indices(rset.bits))
    todo = [i for i in range(system.num_roots) if i not in found]
    if not todo:
        return found
    for snake in _snakes(c, rset, max_len):
        vecs = []
        for p, idx in enumerate(snake):
            sign = 1 if p % 2 == 0 else -1
            vecs.append(tuple(sign * x for x in system.int_coords[idx]))
        still = []
        for alpha in todo:
            target = system.int_coords[alpha]
            hit = any(
                _bounded_combo(vecs, tuple(f * t for t in target), coeff_bound)
                for f in (1, -1))
            if hit:
                found.add(alpha)
            else:
                still.append(alpha)
        todo = still
        if not todo:
            break
    return found


# -- facial Cambrian classes ---------------------------------------------------

@dataclass
class FacialCambrianClass:
    down: ParabolicCoset
    up: ParabolicCoset
    members: tuple

    def __repr__(self):
        return f"[{self.down!r}, {self.up!r}]"


def facial_cambrian_classes(c, cosets):
    """Partition of the cosets by (x class, x w_{o,I} class); min/max checked."""
    buckets = {}
    for coset in cosets:
        key = (c.down[coset.x.id], c.down[coset.w_long.id])
        buckets.setdefault(key, []).append(coset)
    classes = []
    for key in sorted(buckets):
        members = buckets[key]
        down = up = members[0]
        for m in members[1:]:
            if facial_le(m, down):
                down = m
            if facial_le(up, m):
                up = m
        for m in members:
            if not (facial_le(down, m) and facial_le(m, up)):
                raise InvariantError("facial Cambrian class lacks min/max")
        classes.append(FacialCambrianClass(down=down, up=up,
                                           members=tuple(members)))
    return classes
