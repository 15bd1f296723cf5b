"""Coxeter elements, sortable elements, Cambrian classes, snakes.

Each (group, word) has one CoxeterElement, which builds its tables once.
pi_down comes from the cover recursion: every sortable element below w
lies below some lower cover of w, so pi_down(w) is the largest of the
lower covers' images, and the recursion checks that it lies above all
of them, which by induction proves the uniqueness the theory asserts.
A Cambrian class, a fiber of pi_down, is the interval from a sortable
bottom to an antisortable top (Reading, *Sortable elements and Cambrian
lattices*, 2007), so pi_up and the antisortable flags are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, InvariantError
from .rootset import _indices
from .weyl import ParabolicCoset, facial_le, format_word


class CoxeterElement:
    """A Coxeter element given by an ordering of the simple reflections.

    Tables indexed by element id: ``sortable``, ``antisortable`` (flags),
    ``down``, ``up`` (ids of the projections); up[w] is the longest member
    of w's pi_down fiber, and w is antisortable iff up[w] == w.
    ``c_order`` lists the positive-root indices in c-order and
    ``c_position`` inverts it.
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
        self.down = _cover_projection(group, self.sortable)
        # ids ascend by length, so the last id of a fiber is its top
        top = {d: w for w, d in enumerate(self.down)}
        self.up = [top[d] for d in self.down]
        self.antisortable = [u == w for w, u in enumerate(self.up)]
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


def _cover_projection(group, keep):
    """Ids of the largest kept element below each w, by the cover
    recursion; raises InvariantError where the lower covers' images have
    no largest element among them."""
    els = group.elements  # sorted by length
    out = [None] * len(els)
    for w in els:
        if keep[w.id]:
            out[w.id] = w.id
            continue
        images = [els[out[group.mult_gen_right(w, i).id]]
                  for i in sorted(w.right_descents())]
        best = max(images, key=lambda x: x.length)
        if not all(x.weak_le(best) for x in images):
            raise InvariantError(
                f"{group.system.label}: no unique largest kept element below "
                f"{w!r}; covers project to {sorted(images, key=lambda x: x.id)!r}")
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
    its own pi_down, to its longest, every member's pi_up."""
    group = c.group
    classes = []
    for key, members in group.interval_classes(lambda w: c.down[w.id]).items():
        bottom, top = members[0], members[-1]
        if key != bottom.id:
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

def _maximal_snake_keys(c, rset, max_len):
    """Yield the sorted (sign, root index) multiset of every maximal
    c-snake of R, one that no member of R extends within max_len roots.

    Template 1 alternates positive, negative, positive ... with
    |a1| <c |a2| >c |a3| <c ... on the positive versions; template 2 is
    the sign-swapped pattern with the mirrored comparison chain.  The
    root at position k enters with sign (-1)^k.
    """
    system = c.group.system
    pos = c.c_position
    n = system.num_positive
    # (c-position of |root|, root) of the members of each sign
    by_sign = {True: [], False: []}
    for i in _indices(rset.bits):
        positive = i < n
        by_sign[positive].append((pos[i if positive else system.neg(i)], i))

    def extend(seq, prev_val, template):
        k = len(seq)  # next position (0-based); paper's index k+1
        if k < max_len:
            want_positive = (k % 2 == 0) == (template == 1)
            # comparisons alternate: <c at odd paper-index steps, >c at even
            ascending = (k % 2 == 1) == (template == 1)
            extended = False
            for val, nxt in by_sign[want_positive]:
                if (prev_val < val) if ascending else (prev_val > val):
                    extended = True
                    seq.append((-1 if k % 2 else 1, nxt))
                    yield from extend(seq, val, template)
                    seq.pop()
            if extended:
                return
        yield tuple(sorted(seq))

    for template in (1, 2):
        for val, start in by_sign[template == 1]:
            yield from extend([(1, start)], val, template)


def _snake_sum_roots(system, key, bound):
    """Every root alpha with +alpha or -alpha = sum l_i sign_i root_i over
    the key's (sign_i, root_i), 0 <= l_i <= bound, exact ints.

    The sums are built one vector at a time; a partial sum is kept only
    while the remaining vectors can still bring it into the box
    [-bound, bound]^rank, where every root lies.
    """
    rank = system.rank
    vecs = [[sign * x for x in system.int_coords[i]] for sign, i in key]
    # low[i] <= s <= high[i] coordinatewise: the sum s of vecs[:i] can
    # still reach the box
    low, high = [[-bound] * rank], [[bound] * rank]
    for v in reversed(vecs):
        low.insert(0, [l - max(0, bound * x) for l, x in zip(low[0], v)])
        high.insert(0, [h - min(0, bound * x) for h, x in zip(high[0], v)])
    sums = {(0,) * rank}
    for v, lo, hi in zip(vecs, low[1:], high[1:]):
        grown = set()
        for s in sums:
            for lam in range(bound + 1):
                t = tuple([a + lam * b for a, b in zip(s, v)])
                if all(l <= x <= h for l, x, h in zip(lo, t, hi)):
                    grown.add(t)
        sums = grown
    found = set()
    for s in sums:
        k = system.index_of_int_coords.get(s)
        if k is not None:
            found.update((k, system.neg(k)))
    return frozenset(found)


def snake_decomposable_roots(c, rset, memo=None):
    """All roots of Phi admitting a c-snake decomposition in R (bulk form).

    Snakes have at most 2 rank + 2 roots, and each enters with a
    coefficient of at most the largest root coordinate.  A coefficient
    may be 0, so only the maximal snakes count, and only their signed
    root multisets: one search per multiset.  ``memo``: an optional dict
    from multisets to found roots, kept by the caller for one system.
    """
    system = c.group.system
    if not system.crystallographic:
        raise ContractViolationError("snake search needs integer coordinates")
    max_len = 2 * system.rank + 2
    coeff_bound = max(abs(x) for row in system.int_coords for x in row)
    if memo is None:
        memo = {}
    found = set(_indices(rset.bits))
    for key in _maximal_snake_keys(c, rset, max_len):
        if len(found) == system.num_roots:
            break
        got = memo.get(key)
        if got is None:
            got = memo[key] = _snake_sum_roots(system, key, coeff_bound)
        found |= got
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
