"""Exact small-instance pair and tuple distance computation.

For fixed witness maps (one map each way per level) the optimization over
admissible cross metrics collapses: only the worst additive mismatch
between tagged witness entries matters, one number per level pair.  The
value is then a tiny program over one radius per level whose optimum, by
duality, is a max-weight assignment of levels to levels: in closed form
for up to two levels and a subset dynamic program for more.  The outer
search over witness maps is a depth-first branch and bound; the reduced
value only grows as entries accumulate, so it prunes against the
incumbent safely, both on the slot being filled and, looking ahead, on
the least entry every unplaced slot must still add.  Each placed entry
also drops the candidates of later slots that it alone brings to the
incumbent (forward checking), and a slot left with none cuts the
branch.  A floor, built once per solve from the sets of distances each
point sees at each level (the pair form of Memoli's local distance-set
bound), is worth no more than any leaf, so the search ends at the first
leaf that reaches it.  Exact distances are searched on one integer
scale (``spaces._on_integer_scale``) and the optimum mapped back.  The
simplex (``lp``, on a fraction-free integer tableau) runs once per
summed solve of three or more levels, to split the optimal value into
certificate radii.  The certificate's cross metric is a min-plus product
through the witness cells, built and checked on the integer scale as
well.

The same search finds ``correspondences.min_distortion``'s least
relations on small grids (``_least_union``): every covering relation of
two pairs contains a union of four maps, X -> Y, Y -> X, A -> B and
B -> A, and both of its sups only grow with the relation.  Two map-union
variants price a witness by its union: ``"distortion"`` by the doubled
distortion, ``"sup_full"`` by the full sup.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from . import DEFAULT_BUDGET
from .lp import LinearProgram, solve_lp
from .scalars import Scalar, close, format_scalar, half, left_sum, value_class, zero_for
from .spaces import (
    CrossMetric,
    MetricPair,
    MetricTuple,
    _cross_violations,
    _glue_block,
    _hausdorff_terms,
    _levels_of,
    _on_integer_scale,
)

_KEY_SIZE_LIMIT = 6


class BudgetExceededError(RuntimeError):
    """Raised when a witness search visits more nodes than its budget.

    The budget counts the search nodes of one exact solve.  Cost is
    observed, not predicted: instances of one size differ by orders of
    magnitude in the nodes they need.
    """

    def __init__(self, nodes, budget):
        super().__init__(
            f"witness search visited {nodes} nodes, over its budget of {budget}"
        )
        self.nodes = nodes
        self.budget = budget


# ---------------------------------------------------------------------------
# reduced radius programs (all values doubled to keep integers integral)


def _cheap_value2(m) -> Scalar:
    """Doubled lower bound on the radius sum: trace and doubled off-diagonals.

    The key the search orders children by and stops a sorted scan at for
    summed tuples of three or more levels; for one or two levels it equals
    _assignment_value2, which keys the search there.
    """
    nlev = len(m)
    total = m[0][0]
    for a in range(1, nlev):
        total = total + m[a][a]
    best = total
    for a in range(nlev):
        row = m[a]
        for b in range(a + 1, nlev):
            cand = 2 * row[b]
            if cand > best:
                best = cand
    return best


def _max_entry(m) -> Scalar:
    best = m[0][0]
    for a in range(len(m)):
        row = m[a]
        for b in range(a, len(m)):
            if row[b] > best:
                best = row[b]
    return best


def _distortion2(m) -> Scalar:
    """Doubled distortion of a pair's map union: the full sup plus the
    subset-level one (``_search``'s distortion variant)."""
    return _max_entry(m) + m[1][1]


def _assignment_value2(m) -> Scalar:
    """Doubled optimal radius sum as a max-weight assignment over levels.

    The dual of the radius program is a fractional matching with loops;
    its optimum is max over permutations s of sum_a m[a][s(a)].  Entries
    only enter with positive sign, so the value never drops when one of
    them grows, which makes it a pruning bound on unfinished witnesses.
    """
    nlev = len(m)
    if nlev == 1:
        return m[0][0]
    if nlev == 2:
        trace = m[0][0] + m[1][1]
        cross = 2 * m[0][1]
        return cross if cross > trace else trace
    # best[mask]: rows 0 .. |mask|-1 assigned to the columns in mask
    best = [0] * (1 << nlev)
    for mask in range(1, 1 << nlev):
        row = m[mask.bit_count() - 1]
        top = None
        rest = mask
        while rest:
            low = rest & -rest
            cand = best[mask ^ low] + row[low.bit_length() - 1]
            if top is None or cand > top:
                top = cand
            rest ^= low
        best[mask] = top
    return best[-1]


def radius_lp(m):
    """Exact doubled radius sum and doubled radii via the simplex.

    Minimizes the sum of one radius per level subject to every pairwise sum
    of radii covering the corresponding mismatch entry.
    """
    nlev = len(m)
    lp = LinearProgram((Fraction(1),) * nlev)
    for a in range(nlev):
        for b in range(a, nlev):
            coeffs = [0] * nlev
            coeffs[a] += 1
            coeffs[b] += 1
            lp.add(coeffs, ">=", 2 * Fraction(m[a][b]))
    res = solve_lp(lp)
    if res.status != "optimal":  # pragma: no cover - always feasible and bounded
        raise RuntimeError(f"radius program came back {res.status}")
    return res.value, res.solution


def _value_and_radii(m, variant):
    """Value and certificate radii of a mismatch matrix of two or more levels.

    The max variant puts its value on every level.  From three levels on
    the sum is split by the simplex, which works in exact binary rationals
    of float inputs, so a matrix holding floats gets its radii back as
    floats.
    """
    if variant == "max":
        value = half(_max_entry(m))
        return value, (value,) * len(m)
    v2 = _assignment_value2(m)
    if len(m) == 2:
        radii2 = (m[0][0], v2 - m[0][0])
    else:
        zero = zero_for(*m)  # adding a float zero makes a Fraction float
        radii2 = tuple(r + zero for r in radius_lp(m)[1])
    return half(v2), tuple(half(r) for r in radii2)


def _distance_sets(dx, dy, levels_left, levels_right):
    """Least mismatch matrix M: ``M[a][b] <= m[a][b]`` for every witness.

    The profile of x at level b is the set of distances from x to the
    level-b points.  A level-a entry (x, y) meets every level-b point of
    either side through level-b entries, so m[a][b] is at least the
    Hausdorff distance in the line between the profiles of x and y; and
    every level-a point lies in some level-a entry, so m[a][b] is at
    least the largest over the points of either side of level a of the
    least such distance to a partner, and likewise with a and b swapped.
    Points with one profile count once, and the distance of two profiles
    is computed once per solve.  This is the pair form of Memoli's local
    distance-set bound (DCG 2012).  Its differences are the search's own,
    so in floats too it never exceeds a leaf's entry.
    """
    nlev = len(levels_left)

    def spread(d):
        """Hausdorff distance of two sets from their pairwise distances."""
        return max(max(map(min, d)), max(map(min, zip(*d))))

    def profiles(dist, levels):
        return [[frozenset(map(row.__getitem__, level)) for level in levels] for row in dist]

    gaps = {}

    def gap(p, q):
        if (p, q) not in gaps:
            gaps[p, q] = spread([[abs(u - v) for v in q] for u in p])
        return gaps[p, q]

    px, py = profiles(dx, levels_left), profiles(dy, levels_right)

    def least(a, b):
        """The bound on m[a][b] from the level-a points' profiles at b."""
        ps = {px[x][b] for x in levels_left[a]}
        qs = {py[y][b] for y in levels_right[a]}
        return spread([[gap(p, q) for q in qs] for p in ps])

    d = [[least(a, b) for b in range(nlev)] for a in range(nlev)]
    return [[max(d[a][b], d[b][a]) for b in range(nlev)] for a in range(nlev)]


# ---------------------------------------------------------------------------
# witness search


def _search(dx, dy, zero, levels_left, levels_right, variant, budget):
    """Branch and bound over all witness assignments.

    Slots run innermost level first, left-side points before right-side
    ones; children are tried in order of a key, then target index, so the
    first optimum found is deterministic.  One value function, _max_entry
    (max, sup_full), _assignment_value2 or _distortion2, prices leaves and
    the lookahead and is the key, so the scan of the children stops at the
    first key that reaches the incumbent.  Summed tuples of three or more levels
    are keyed by the cheaper _cheap_value2 instead, which never exceeds
    the value; only there is a child the key lets through priced, and
    skipped when its value already reaches the incumbent.

    Every candidate entry of an unplaced slot keeps its row: its worst
    mismatch against the entries placed so far, per level, raised as
    entries are placed and lowered back as they are popped.  A child's
    row is read from it, and once there is an incumbent each node looks
    ahead: m with every unplaced slot's level raised by the least row
    among its candidates bounds every leaf below, since m only grows,
    so the node is cut when that bound reaches the incumbent.

    Forward checking: once there is an incumbent, raise_rows also drops
    every dead candidate, one whose new row entry r at the placed level
    lvl alone brings the value to the incumbent.  That is r for max; for
    a sum, 2r on a slot of another level, and on a slot of level lvl the
    trace with its diagonal raised to r: r plus the diagonal entries of
    the levels above lvl, as those below have no entry yet.  It is added,
    never found by subtracting from the incumbent, which rounds in
    floats; and as a float sum of two or more entries can round above
    the trace, there the largest of them stands in for their sum.  Each
    slot keeps its live candidates as one list, swapped on the undo
    trail; the children and the lookahead read only those.  A slot left
    with no live candidate cuts the child before it becomes a node.  One
    loop folds the entry into each row and, once there is an incumbent,
    tests the candidate; before the first leaf every candidate lives.

    Reused entries: a right-side slot whose point an earlier left-side
    slot of its level already matched has one child that re-places that
    entry.  That child changes no row and no entry of m, and every leaf
    below a later sibling holds a superset of the entries of a leaf below
    it, so is worth no less; once that child is searched, the scan stops.

    Rows and m only grow down a path and the incumbent only falls, so no
    cut or dead candidate hides a strictly better leaf; a leaf replaces
    the incumbent only when strictly better, so the cuts never change
    which optimum is found first, only the nodes visited.

    The floor is value_fn of the distance-set matrix (_distance_sets),
    built once per solve; no leaf is worth less.  So the first leaf whose
    value is not above the floor is optimal, and, as the first optimum
    found, it is the witness a full search would return: the search stops
    there.

    The map-union variants (pairs only) search map unions for the least
    doubled distortion, _distortion2 (the full sup _max_entry(m) plus the
    subset sup m[1][1]), or the least full sup, _max_entry(m).  Their
    level-0 slots are only the points outside the subsets: a point of A
    may take its level-1 image at the full level too, which only shrinks
    the relation, and both sups only grow with it.  So the subset-level
    entries are the union's cells in A x B, and a full-subset pair has no
    level-0 slot.  A point of A has no level-0 entry, which the
    distance-set bound needs, so the floor is off.  A dead candidate
    weighs 1, but 2 for the distortion when it and the placed entry are
    both subset-level, as r then counts in both terms.

    ``dx`` and ``dy`` are the distance matrices of validated spaces, so
    d[i][j] == d[j][i], on one integer scale when exact, and ``zero``
    seeds m.  Raises BudgetExceededError once more than ``budget`` nodes
    are visited.  Returns the per-level entry lists and the mismatch
    matrix.
    """
    nlev = len(levels_left)
    value_fn = {"sum": _assignment_value2, "distortion": _distortion2}.get(variant, _max_entry)
    key_fn = _cheap_value2 if variant == "sum" and nlev > 2 else value_fn
    union = variant in ("distortion", "sup_full")
    # no leaf is worth less than 0, so with the floor off none stops the search
    floor = -1 if union else value_fn(_distance_sets(dx, dy, levels_left, levels_right))

    # per slot, innermost level first and left-side points before right-side
    # ones: its level and its candidates (x, y, dx[x], dy[y], row); a slot
    # fixes x or y, so (x, y) orders its candidates by target index
    slots, cands = [], []
    for lvl in range(nlev - 1, -1, -1):
        left, right = levels_left[lvl], levels_right[lvl]
        own_left, own_right = left, right
        if union and lvl == 0:
            own_left = [x for x in left if x not in levels_left[1]]
            own_right = [y for y in right if y not in levels_right[1]]
        for x in own_left:
            slots.append(lvl)
            cands.append([(x, y, dx[x], dy[y], [zero] * nlev) for y in right])
        for y in own_right:
            slots.append(lvl)
            cands.append([(x, y, dx[x], dy[y], [zero] * nlev) for x in left])
    nslots = len(slots)
    undo = []

    entries = [[] for _ in range(nlev)]
    m = [[zero] * nlev for _ in range(nlev)]
    best = [None, None, None]
    nodes = 0

    def place(lvl, row):
        for j in range(nlev):
            m[lvl][j] = row[j]
            m[j][lvl] = row[j]

    def raise_rows(si, lvl, x, y):
        """Fold the entry (x, y), placed at level lvl, into the rows of
        every slot after si, and once there is an incumbent drop the
        candidates that entry kills.  False when it leaves a slot with
        no live candidate."""
        inc = best[0]
        # what the trace adds to r on a slot of level lvl: its exact sum on
        # the integer scale; with floats its largest entry, no rounding
        extra = 0
        if inc is not None and variant == "sum":
            rest = [m[b][b] for b in range(lvl + 1, nlev)]
            extra = sum(rest) if isinstance(zero, int) else max(rest, default=0)
        for s in range(si + 1, nslots):
            # dead: the candidate's entry r alone brings the value to the
            # incumbent; adding the int 0 never rounds
            if value_fn is _max_entry:  # max and sup_full
                weight, add = 1, 0
            elif variant == "distortion":
                weight, add = 2 if slots[s] == lvl == 1 else 1, 0
            elif slots[s] != lvl:
                weight, add = 2, 0
            else:
                weight, add = 1, extra
            live = cands[s]
            dead = False
            for c in live:
                diff = c[2][x] - c[3][y]
                if diff < 0:
                    diff = -diff
                row = c[4]
                r = row[lvl]
                if diff > r:
                    undo.append((row, lvl, r))
                    row[lvl] = r = diff
                if inc is not None and not weight * r + add < inc:
                    dead = True
            if dead:
                kept = [c for c in live if weight * c[4][lvl] + add < inc]
                if not kept:
                    return False
                undo.append((cands, s, live))
                cands[s] = kept
        return True

    def look_ahead(si):
        bound = [row[:] for row in m]
        for s in range(si, nslots):
            lvl = slots[s]
            target = bound[lvl]
            for j, low in enumerate(map(min, zip(*[c[4] for c in cands[s]]))):
                if low > target[j]:
                    target[j] = low
                    bound[j][lvl] = low
        return value_fn(bound)

    def run(si):
        """Search below slot si; True once a leaf reaches the floor."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        if si == nslots:
            v2 = value_fn(m)
            if best[0] is None or v2 < best[0]:
                best[0] = v2
                best[1] = [list(lv) for lv in entries]
                best[2] = [row[:] for row in m]
            return not v2 > floor
        if best[0] is not None and not look_ahead(si) < best[0]:
            return False
        lvl = slots[si]
        saved = list(m[lvl])
        children = []
        for x, y, _dxr, _dyr, row in cands[si]:
            # on a tie the saved entry stays
            row_new = [r if r > s else s for r, s in zip(row, saved)]
            place(lvl, row_new)
            children.append((key_fn(m), x, y, row_new))
        children.sort()
        # every child rewrites row and column lvl whole, and a subtree
        # leaves m as it found it, so one restore after the scan suffices
        for key, x, y, row_new in children:
            if best[0] is not None and not key < best[0]:
                break
            place(lvl, row_new)
            if key_fn is not value_fn and best[0] is not None and not value_fn(m) < best[0]:
                continue
            # re-placing an entry the level already holds: every later
            # sibling's leaves hold a superset of this child's entries
            reused = (x, y) in entries[lvl]
            entries[lvl].append((x, y))
            mark = len(undo)
            if raise_rows(si, lvl, x, y) and run(si + 1):
                return True
            while len(undo) > mark:
                row, j, old = undo.pop()
                row[j] = old
            entries[lvl].pop()
            if reused:
                break
        place(lvl, saved)
        return False

    run(0)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# results


@value_class
class GHResult:
    """Optimal value with a witness: radii per level and tagged entries.

    The reconstructed cross metric takes, for each (x, y), the cheapest
    single pass through a witness entry; the mismatch constraints make it
    admissible, and it meets every per-level Hausdorff radius.
    """

    left: object
    right: object
    variant: str  # "sum" or "max"
    value: Scalar
    radii: tuple
    levels: tuple
    mismatch: tuple

    def _block(self):
        """``(scale, tol, dx, dy, block)``: the cross block with its factor
        matrices and comparison tolerance, on one integer scale when exact
        (scale None otherwise).  Each witness cell is glued
        (``_glue_block``) with its least radius over the levels.
        """
        scale, tol, dx, dy, (radii,) = _on_integer_scale(
            None, self.left.space.dist, self.right.space.dist, (self.radii,)
        )
        least = {}
        for t, cells in zip(radii, self.levels):
            for cell in cells:
                if cell not in least or t < least[cell]:
                    least[cell] = t
        block = _glue_block(dx, [(x, y, t) for (x, y), t in least.items()], dy)
        return scale, tol, dx, dy, block

    def cross(self) -> CrossMetric:
        scale, _, _, _, block = self._block()
        if scale is not None and scale > 1:
            block = [[Fraction(w, scale) for w in row] for row in block]
        return CrossMetric(self.left.space, self.right.space, block)

    def certificate_report(self) -> dict:
        """Admissibility, zero cells and Hausdorff terms of the cross
        metric, all read off one block on the integer scale."""
        scale, tol, dx, dy, block = self._block()
        terms = _hausdorff_terms(block, self.left, self.right)
        if scale is not None and scale > 1:
            terms = tuple(Fraction(w, scale) for w in terms)
        combined = left_sum(terms) if self.variant == "sum" else max(terms)
        zero = tuple(
            (i, j)
            for i, row in enumerate(block)
            for j, v in enumerate(row)
            if close(v, 0)
        )
        return {
            "violations": tuple(_cross_violations(dx, dy, block, tol, require_positive=False)),
            "zero_cells": zero,
            "terms": terms,
            "combined": combined,
            "value": self.value,
            "achieves_value": close(combined, self.value),
        }

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "value": format_scalar(self.value),
            "radii": [format_scalar(t) for t in self.radii],
            "levels": [[[x, y] for x, y in cells] for cells in self.levels],
            "mismatch": [[format_scalar(v) for v in row] for row in self.mismatch],
        }


def _matrix_from_entries(levels, space_left, space_right):
    dx, dy = space_left.dist, space_right.dist
    nlev = len(levels)
    zero = zero_for(*dx, *dy)
    m = [[zero] * nlev for _ in range(nlev)]
    for a in range(nlev):
        for b in range(a, nlev):
            worst = m[a][b]
            for x, y in levels[a]:
                dxr, dyr = dx[x], dy[y]
                for x2, y2 in levels[b]:
                    diff = dxr[x2] - dyr[y2]
                    if diff < 0:
                        diff = -diff
                    if diff > worst:
                        worst = diff
            m[a][b] = worst
            m[b][a] = worst
    return m


def _finalize(left, right, variant, ents, m):
    return GHResult(
        left,
        right,
        variant,
        *_value_and_radii(m, variant),
        tuple(tuple(sorted(lv)) for lv in ents),
        tuple(tuple(row) for row in m),
    )


def _scaled_search(left, right, variant, levels_l, levels_r, budget):
    """``_search`` on the operands' distances, on one integer scale when
    exact: the scale (None for floats), the entries and the mismatch."""
    scale, _, dx, dy = _on_integer_scale(0, left.space.dist, right.space.dist)
    # the scale records tolerance_for's verdict: no scale, float distances
    zero = 0.0 if scale is None else 0
    return (scale, *_search(dx, dy, zero, levels_l, levels_r, variant, budget))


def _solve(left, right, variant, levels_l, levels_r, budget) -> GHResult:
    """Search the given levels and certify the optimum on the operands.

    A full-subset pair is searched on its one full level; its subset level
    repeats that level's entries and mismatch.  Exact distances are
    searched on one integer scale and the mismatch is mapped back.
    """
    scale, ents, m = _scaled_search(left, right, variant, levels_l, levels_r, budget)
    if scale is not None and scale > 1:
        m = [[Fraction(v, scale) for v in row] for row in m]
    if len(levels_l) == 1:
        ents = ents * 2
        m = [[m[0][0]] * 2 for _ in range(2)]
    return _finalize(left, right, variant, ents, m)


def _least_union(left, right, objective) -> list:
    """A least relation for ``objective``: the union of the first optimal
    witness's entries under the map-union variant of that name."""
    levels = _levels_of(left), _levels_of(right)
    _, ents, _ = _scaled_search(left, right, objective, *levels, math.inf)
    return ents[0] + ents[1]


# ---------------------------------------------------------------------------
# relabel-minimal encodings


def canonical_pair_key(pair: MetricPair):
    """Relabel-minimal encoding of a pair plus the minimizing permutation.

    The encoding is ``(n, flags, rows)``, with the distance rows read in
    the order of the permutation, which maps canonical indices to
    original ones.  Only the relabellings that list the points outside
    the subset first can have the least flags, so only they are scanned;
    of those reaching the least encoding, the lexicographically first is
    returned.  Returns None when the space is too large to canonicalize
    cheaply.
    """
    n = pair.space.n
    if n > _KEY_SIZE_LIMIT:
        return None
    inside = pair.subset
    outside = tuple(i for i in range(n) if i not in inside)
    flags = (0,) * len(outside) + (1,) * len(inside)
    dist = pair.space.dist
    rows, perm = min(
        (tuple(tuple(map(dist[i].__getitem__, perm)) for i in perm), perm)
        for perm in (h + t for h, t in product(permutations(outside), permutations(inside)))
    )
    return (n, flags, rows), perm


# ---------------------------------------------------------------------------
# public entry points


def clear_cache() -> None:
    """No-op: there is no result cache.  Kept for ``perfbench``'s hooks."""


def cache_size() -> int:
    """Always 0: there is no result cache.  Kept for ``perfbench``'s hooks."""
    return 0


def _pair_gh(left, right, variant, budget, shortcut) -> GHResult:
    if not isinstance(left, MetricPair) or not isinstance(right, MetricPair):
        raise TypeError("expected MetricPair operands")
    levels_l = _levels_of(left)
    levels_r = _levels_of(right)
    if shortcut and left.subset == levels_l[0] and right.subset == levels_r[0]:
        levels_l, levels_r = levels_l[:1], levels_r[:1]
    return _solve(left, right, variant, levels_l, levels_r, budget)


def exact_pair_gh(
    left: MetricPair,
    right: MetricPair,
    budget: int = DEFAULT_BUDGET,
    cache: bool = True,
    shortcut: bool = True,
) -> GHResult:
    """Exact pair distance: infimum of the two Hausdorff radii summed.

    Every call runs the witness search; ``cache`` is accepted and ignored.
    """
    return _pair_gh(left, right, "sum", budget, shortcut)


def exact_pair_gh_max(
    left: MetricPair,
    right: MetricPair,
    budget: int = DEFAULT_BUDGET,
    cache: bool = True,
    shortcut: bool = True,
) -> GHResult:
    """Exact pair distance in the max-of-terms variant; ``cache`` is ignored."""
    return _pair_gh(left, right, "max", budget, shortcut)


def exact_tuple_gh(
    left: MetricTuple,
    right: MetricTuple,
    budget: int = DEFAULT_BUDGET,
    variant: str = "sum",
) -> GHResult:
    """Exact tuple distance over all chain levels, no shortcuts applied."""
    if not isinstance(left, MetricTuple) or not isinstance(right, MetricTuple):
        raise TypeError("expected MetricTuple operands")
    if left.k != right.k:
        raise ValueError("tuples have different chain lengths")
    if variant not in ("sum", "max"):
        raise ValueError(f"unknown variant {variant!r}")
    return _solve(left, right, variant, _levels_of(left), _levels_of(right), budget)


# ---------------------------------------------------------------------------
# explicit witness evaluation, used to cross-check the reduction


def witness_entries(left, right, maps) -> tuple:
    """Entries per level from explicit maps [(to_right, to_left), ...]."""
    levels_l = _levels_of(left)
    levels_r = _levels_of(right)
    if len(maps) != len(levels_l):
        raise ValueError("one (to_right, to_left) map pair per level expected")
    out = []
    for lvl, (fwd, back) in enumerate(maps):
        ll, lr = levels_l[lvl], levels_r[lvl]
        cells = []
        for x in ll:
            y = fwd[x]
            if y not in lr:
                raise ValueError(f"level {lvl} forward map leaves the target level")
            cells.append((x, y))
        for y in lr:
            x = back[y]
            if x not in ll:
                raise ValueError(f"level {lvl} backward map leaves the source level")
            cells.append((x, y))
        out.append(tuple(cells))
    return tuple(out)


def witness_reduced_value(left, right, maps, variant: str = "sum"):
    """Value and radii for fixed witness maps via the reduced program."""
    levels = witness_entries(left, right, maps)
    return _value_and_radii(_matrix_from_entries(levels, left.space, right.space), variant)


def build_witness_lp(left, right, maps) -> LinearProgram:
    """Full program for fixed witnesses: cross-metric values and radii.

    Variables are one cross value per (x, y) cell followed by one radius
    per level; the optimum must match witness_reduced_value.
    """
    levels = witness_entries(left, right, maps)
    sx, sy = left.space, right.space
    n, mm = sx.n, sy.n
    nlev = len(levels)
    nvar = n * mm + nlev

    objective = [Fraction(0)] * nvar
    for lvl in range(nlev):
        objective[n * mm + lvl] = Fraction(1)
    lp = LinearProgram(tuple(objective))
    # the mixed triangle conditions of one side, then of the other: cell
    # (a, b) pairs point a of the side with point b of the opposite one
    for d, other, step_a, step_b in ((sx.dist, mm, mm, 1), (sy.dist, n, 1, mm)):
        size = len(d)
        for b in range(other):
            for a in range(size):
                ab = a * step_a + b * step_b
                for a2 in range(size):
                    if a2 == a:
                        continue
                    coeffs = [0] * nvar
                    coeffs[ab] += 1
                    coeffs[a2 * step_a + b * step_b] -= 1
                    lp.add(coeffs, "<=", d[a][a2])
                for a2 in range(a + 1, size):
                    coeffs = [0] * nvar
                    coeffs[ab] += 1
                    coeffs[a2 * step_a + b * step_b] += 1
                    lp.add(coeffs, ">=", d[a][a2])
    for lvl, cells in enumerate(levels):
        for x, y in cells:
            coeffs = [0] * nvar
            coeffs[x * mm + y] += 1
            coeffs[n * mm + lvl] -= 1
            lp.add(coeffs, "<=", 0)
    return lp
