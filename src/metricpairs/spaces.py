"""Finite metric spaces, distinguished subsets, cross metrics, Hausdorff distances.

A metric pair is a space together with a nonempty subset; a metric tuple
carries a nested chain of subsets.  A cross metric glues two spaces along
a positive cross-distance block; when its mixed triangle inequalities hold
the assembled disjoint-union matrix is again a metric.

Every validated space is canonical: symmetric, with a zero diagonal that
is 0.0 when the validated matrix holds a float entry.  A positive tolerance admits
a matrix that breaks either rule within it; ``validate_metric`` reports
on the matrix as given, then checks and stores its canonical form.
``restrict``, ``assemble`` and ``product_max_metric`` build symmetric
matrices from canonical factors, with the zero of every entry they hold
on the diagonal.  So no algorithm has to decide what an asymmetric
distance means.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

from .scalars import (
    Scalar,
    all_exact,
    as_index,
    check_positive,
    is_exact,
    left_sum,
    tolerance_for,
    value_class,
    zero_for,
)


class InvalidMetricError(ValueError):
    """A matrix failed the metric axioms; carries the violation report."""

    def __init__(self, report: "MetricViolations"):
        super().__init__(f"not a metric: {report.summary()}")
        self.report = report


@value_class
class MetricViolations:
    """Every axiom failure of a candidate matrix.

    ``asymmetric`` and ``diagonal`` describe the matrix as given;
    ``nonpositive`` and ``triangles`` its canonical form, in which each
    lower entry takes its upper mirror's value.  ``triangles`` lists
    (i, j, k) with d[i][k] > d[i][j] + d[j][k], scanned over i < k and
    every middle point j.
    """

    size: int
    asymmetric: tuple
    diagonal: tuple
    nonpositive: tuple
    triangles: tuple

    @property
    def ok(self) -> bool:
        return not (self.asymmetric or self.diagonal or self.nonpositive or self.triangles)

    def summary(self) -> str:
        parts = []
        if self.asymmetric:
            parts.append(f"{len(self.asymmetric)} asymmetric entries")
        if self.diagonal:
            parts.append(f"{len(self.diagonal)} nonzero diagonal entries")
        if self.nonpositive:
            parts.append(f"{len(self.nonpositive)} nonpositive off-diagonal entries")
        if self.triangles:
            parts.append(f"{len(self.triangles)} triangle violations")
        return "; ".join(parts) if parts else "ok"

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "asymmetric": [list(p) for p in self.asymmetric],
            "diagonal": list(self.diagonal),
            "nonpositive": [list(p) for p in self.nonpositive],
            "triangles": [list(t) for t in self.triangles],
            "ok": self.ok,
        }


def _on_integer_scale(tol, *matrices):
    """``(scale, tol, *matrices)``, multiplied by one common denominator
    when exact.

    A ``tol`` of None takes ``tolerance_for`` of the entries.  When the
    tolerance and every entry are int or Fraction, each value v becomes
    the integer v * scale, with scale the least common multiple of all
    their denominators; every sum-against-sum comparison then runs on
    ints with the outcome it has on the rationals, and ``Fraction(w,
    scale)`` maps a result w back.  Anything else comes back untouched
    with scale None, so float comparisons keep their operands and rounding.
    """
    values = [v for m in matrices for row in m for v in row]
    own = tolerance_for(values)  # an exact 0 exactly when every entry is exact
    if tol is None:
        tol = own
    if not (is_exact(own) and is_exact(tol)):
        return (None, tol, *matrices)
    scale = math.lcm(tol.denominator, *{v.denominator for v in values})
    return (
        scale,
        tol.numerator * (scale // tol.denominator),
        *(
            [[v.numerator * (scale // v.denominator) for v in row] for row in m]
            for m in matrices
        ),
    )


def _upper_mirrored(matrix) -> list:
    """``matrix`` as lists of rows, each lower entry whose value differs
    from its upper mirror replaced by that mirror."""
    rows = [list(row) for row in matrix]
    for i, row in enumerate(rows):
        for j in range(i):
            if row[j] != rows[j][i]:
                row[j] = rows[j][i]
    return rows


def _zero_diagonal(rows: list, zero: Scalar) -> tuple:
    """``rows``, a list of lists, as tuples with ``zero`` on every
    diagonal entry that is nonzero or, when ``zero`` is a float, not 0.0."""
    for i, row in enumerate(rows):
        if row[i] != 0 or isinstance(zero, float):
            row[i] = zero
    return tuple(map(tuple, rows))


def validate_metric(matrix: Sequence[Sequence[Scalar]], labels=None, tol=None):
    """Validate a square matrix as a finite metric.

    Returns the space when every axiom holds, otherwise a MetricViolations
    report listing each failure.  Symmetry and the diagonal are checked
    on the matrix as given; positivity and the triangle inequality on its
    canonical form, in which each lower entry takes the value of its
    upper mirror.  The space stores that form with the zero of the given
    entries' kind (``zero_for``) on every diagonal entry that is nonzero
    or, when a given entry is a float, not 0.0; a matrix already in that
    form comes back entry for entry.  Non-square input, ``labels`` not
    one per point, negative or non-finite entries and a ``tol`` that is
    not a finite number >= 0 raise ValueError.
    """
    if tol is not None and not (tol >= 0 and (is_exact(tol) or math.isfinite(tol))):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    scale, tol, d = _on_integer_scale(tol, matrix)
    for i in range(n):
        for j in range(n):
            v = d[i][j]
            # a finite metric has finite entries; nan would pass every check below
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite entry at ({i}, {j})")
            if v < -tol:
                raise ValueError(f"negative entry at ({i}, {j})")

    asymmetric = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(d[i][j] - d[j][i]) > tol
    )
    diagonal = tuple(i for i in range(n) if abs(d[i][i]) > tol)
    d = _upper_mirrored(d)
    nonpositive = tuple(
        (i, j) for i in range(n) for j in range(n) if i != j and d[i][j] <= tol
    )
    triangles = []
    for i, row in enumerate(d):
        for k in range(i + 1, n):
            dik = row[k]
            triangles.extend(
                (i, j, k)
                for j, dij, djk in zip(range(n), row, d[k])
                if dik > dij + djk + tol and j != i and j != k
            )
    report = MetricViolations(n, asymmetric, diagonal, nonpositive, tuple(triangles))
    if not report.ok:
        return report
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    # the checked matrix is the canonical one when it was not rescaled
    dist = d if scale is None else _upper_mirrored(matrix)
    return FiniteMetricSpace(tuple(labels), _zero_diagonal(dist, zero_for(*matrix)))


@value_class
class FiniteMetricSpace:
    """Immutable labelled finite metric space."""

    labels: tuple
    dist: tuple

    @classmethod
    def from_matrix(cls, matrix, labels=None, tol=None) -> "FiniteMetricSpace":
        result = validate_metric(matrix, labels, tol)
        if isinstance(result, MetricViolations):
            raise InvalidMetricError(result)
        return result

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def exact(self) -> bool:
        return all_exact(chain.from_iterable(self.dist))

    def diameter(self, subset: Optional[Sequence[int]] = None) -> Scalar:
        idx = range(self.n) if subset is None else list(subset)
        return max(self.dist[i][j] for i in idx for j in idx)

    def min_positive(self) -> Optional[Scalar]:
        vals = [self.dist[i][j] for i in range(self.n) for j in range(self.n) if i != j]
        positive = [v for v in vals if v > 0]
        return min(positive) if positive else None

    def restrict(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx)
        dist = tuple(tuple(self.dist[i][j] for j in idx) for i in idx)
        return FiniteMetricSpace(labels, dist)


def _normalize_subset(subset, n):
    out = tuple(sorted(set(as_index(i, "subset") for i in subset)))
    if not out:
        raise ValueError("subset must be nonempty")
    if out[0] < 0 or out[-1] >= n:
        raise ValueError("subset index out of range")
    return out


@value_class
class MetricPair:
    """A finite metric space with a distinguished nonempty subset."""

    space: FiniteMetricSpace
    subset: tuple

    def __post_init__(self):
        object.__setattr__(self, "subset", _normalize_subset(self.subset, self.space.n))

    @property
    def subset_space(self) -> FiniteMetricSpace:
        return self.space.restrict(self.subset)

    def as_tuple(self) -> "MetricTuple":
        return MetricTuple(self.space, (self.subset,))


@value_class
class MetricTuple:
    """A finite metric space with a nested chain of nonempty subsets.

    chain[0] is the outermost subset; each following level is contained in
    the previous one.
    """

    space: FiniteMetricSpace
    chain: tuple

    def __post_init__(self):
        levels = tuple(_normalize_subset(level, self.space.n) for level in self.chain)
        if not levels:
            raise ValueError("chain must have at least one level")
        for outer, inner in zip(levels, levels[1:]):
            if not set(outer) >= set(inner):
                raise ValueError("chain levels must be nested")
        object.__setattr__(self, "chain", levels)

    @property
    def k(self) -> int:
        return len(self.chain)


def hausdorff(space: FiniteMetricSpace, s_set, t_set) -> Scalar:
    """Hausdorff distance between two nonempty subsets of one space."""
    s = _normalize_subset(s_set, space.n)
    t = _normalize_subset(t_set, space.n)
    return _cross_hausdorff(space.dist, s, t)


def _cross_violations(dx, dy, c, tol, require_positive: bool = True) -> list:
    """Violation records of the cross block ``c`` between the factor
    matrices ``dx`` and ``dy``, compared within ``tol``.  The caller puts
    all three on one integer scale first when exact, and takes ``tol``
    from there (``_on_integer_scale``).

    One scan serves both sides: on the right it runs over the transposed
    block, and its records keep the left index first."""
    bad = [
        ("positivity", i, j)
        for i, row in enumerate(c)
        for j, v in enumerate(row)
        if v < -tol or (require_positive and v <= tol)
    ]
    for side, d, block in (("left", dx, c), ("right", dy, tuple(zip(*c)))):
        cross, lower, left = f"{side}-cross", f"{side}-lower", side == "left"
        n, others = len(d), range(len(block[0]))
        for a in range(n):
            da, ca = d[a], block[a]
            for a2 in range(n):
                if a2 == a:
                    continue
                daa2, ca2 = da[a2], block[a2]
                for b in others:
                    if ca[b] > daa2 + ca2[b] + tol:
                        bad.append((cross, a, a2, b) if left else (cross, b, a, a2))
            for a2 in range(a + 1, n):
                daa2, ca2 = da[a2], block[a2]
                for b in others:
                    if daa2 > ca[b] + ca2[b] + tol:
                        bad.append((lower, a, a2, b) if left else (lower, b, a, a2))
    return bad


def _glue_block(dx, cells, dy) -> list:
    """The cross block whose entry (x, y) is the least dx[x][x'] + t +
    dy[y'][y] over the weighted cells (x', y', t).

    The cheapest pass is a min-plus product in two stages, over x' and
    then over y'.  Float input keeps the association (dx + t) + dy, and
    float rounding is monotone, so each stage's minimum is the flat
    minimum's bits.  Each stage keeps the first of tied sums, in the order
    of the cells.
    """
    sources = {}
    for x, y, t in cells:
        sources.setdefault(y, []).append((x, t))
    columns = range(len(dy))
    block = []
    for dxi in dx:
        via = [(min(dxi[x] + t for x, t in xs), dy[y]) for y, xs in sources.items()]
        block.append([min(a + dyr[j] for a, dyr in via) for j in columns])
    return block


@value_class
class CrossMetric:
    """Two factor metrics plus a cross-distance block delta[i][j].

    The mixed triangle conditions checked here generate every triangle
    inequality of the assembled disjoint union when both factors are valid.
    """

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    cross: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.cross)
        if len(rows) != self.left.n or any(len(r) != self.right.n for r in rows):
            raise ValueError("cross block has wrong shape")
        object.__setattr__(self, "cross", rows)

    def check(self, require_positive: bool = True) -> list:
        """Return a list of violation records (empty when admissible)."""
        _, tol, c, dx, dy = _on_integer_scale(None, self.cross, self.left.dist, self.right.dist)
        return _cross_violations(dx, dy, c, tol, require_positive)

    def assemble(self) -> FiniteMetricSpace:
        """Full disjoint-union matrix (left block first), with the zero
        of all three blocks' kind on its diagonal."""
        nl, nr = self.left.n, self.right.n
        labels = tuple(f"X:{l}" for l in self.left.labels) + tuple(
            f"Y:{l}" for l in self.right.labels
        )
        rows = []
        for i in range(nl):
            rows.append([*self.left.dist[i], *self.cross[i]])
        for j in range(nr):
            rows.append([*(self.cross[i][j] for i in range(nl)), *self.right.dist[j]])
        zero = zero_for(*self.left.dist, *self.right.dist, *self.cross)
        return FiniteMetricSpace(labels, _zero_diagonal(rows, zero))

    def transpose(self) -> "CrossMetric":
        flipped = tuple(
            tuple(self.cross[i][j] for i in range(self.left.n)) for j in range(self.right.n)
        )
        return CrossMetric(self.right, self.left, flipped)


def _cross_hausdorff(cross, s_left, s_right) -> Scalar:
    """Hausdorff distance between ``s_left`` (rows) and ``s_right``
    (columns) under the block ``cross``."""
    forward = max(min(cross[i][j] for j in s_right) for i in s_left)
    backward = max(min(cross[i][j] for i in s_left) for j in s_right)
    return max(forward, backward)


def _levels_of(obj) -> tuple:
    """Index sets per level, outermost (full space) first; a pair is a
    tuple with one subset level."""
    if isinstance(obj, MetricPair):
        return (tuple(range(obj.space.n)), obj.subset)
    if isinstance(obj, MetricTuple):
        return (tuple(range(obj.space.n)),) + obj.chain
    raise TypeError(f"expected MetricPair or MetricTuple, got {type(obj).__name__}")


def _level_pairs(left, right) -> tuple:
    """(left level, right level) index sets, outermost first."""
    return tuple(zip(_levels_of(left), _levels_of(right)))


def _hausdorff_terms(cross, left, right) -> tuple:
    """Hausdorff distance of every level pair under the block ``cross``,
    outermost first."""
    return tuple(_cross_hausdorff(cross, ll, lr) for ll, lr in _level_pairs(left, right))


def _hausdorff_sum(delta: CrossMetric, left, right, kind: str) -> Scalar:
    if delta.left.n != left.space.n or delta.right.n != right.space.n:
        raise ValueError(f"cross metric does not match the {kind} spaces")
    return left_sum(_hausdorff_terms(delta.cross, left, right))


def pair_hausdorff(delta: CrossMetric, p: MetricPair, q: MetricPair) -> Scalar:
    """Sum of the two Hausdorff terms of a pair under one cross metric."""
    return _hausdorff_sum(delta, p, q, "pair")


def tuple_hausdorff(delta: CrossMetric, tp: MetricTuple, tq: MetricTuple) -> Scalar:
    """Sum of the k+1 Hausdorff terms of a tuple under one cross metric."""
    if tp.k != tq.k:
        raise ValueError("tuples have different chain lengths")
    return _hausdorff_sum(delta, tp, tq, "tuple")


def _sup_abs_diff(cells, dx, dy, zero) -> Scalar:
    """Largest |dx[i][i2] - dy[j][j2]| over pairs of cells (i, j), (i2, j2),
    the earlier cell first; ``zero`` for fewer than two cells or no
    mismatch.  Callers pass ``zero_for`` of their distances, decided
    once outside their loops, so a float result stays float."""
    best: Scalar = zero
    m = len(cells)
    for s in range(m):
        i, j = cells[s]
        dxi, dyj = dx[i], dy[j]
        for t in range(s + 1, m):
            i2, j2 = cells[t]
            diff = dxi[i2] - dyj[j2]
            if diff < 0:
                diff = -diff
            if diff > best:
                best = diff
    return best


def _shortest_paths(n: int, edges) -> list:
    """Dijkstra from every vertex of the undirected graph with weighted
    edges (u, v, w); row u holds the distances from u, None where a
    vertex is unreachable."""
    import heapq

    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for src in range(n):
        dist = [None] * n
        heap = [(0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if dist[node] is not None:
                continue
            dist[node] = d
            for nxt, w in adj[node]:
                if dist[nxt] is None:
                    heapq.heappush(heap, (d + w, nxt))
        rows.append(dist)
    return rows


@value_class
class NetResult:
    """Greedy net: chosen indices plus points only covered at the radius.

    ``members`` preserves greedy acceptance order (seed candidates first).
    ``tight`` lists points whose distance to the net equals the radius, the
    flagged case where strict density is unachievable.
    """

    members: tuple
    tight: tuple


def greedy_net(space: FiniteMetricSpace, radius: Scalar, seed=(), tol=None) -> NetResult:
    """Greedy net: members pairwise further than radius, every point covered.

    Candidates are scanned seed-first then in index order; a candidate is
    accepted when its distance to every chosen member exceeds the radius
    (scaled by 1-tol in float mode).  Every rejected point ends up within
    the radius of some member; ties at exactly the radius are reported.
    """
    check_positive(radius, "radius")
    if tol is None:
        tol = tolerance_for(chain((radius,), *space.dist))
    seed = list(dict.fromkeys(as_index(i, "seed") for i in seed))
    if seed and (min(seed) < 0 or max(seed) >= space.n):
        raise ValueError("seed index out of range")
    order = seed + [i for i in range(space.n) if i not in set(seed)]
    d = space.dist
    threshold = radius - radius * tol if tol else radius
    chosen: list = []
    for p in order:
        if all(d[p][q] > threshold for q in chosen):
            chosen.append(p)
    tight = []
    for p in range(space.n):
        nearest = min(d[p][q] for q in chosen)
        if not nearest < threshold and p not in chosen:
            tight.append(p)
    return NetResult(tuple(chosen), tuple(tight))


def covering_radius(space: FiniteMetricSpace, members, over=None) -> Scalar:
    """Largest distance from a point (of ``over``, default all) to the set;
    an index out of range raises ValueError."""
    members = _normalize_subset(members, space.n)
    pts = range(space.n) if over is None else _normalize_subset(over, space.n)
    return max(min(space.dist[p][q] for q in members) for p in pts)


@value_class
class ProductSpace:
    """X x Y with the max metric; flat index = i * |Y| + j."""

    space: FiniteMetricSpace
    left_size: int
    right_size: int

    def index(self, i: int, j: int) -> int:
        return i * self.right_size + j

    def unindex(self, flat: int):
        return divmod(flat, self.right_size)


def product_max_metric(left: FiniteMetricSpace, right: FiniteMetricSpace) -> ProductSpace:
    """X x Y with the max metric, the zero of both factors' kind on its
    diagonal; an off-diagonal tie takes the left factor's entry."""
    nl, nr = left.n, right.n
    labels = tuple(
        f"({left.labels[i]},{right.labels[j]})" for i in range(nl) for j in range(nr)
    )
    rows = []
    for i in range(nl):
        for j in range(nr):
            row = []
            for i2 in range(nl):
                dxi = left.dist[i][i2]
                for j2 in range(nr):
                    dyj = right.dist[j][j2]
                    row.append(dxi if dxi >= dyj else dyj)
            rows.append(row)
    zero = zero_for(*left.dist, *right.dist)
    return ProductSpace(FiniteMetricSpace(labels, _zero_diagonal(rows, zero)), nl, nr)
