"""Finite metric spaces, distinguished subsets, cross metrics, Hausdorff distances.

A metric pair is a space together with a nonempty subset; a metric tuple
carries a nested chain of subsets.  A cross metric glues two spaces along
a positive cross-distance block; when its mixed triangle inequalities hold
the assembled disjoint-union matrix is again a metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .scalars import Scalar, all_exact, is_exact, tolerance_for


class InvalidMetricError(ValueError):
    """A matrix failed the metric axioms; carries the violation report."""

    def __init__(self, report: "MetricViolations"):
        super().__init__(f"not a metric: {report.summary()}")
        self.report = report


@dataclass(frozen=True)
class MetricViolations:
    """Every axiom failure of a candidate matrix.

    ``triangles`` lists (i, j, k) with d[i][k] > d[i][j] + d[j][k], scanned
    over i < k and every middle point j.
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


def _iter_entries(matrix):
    for row in matrix:
        for v in row:
            yield v


def _on_integer_scale(tol, *matrices):
    """``(scale, tol, *matrices)``, multiplied by one common denominator
    when exact.

    When the tolerance and every entry are int or Fraction, each value v
    becomes the integer v * scale, with scale the least common multiple
    of all their denominators; every sum-against-sum comparison then runs
    on ints with the outcome it has on the rationals, and ``Fraction(w,
    scale)`` maps a result w back.  Anything else comes back untouched
    with scale None, so float comparisons keep their operands and rounding.
    """
    values = [v for m in matrices for row in m for v in row]
    if not (is_exact(tol) and all_exact(values)):
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


def validate_metric(matrix: Sequence[Sequence[Scalar]], labels=None, tol=None):
    """Validate a square matrix as a finite metric.

    Returns the space when every axiom holds, otherwise a MetricViolations
    report listing each failure.  Non-square input, negative or
    non-finite entries and a ``tol`` that is not a finite number >= 0
    raise ValueError.
    """
    if tol is not None and not (tol >= 0 and (is_exact(tol) or math.isfinite(tol))):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if tol is None:
        tol = tolerance_for(_iter_entries(matrix))
    _, tol, d = _on_integer_scale(tol, matrix)
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
    nonpositive = tuple(
        (i, j) for i in range(n) for j in range(n) if i != j and d[i][j] <= tol
    )
    columns = list(zip(*d))
    triangles = []
    for i, row in enumerate(d):
        for k in range(i + 1, n):
            dik = row[k]
            triangles.extend(
                (i, j, k)
                for j, dij, djk in zip(range(n), row, columns[k])
                if dik > dij + djk + tol and j != i and j != k
            )
    report = MetricViolations(n, asymmetric, diagonal, nonpositive, tuple(triangles))
    if not report.ok:
        return report
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in matrix))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Immutable labelled finite metric space."""

    labels: tuple
    dist: tuple

    @classmethod
    def from_matrix(cls, matrix, labels=None) -> "FiniteMetricSpace":
        result = validate_metric(matrix, labels=labels)
        if isinstance(result, MetricViolations):
            raise InvalidMetricError(result)
        return result

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def exact(self) -> bool:
        return all_exact(_iter_entries(self.dist))

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
    out = tuple(sorted(set(int(i) for i in subset)))
    if not out:
        raise ValueError("subset must be nonempty")
    if out[0] < 0 or out[-1] >= n:
        raise ValueError("subset index out of range")
    return out


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _cross_violations(dx, dy, c, require_positive: bool = True) -> list:
    """Violation records of the cross block ``c`` between the factor
    matrices ``dx`` and ``dy``.  The caller puts exact input on one
    integer scale first (``_on_integer_scale``), where the tolerance is 0."""
    tol = tolerance_for(chain(_iter_entries(c), _iter_entries(dx), _iter_entries(dy)))
    nl, nr = len(dx), len(dy)
    bad = []
    for i in range(nl):
        for j in range(nr):
            if c[i][j] < -tol or (require_positive and c[i][j] <= tol):
                bad.append(("positivity", i, j))
    for i in range(nl):
        for i2 in range(nl):
            if i == i2:
                continue
            for j in range(nr):
                if c[i][j] > dx[i][i2] + c[i2][j] + tol:
                    bad.append(("left-cross", i, i2, j))
        for i2 in range(i + 1, nl):
            for j in range(nr):
                if dx[i][i2] > c[i][j] + c[i2][j] + tol:
                    bad.append(("left-lower", i, i2, j))
    for j in range(nr):
        for j2 in range(nr):
            if j == j2:
                continue
            for i in range(nl):
                if c[i][j] > dy[j][j2] + c[i][j2] + tol:
                    bad.append(("right-cross", i, j, j2))
        for j2 in range(j + 1, nr):
            for i in range(nl):
                if dy[j][j2] > c[i][j] + c[i][j2] + tol:
                    bad.append(("right-lower", i, j, j2))
    return bad


@dataclass(frozen=True)
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
        _, _, c, dx, dy = _on_integer_scale(0, self.cross, self.left.dist, self.right.dist)
        return _cross_violations(dx, dy, c, require_positive)

    def assemble(self) -> FiniteMetricSpace:
        """Full disjoint-union matrix (left block first)."""
        nl, nr = self.left.n, self.right.n
        labels = tuple(f"X:{l}" for l in self.left.labels) + tuple(
            f"Y:{l}" for l in self.right.labels
        )
        rows = []
        for i in range(nl):
            rows.append(tuple(self.left.dist[i]) + tuple(self.cross[i]))
        for j in range(nr):
            rows.append(tuple(self.cross[i][j] for i in range(nl)) + tuple(self.right.dist[j]))
        return FiniteMetricSpace(labels, tuple(rows))

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


def pair_hausdorff(delta: CrossMetric, p: MetricPair, q: MetricPair) -> Scalar:
    """Sum of the two Hausdorff terms of a pair under one cross metric."""
    if delta.left.n != p.space.n or delta.right.n != q.space.n:
        raise ValueError("cross metric does not match the pair spaces")
    full = _cross_hausdorff(delta.cross, range(p.space.n), range(q.space.n))
    sub = _cross_hausdorff(delta.cross, p.subset, q.subset)
    return full + sub


def tuple_hausdorff(delta: CrossMetric, tp: MetricTuple, tq: MetricTuple) -> Scalar:
    """Sum of the k+1 Hausdorff terms of a tuple under one cross metric."""
    if tp.k != tq.k:
        raise ValueError("tuples have different chain lengths")
    if delta.left.n != tp.space.n or delta.right.n != tq.space.n:
        raise ValueError("cross metric does not match the tuple spaces")
    total = _cross_hausdorff(delta.cross, range(tp.space.n), range(tq.space.n))
    for sx, sy in zip(tp.chain, tq.chain):
        total = total + _cross_hausdorff(delta.cross, sx, sy)
    return total


def _sup_abs_diff(cells, dx, dy) -> Scalar:
    """Largest |dx[i][i2] - dy[j][j2]| over pairs of cells (i, j), (i2, j2),
    the earlier cell first; 0 for fewer than two cells."""
    best: Scalar = 0
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


@dataclass(frozen=True)
class NetResult:
    """Greedy net: chosen indices plus points only covered at the radius.

    ``members`` preserves greedy acceptance order (seed candidates first).
    ``tight`` lists points whose distance to the net equals the radius, the
    flagged case where strict density is unachievable.
    """

    members: tuple
    tight: tuple

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def greedy_net(space: FiniteMetricSpace, radius: Scalar, seed=(), tol=None) -> NetResult:
    """Greedy net: members pairwise further than radius, every point covered.

    Candidates are scanned seed-first then in index order; a candidate is
    accepted when its distance to every chosen member exceeds the radius
    (scaled by 1-tol in float mode).  Every rejected point ends up within
    the radius of some member; ties at exactly the radius are reported.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if tol is None:
        tol = tolerance_for(chain((radius,), _iter_entries(space.dist)))
    seed = list(dict.fromkeys(int(i) for i in seed))
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
    """Largest distance from a point (of ``over``, default all) to the set."""
    pts = range(space.n) if over is None else list(over)
    return max(min(space.dist[p][q] for q in members) for p in pts)


@dataclass(frozen=True)
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
            rows.append(tuple(row))
    return ProductSpace(FiniteMetricSpace(labels, tuple(rows)), nl, nr)
