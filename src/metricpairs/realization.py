"""Hausdorff distance between Euclidean realizations of small complexes.

Carriers are unions of vertices, segments and triangles.  One side of the
directed distance is exact (closed-form point-to-simplex minimization);
the other is sampled on a power-of-two subdivision grid, so refining the
step keeps earlier sample points and the reported lower bound can only
grow.  The result is an interval of width equal to the sampling step.
The largest sampled distance is found by branch and bound over the grid,
so a finer step measures few more samples than a coarse one.

Plain Python throughout: ``EmbeddedComplex.points`` is a tuple of float
tuples, the point-to-simplex distances are lists of floats and
``carrier_samples`` is a list of point tuples.
"""
from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional, Sequence

from .scalars import as_index, check_positive, left_sum, value_class


@value_class
class Interval:
    lower: float
    upper: float

    def __post_init__(self):
        if self.upper < self.lower:
            raise ValueError("empty interval")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class EmbeddedComplex:
    """Points in R^d plus simplices of one to three vertices.

    Each simplex carries a depth; level_complex(cx, l) keeps simplices of
    depth at least l, so depth 0 simplices exist only at the full level.
    """

    def __init__(self, points, simplices: Sequence, depths: Optional[Sequence] = None):
        try:
            rows = list(points)
            if any(isinstance(row, (str, bytes, bytearray)) for row in rows):
                raise TypeError
            pts = tuple(tuple(float(v) for v in row) for row in rows)
        except TypeError:
            raise ValueError("points must be a nonempty 2d array") from None
        if not pts or len({len(p) for p in pts}) != 1:
            raise ValueError("points must be a nonempty 2d array")
        if not all(math.isfinite(v) for p in pts for v in p):
            raise ValueError("point coordinates must be finite")
        simp = []
        for s in simplices:
            s = tuple(as_index(v, "simplex vertex") for v in s)
            if not 1 <= len(s) <= 3:
                raise ValueError("simplices must have one to three vertices")
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            if any(not 0 <= v < len(pts) for v in s):
                raise ValueError(f"vertex out of range in simplex {s}")
            simp.append(s)
        if not simp:
            raise ValueError("need at least one simplex")
        if depths is None:
            depths = [0] * len(simp)
        depths = [as_index(d, "depth") for d in depths]
        if len(depths) != len(simp) or any(d < 0 for d in depths):
            raise ValueError("one nonnegative depth per simplex expected")
        self.points = pts
        self.simplices = tuple(simp)
        self.depths = tuple(depths)

    @property
    def max_depth(self) -> int:
        return max(self.depths)


def level_complex(cx: EmbeddedComplex, level: int) -> EmbeddedComplex:
    """Sub-complex of simplices surviving to the given depth."""
    if level < 0 or level > cx.max_depth:
        raise ValueError("level out of range")
    keep = [(s, d) for s, d in zip(cx.simplices, cx.depths) if d >= level]
    return EmbeddedComplex(cx.points, [s for s, _ in keep], [d for _, d in keep])


# ---------------------------------------------------------------------------
# exact point-to-simplex distances


def _sub(p, q) -> tuple:
    return tuple(x - y for x, y in zip(p, q))


def _dot(u, v) -> float:
    # scalars.left_sum's order, inlined: this runs per sample
    total = 0.0
    for x, y in zip(u, v):
        total += x * y
    return total


def _along(a, t, d) -> tuple:
    """The point a + t*d."""
    return tuple(x + t * y for x, y in zip(a, d))


def _norm(d) -> float:
    return math.sqrt(_dot(d, d))


def _segment_metric(a, b):
    """The function p -> distance from p to the segment [a, b]; a == b is
    a point."""
    ab = _sub(b, a)
    denom = _dot(ab, ab) or 1.0

    def dist(p) -> float:
        t = min(max(_dot(_sub(p, a), ab) / denom, 0.0), 1.0)
        return _norm(_sub(p, _along(a, t, ab)))

    return dist


def _triangle_closest(p, a, b, c, ab, ac):
    """Closest point of the filled triangle: the first Voronoi region that
    holds p, vertices first, then edges, then the face."""
    ap = _sub(p, a)
    d1 = _dot(ap, ab)
    d2 = _dot(ap, ac)
    if d1 <= 0 and d2 <= 0:
        return a
    bp = _sub(p, b)
    d3 = _dot(bp, ab)
    d4 = _dot(bp, ac)
    if d3 >= 0 and d4 <= d3:
        return b
    cp = _sub(p, c)
    d5 = _dot(cp, ab)
    d6 = _dot(cp, ac)
    if d6 >= 0 and d5 <= d6:
        return c
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return _along(a, d1 / ((d1 - d3) or 1.0), ab)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return _along(a, d2 / ((d2 - d6) or 1.0), ac)
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        return _along(b, (d4 - d3) / (((d4 - d3) + (d5 - d6)) or 1.0), _sub(c, b))
    denom = (va + vb + vc) or 1.0
    return _along(_along(a, vb / denom, ab), vc / denom, ac)


def _triangle_metric(a, b, c):
    """The function p -> distance from p to the filled triangle a, b, c.

    A triangle of zero area is the union of its edges; the regions assume
    positive area, so it is measured edge by edge.
    """
    ab, ac = _sub(b, a), _sub(c, a)
    if _dot(ab, ab) * _dot(ac, ac) - _dot(ab, ac) ** 2 == 0:
        edges = [_segment_metric(*e) for e in ((a, b), (a, c), (b, c))]
        return lambda p: min(e(p) for e in edges)
    return lambda p: _norm(_sub(p, _triangle_closest(p, a, b, c, ab, ac)))


def point_segment_distance(points, a, b) -> list:
    """Distances from each point to the segment [a, b]; a == b is a point."""
    return list(map(_segment_metric(a, b), points))


def point_triangle_distance(points, a, b, c) -> list:
    """Distances from each point to the filled triangle a, b, c, by the
    closest point region by region; works in any ambient dimension."""
    return list(map(_triangle_metric(a, b, c), points))


def _carrier_metric(cx: EmbeddedComplex):
    """The function (p, floor) -> distance from p to the carrier of cx.

    It stops at the first simplex closer than floor and returns that
    distance, which is then all a caller needs to know.  That simplex moves
    to the front, so the next, nearby point usually needs only one.
    """
    parts = []
    for s in cx.simplices:
        corners = [cx.points[v] for v in s]
        if len(s) == 3:
            parts.append(_triangle_metric(*corners))
        else:
            parts.append(_segment_metric(corners[0], corners[-1]))

    def dist(p, floor: float) -> float:
        best = math.inf
        for i, part in enumerate(parts):
            best = min(best, part(p))
            if best <= floor:
                parts.insert(0, parts.pop(i))
                break
        return best

    return dist


# ---------------------------------------------------------------------------
# nested sampling


def _subdivisions(length: float, h: float) -> int:
    if length <= h:
        return 1
    return 2 ** int(math.ceil(math.log2(length / h)))


def _grid(cx: EmbeddedComplex, s, h: float):
    """The sampling grid of simplex s as (m, point, spread).

    point(u, v) for integers u, v >= 0 with u + v <= m is a sample; v is
    always 0 on a segment and m is 0 on a vertex.  Two samples whose
    indices differ by at most i in u and in v are within i * spread.
    """
    a = cx.points[s[0]]
    if len(s) == 1:
        return 0, lambda u, v: a, 0.0
    ab = _sub(cx.points[s[1]], a)
    if len(s) == 2:
        m = _subdivisions(_norm(ab), h)
        return m, lambda u, v: _along(a, u / m, ab), _norm(ab) / m
    c = cx.points[s[2]]
    ac = _sub(c, a)
    m = _subdivisions(max(_norm(ab), _norm(ac), _norm(_sub(c, cx.points[s[1]]))), h)
    spread = (_norm(ab) + _norm(ac)) / m
    return m, lambda u, v: _along(_along(a, u / m, ab), v / m, ac), spread


def carrier_samples(cx: EmbeddedComplex, h: float) -> list:
    """Sample points with spacing at most h; refining h by powers of two
    only adds points."""
    check_positive(h, "h")
    out = []
    for s in cx.simplices:
        m, point, _ = _grid(cx, s, h)
        for u in range(m + 1):
            out.extend(point(u, v) for v in range(m + 1 - u if len(s) == 3 else 1))
    return out


def _farthest_sample(cx: EmbeddedComplex, dist, h: float, slack: float) -> float:
    """max(dist(q, -inf) for q in carrier_samples(cx, h)), by branch and
    bound over the sampling grids.

    A block is a half-open square [u, u + k) x [v, v + k) of grid indices.
    dist is 1-Lipschitz, so no sample of a block lies above the distance
    of its centre plus radius.  Blocks open largest bound first; one whose
    bound is at most the best sample so far minus slack, a margin far above
    the rounding error of dist, is dropped.  The samples that attain the
    maximum are never dropped, so the result is the full scan's, bit for
    bit, while most samples away from the maximum are never measured.
    """
    best = -math.inf
    order = itertools.count()
    heap = []
    for s in cx.simplices:
        m, point, spread = _grid(cx, s, h)
        grid = (m, point, spread, len(s) == 3)
        heap.append((-math.inf, next(order), grid, 0, 0, 2 * m or 1))
    while heap:
        bound, _, grid, u, v, k = heapq.heappop(heap)
        if -bound <= best - slack:
            break
        m, point, spread, tri = grid
        if k <= 4:
            for i in range(u, min(u + k - 1, m) + 1):
                for j in range(v, min(v + k - 1, m - i) + 1) if tri else (0,):
                    best = max(best, dist(point(i, j), best))
            continue
        half = k // 2
        radius = half // 2 * spread
        for i, j in ((u, v), (u + half, v), (u, v + half), (u + half, v + half)):
            if i + j > m or (j > v and not tri):
                continue
            ci, cj = i + half // 2, (j + half // 2 if tri else 0)
            value = dist(point(ci, cj), best - slack - radius)
            if ci + cj <= m:
                best = max(best, value)
            if value + radius > best - slack:
                heapq.heappush(heap, (-(value + radius), next(order), grid, i, j, half))
    return best


def realization_hausdorff(a: EmbeddedComplex, b: EmbeddedComplex, h: float) -> Interval:
    """Two-sided Hausdorff interval [sampled sup, sampled sup + h].

    The inf side is exact, the sup side is the largest distance over the
    carrier samples, so the true distance lies in the returned interval.
    """
    check_positive(h, "h")
    dims = len(a.points[0]), len(b.points[0])
    if dims[0] != dims[1]:
        raise ValueError(f"complexes have points of dimension {dims[0]} and {dims[1]}")
    slack = 1e-9 * (1.0 + max(abs(x) for cx in (a, b) for p in cx.points for x in p))
    forward = _farthest_sample(a, _carrier_metric(b), h, slack)
    backward = _farthest_sample(b, _carrier_metric(a), h, slack)
    lower = max(forward, backward)
    return Interval(lower, lower + float(h))


def filtration_distance(a: EmbeddedComplex, b: EmbeddedComplex, h: float):
    """Per-level Hausdorff intervals and their sum for two filtrations."""
    if a.max_depth != b.max_depth:
        raise ValueError("filtrations have different depths")
    per_level = tuple(
        realization_hausdorff(level_complex(a, lvl), level_complex(b, lvl), h)
        for lvl in range(a.max_depth + 1)
    )
    summed = Interval(
        left_sum(iv.lower for iv in per_level), left_sum(iv.upper for iv in per_level)
    )
    return per_level, summed
