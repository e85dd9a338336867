"""Straight-line interpolation along a correspondence.

The carrier of the interpolant at time t is the relation itself, with the
convex combination (1-t) dX + t dY as its metric and the restricted cells
as its subset.  The diagonal identification between two interpolants
scales distortion linearly in |t - s|, which is what the audit checks
against the exact oracle.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .correspondences import DistortionBreakdown, PairCorrespondence
from .oracle import DEFAULT_BUDGET, exact_pair_gh
from .scalars import Scalar, all_exact, close, half, is_exact, value_class, zero_for
from .spaces import FiniteMetricSpace, MetricPair, _sup_abs_diff


def _cell_matrix(corr: PairCorrespondence, t: Scalar):
    """Convex-combination distances between relation cells at time t."""
    dx = corr.left.space.dist
    dy = corr.right.space.dist
    s = 1 - t
    cells = corr.pairs
    return [
        [
            s * dx[x][x2] + t * dy[y][y2]
            for x2, y2 in cells
        ]
        for x, y in cells
    ]


def interpolate(corr: PairCorrespondence, t: Scalar) -> MetricPair:
    """Pair at time t along the straight-line path; endpoints come back
    as the original pairs."""
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if t == 0:
        return corr.left
    if t == 1:
        return corr.right
    labels = tuple(
        f"({corr.left.space.labels[x]},{corr.right.space.labels[y]})"
        for x, y in corr.pairs
    )
    space = FiniteMetricSpace.from_matrix(_cell_matrix(corr, t), labels)
    restricted = set(corr.restricted())
    subset = tuple(i for i, cell in enumerate(corr.pairs) if cell in restricted)
    return MetricPair(space, subset)


def diagonal_distortion(corr: PairCorrespondence, s: Scalar, t: Scalar) -> DistortionBreakdown:
    """Distortion of the cell-by-cell identification of two interpolants.

    Equals |t - s| times the distortion of the correspondence itself; the
    computation here goes through the actual cell matrices.
    """
    for v in (s, t):
        if not 0 <= v <= 1:
            raise ValueError("times must lie in [0, 1]")
    ma, mb = _cell_matrix(corr, s), _cell_matrix(corr, t)
    restricted = set(corr.restricted())
    every = tuple((i, i) for i in range(len(corr.pairs)))
    sub = tuple((i, i) for i, cell in enumerate(corr.pairs) if cell in restricted)
    zero = zero_for(*ma, *mb)
    s_full = _sup_abs_diff(every, ma, mb, zero)
    s_sub = _sup_abs_diff(sub, ma, mb, zero)
    return DistortionBreakdown(s_full, (s_sub,), half(s_full + s_sub))


def endpoint_distortion(corr: PairCorrespondence, t: Scalar, side: str = "left") -> DistortionBreakdown:
    """Distortion of the natural identification with one endpoint.

    Matching cells to their coordinate in the chosen endpoint scales the
    correspondence distortion by t (left side) or 1 - t (right side).
    """
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return diagonal_distortion(corr, 0 if side == "left" else 1, t)


DEFAULT_GRID = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


@value_class
class AuditRow:
    s: Scalar
    t: Scalar
    value: Scalar
    expected: Scalar
    matches: bool


@value_class
class GeodesicityAudit:
    endpoint_value: Scalar
    rows: tuple

    @property
    def all_match(self) -> bool:
        return all(row.matches for row in self.rows)


def geodesicity_audit(
    corr: PairCorrespondence,
    grid: Optional[Sequence[Scalar]] = None,
    budget: int = DEFAULT_BUDGET,
) -> GeodesicityAudit:
    """Compare exact distances between interpolants with linear scaling.

    For every pair s < t of distinct grid times, given in any order, the
    exact pair distance between the interpolants is set against (t - s)
    times the endpoint distance.  Mismatches are reported, not raised:
    the path is geodesic for optimal correspondences, not for arbitrary
    ones.

    Each row is either solved or proven.  With S the relation's full sup,
    the diagonal identification bounds the row (s, t) by (t - s) * S.
    Rows are taken widest first; once a solved row (a, b), or the
    endpoint row (0, 1), meets its bound, the triangle inequality
    d(a, b) <= d(a, s) + d(s, t) + d(t, b) proves every row with
    a <= s < t <= b equal to its bound, and that row runs no solve and
    builds no interpolant.  Rows are proven in exact mode only: with
    float distances or times every row is solved.  ``budget`` caps the
    witness-search nodes of each solve, and so limits only solved rows.
    """
    if grid is None:
        grid = DEFAULT_GRID
    times = list(grid)
    for v in times:
        if not 0 <= v <= 1:
            raise ValueError("grid times must lie in [0, 1]")
    times = sorted(set(times))
    # the (0, 1) row repeats the endpoint solve and is served from ``endpoint``
    endpoint = exact_pair_gh(corr.left, corr.right, budget=budget).value
    dx, dy = corr.left.space.dist, corr.right.space.dist
    zero = zero_for(*dx, *dy)
    exact = is_exact(zero) and all_exact(times)
    sup = _sup_abs_diff(corr.pairs, dx, dy, zero)
    # rows (a, b) whose value meets its bound (b - a) * sup
    tight = [(0, 1)] if exact and endpoint == sup else []
    pairs = [(s, t) for i, s in enumerate(times) for t in times[i + 1 :]]
    samples = {}
    values = {}
    for s, t in sorted(pairs, key=lambda row: row[0] - row[1]):
        bound = (t - s) * sup
        if any(a <= s and t <= b for a, b in tight):
            value = bound
        else:
            if s == 0 and t == 1:
                value = endpoint
            else:
                for u in (s, t):
                    if u not in samples:
                        samples[u] = interpolate(corr, u)
                value = exact_pair_gh(samples[s], samples[t], budget=budget).value
            if exact and value == bound:
                tight.append((s, t))
        values[s, t] = value
    rows = []
    for s, t in pairs:
        expected = (t - s) * endpoint
        rows.append(AuditRow(s, t, values[s, t], expected, close(values[s, t], expected)))
    return GeodesicityAudit(endpoint, tuple(rows))
