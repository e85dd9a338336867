"""Straight-line interpolation along a correspondence.

The carrier of the interpolant at time t is the relation itself, with the
convex combination (1-t) dX + t dY as its metric and the restricted cells
as its subset.  The diagonal identification between two interpolants
scales distortion linearly in |t - s|, which is what the audit checks
against the exact oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .correspondences import DistortionBreakdown, PairCorrespondence
from .oracle import DEFAULT_BUDGET, exact_pair_gh
from .scalars import Scalar, close, half
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
    s_full = _sup_abs_diff(every, ma, mb)
    s_sub = _sup_abs_diff(sub, ma, mb)
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


@dataclass(frozen=True)
class AuditRow:
    s: Scalar
    t: Scalar
    value: Scalar
    expected: Scalar
    matches: bool


@dataclass(frozen=True)
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
    exact pair distance between the interpolants is computed and set
    against (t - s) times the endpoint distance.  Mismatches are
    reported, not raised: the path is geodesic for optimal
    correspondences, not for arbitrary ones.  ``budget`` caps
    the witness-search nodes of each of these exact solves.
    """
    if grid is None:
        grid = DEFAULT_GRID
    times = list(grid)
    for v in times:
        if not 0 <= v <= 1:
            raise ValueError("grid times must lie in [0, 1]")
    times = sorted(set(times))
    # only values are kept: the cache's one sure hit, the (0, 1) row
    # repeating the endpoint solve, is served from ``endpoint`` instead
    endpoint = exact_pair_gh(corr.left, corr.right, budget=budget, cache=False).value
    samples = {t: interpolate(corr, t) for t in times}
    rows = []
    for i, s in enumerate(times):
        for t in times[i + 1 :]:
            if s == 0 and t == 1:
                value = endpoint
            else:
                value = exact_pair_gh(
                    samples[s], samples[t], budget=budget, cache=False
                ).value
            expected = (t - s) * endpoint
            rows.append(AuditRow(s, t, value, expected, close(value, expected)))
    return GeodesicityAudit(endpoint, tuple(rows))
