"""Computable bounds around the exact pair distance.

Lower bounds come from diameter gaps and from half the minimal distortion;
upper bounds from gluing a low-distortion correspondence or from matched
nets.  ``sandwich_report`` evaluates the full chain on one instance.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import DEFAULT_BUDGET
from .correspondences import (
    MinDistortionResult,
    PairCorrespondence,
    _exhaustive,
    classical_glue,
    min_distortion,
)
from .scalars import Scalar, as_index, check_positive, half, value_class
from .spaces import MetricPair, _level_pairs

if TYPE_CHECKING:
    from .oracle import GHResult


def diameter_lower_bound(left: MetricPair, right: MetricPair) -> Scalar:
    """Half the largest diameter gap over the levels, full spaces first."""
    gaps = (
        left.space.diameter(ll) - right.space.diameter(lr)
        for ll, lr in _level_pairs(left, right)
    )
    return max(half(g if g >= 0 else -g) for g in gaps)


@value_class
class UpperBoundReport:
    """A correspondence-based upper bound with its gluing certificate."""

    relation: PairCorrespondence
    sup_full: Scalar
    eta: Scalar
    hausdorff_sum: Scalar
    optimal_relation: bool


def correspondence_upper_bound(left: MetricPair, right: MetricPair) -> UpperBoundReport:
    """Glue the relation minimizing the full sup; its Hausdorff sum bounds
    the exact value from above.

    That sum is eta + eta, so the glued block is not measured.  The glued
    distance eta + min over R of dX(x, x') + dY(y', y) is at least eta
    everywhere, and the relation covers every point of each level by a
    related point of the same level, at eta + (dX(x, x) + dY(y, y)) = eta.
    So every row and column minimum over a level pair is eta, and both
    Hausdorff terms are eta; in floats eta + (0.0 + 0.0) is eta bit for
    bit.  This takes zero diagonals and both spaces exact or both float;
    otherwise the block's sum differs from eta + eta only by float
    rounding and the diagonal entries, within four tolerances.
    """
    res = min_distortion(left, right, objective="sup_full")
    eta = classical_glue(res.correspondence).eta
    return UpperBoundReport(
        res.correspondence, res.breakdown.sup_full, eta, eta + eta, res.optimal
    )


@value_class
class BoundsInterval:
    lower: Scalar
    upper: Scalar
    lower_source: str
    upper_source: str
    diameter_bound: Scalar
    half_distortion: Optional[Scalar]
    upper_report: UpperBoundReport

    def contains(self, value: Scalar) -> bool:
        return self.lower <= value <= self.upper


def gh_bounds(left: MetricPair, right: MetricPair) -> BoundsInterval:
    """Best available certified interval without running the exact search.

    Half the minimal distortion only counts as a lower bound when
    ``min_distortion`` is exact, on at most ``_EXHAUSTIVE_CELLS`` cells
    (the witness search), so it is computed only then.
    """
    diam = diameter_lower_bound(left, right)
    half_dis: Optional[Scalar] = None
    lower, lower_source = diam, "diameter"
    if _exhaustive(left, right):
        half_dis = half(min_distortion(left, right, objective="distortion").breakdown.value)
        if half_dis > lower:
            lower, lower_source = half_dis, "distortion"
    report = correspondence_upper_bound(left, right)
    return BoundsInterval(
        lower, report.hausdorff_sum, lower_source, "glued-correspondence",
        diam, half_dis, report,
    )


# ---------------------------------------------------------------------------
# matched nets


@value_class
class NetBoundReport:
    ok: bool
    bound: Optional[Scalar]
    epsilon: Scalar
    failure: Optional[tuple]


def _density_gap(space, points, candidates, eps):
    """First point of ``points`` not strictly within eps of ``candidates``."""
    for p in points:
        if all(space.dist[p][c] >= eps for c in candidates):
            return p
    return None


def matched_net_bound(
    left: MetricPair,
    right: MetricPair,
    eps: Scalar,
    left_points,
    right_points,
) -> NetBoundReport:
    """Upper bound 4*eps from matched nets with small pairwise mismatch.

    Both point lists must be strictly eps-dense (their subset members
    strictly eps-dense in the subsets); lacking density is a usage error
    and raises.  A membership disagreement or a pairwise mismatch of at
    least eps is a mathematical failure and is reported, not raised.
    """
    check_positive(eps, "eps")
    lp = [as_index(p, "left_points") for p in left_points]
    rp = [as_index(q, "right_points") for q in right_points]
    if len(lp) != len(rp):
        raise ValueError("matched point lists must have equal length")
    if not lp:
        raise ValueError("matched point lists must be nonempty")
    a_set, b_set = set(left.subset), set(right.subset)
    la = [p for p in lp if p in a_set]
    rb = [q for q in rp if q in b_set]
    for space, pts, sub_pts, subset, side in (
        (left.space, lp, la, left.subset, "left"),
        (right.space, rp, rb, right.subset, "right"),
    ):
        if not all(0 <= p < space.n for p in pts):
            raise ValueError(f"{side} net point index out of range")
        gap = _density_gap(space, range(space.n), pts, eps)
        if gap is not None:
            raise ValueError(f"{side} net is not strictly eps-dense: point {gap}")
        gap = _density_gap(space, subset, sub_pts, eps)
        if gap is not None:
            raise ValueError(
                f"{side} net is not strictly eps-dense inside the subset: point {gap}"
            )
    for i, (p, q) in enumerate(zip(lp, rp)):
        if (p in a_set) != (q in b_set):
            return NetBoundReport(False, None, eps, ("membership", i))
    dx, dy = left.space.dist, right.space.dist
    for i in range(len(lp)):
        for j in range(i + 1, len(lp)):
            diff = dx[lp[i]][lp[j]] - dy[rp[i]][rp[j]]
            if diff < 0:
                diff = -diff
            if diff >= eps:
                return NetBoundReport(False, None, eps, ("mismatch", i, j))
    return NetBoundReport(True, 4 * eps, eps, None)


# ---------------------------------------------------------------------------
# the two-sided distortion sandwich


@value_class
class SandwichReport:
    half_min_distortion: Scalar
    exact_value: Scalar
    min_sup_full: Scalar
    lower_ok: bool
    upper_ok: bool
    exact: GHResult
    distortion_result: MinDistortionResult
    sup_result: MinDistortionResult


def sandwich_report(
    left: MetricPair,
    right: MetricPair,
    budget: int = DEFAULT_BUDGET,
) -> SandwichReport:
    """Certify half-min-distortion <= exact value <= min full sup.

    Both minima must be exact for the flags to mean anything.
    ``min_distortion`` gets them from the witness search only up to
    ``_EXHAUSTIVE_CELLS`` cells (past that its local search gives an upper
    estimate), so oversized instances raise rather than degrade.  The two
    minima run with no budget; ``budget`` caps the witness-search nodes of
    the exact solve, as in ``exact_pair_gh``.
    """
    from .oracle import exact_pair_gh

    if not _exhaustive(left, right):
        raise ValueError("instance too large for an exhaustive distortion search")
    dis_res = min_distortion(left, right, objective="distortion")
    sup_res = min_distortion(left, right, objective="sup_full")
    exact = exact_pair_gh(left, right, budget=budget)
    lo = half(dis_res.breakdown.value)
    hi = sup_res.breakdown.sup_full
    return SandwichReport(
        lo,
        exact.value,
        hi,
        lo <= exact.value,
        exact.value <= hi,
        exact,
        dis_res,
        sup_res,
    )
