"""Application-side constructions on top of the pair machinery.

Hypernet spaces put one node per (point, anchor) combination and average
the coordinate distances; correspondences between pairs induce relations
between hypernets without increasing distortion.  The variant sandwich
relates the max-of-terms distance to the summed one, and densification
rounds a metric onto a rational grid with a certified distance bound.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .correspondences import PairCorrespondence, distortion
from .oracle import DEFAULT_BUDGET, exact_pair_gh, exact_pair_gh_max
from .scalars import Scalar, as_index, half, left_sum, quotient, value_class, zero_for
from .spaces import FiniteMetricSpace, MetricPair, MetricTuple


@value_class
class Hypernet:
    """Nodes are coordinate combinations; distances average the factors."""

    space: FiniteMetricSpace
    nodes: tuple


def hypernet_space(pair: MetricPair) -> Hypernet:
    """Nodes (x, a) over X x A with weight (d(x,x') + d(a,a')) / 2."""
    d = pair.space.dist
    nodes = tuple((x, a) for x in range(pair.space.n) for a in pair.subset)
    rows = [
        [half(d[x][x2] + d[a][a2]) for (x2, a2) in nodes]
        for (x, a) in nodes
    ]
    labels = tuple(
        f"({pair.space.labels[x]}|{pair.space.labels[a]})" for x, a in nodes
    )
    return Hypernet(FiniteMetricSpace.from_matrix(rows, labels), nodes)


def hypernet_tuple_space(tup: MetricTuple) -> Hypernet:
    """Nodes over X x A1 x ... x Ak with the k+1 coordinate distances
    divided by k.

    Note the normalization: the pair builder divides its two summands by
    two, while this one divides k+1 summands by k, so a one-level tuple
    weighs exactly twice the corresponding pair.
    """
    d = tup.space.dist
    k = tup.k
    nodes = [(x,) for x in range(tup.space.n)]
    for level in tup.chain:
        nodes = [node + (a,) for node in nodes for a in level]
    nodes = tuple(nodes)

    zero = zero_for(*d)  # so the diagonal of a float tuple weighs 0.0
    rows = [
        [quotient(left_sum(d[cu][cv] for cu, cv in zip(u, v)) + zero, k) for v in nodes]
        for u in nodes
    ]
    labels = tuple("|".join(tup.space.labels[c] for c in node) for node in nodes)
    return Hypernet(FiniteMetricSpace.from_matrix(rows, labels), nodes)


@value_class
class HypernetReport:
    induced_cells: tuple
    net_distortion: Scalar
    pair_distortion: Scalar
    holds: bool


def hypernet_distortion(corr: PairCorrespondence) -> HypernetReport:
    """Induced hypernet relation and the bound dis_net <= dis.

    The induced relation matches (x, a) with (y, b) whenever the
    correspondence relates x to y and, inside the subsets, a to b; its
    classical distortion never exceeds the pair distortion.
    """
    left, right = corr.left, corr.right
    dl, dr = left.space.dist, right.space.dist
    restricted = corr.restricted()
    cells = tuple(
        ((x, a), (y, b)) for x, y in corr.pairs for a, b in restricted
    )
    worst = zero_for(*dl, *dr)
    for idx, ((x, a), (y, b)) in enumerate(cells):
        for (x2, a2), (y2, b2) in cells[idx + 1 :]:
            wl = half(dl[x][x2] + dl[a][a2])
            wr = half(dr[y][y2] + dr[b][b2])
            diff = wl - wr
            if diff < 0:
                diff = -diff
            if diff > worst:
                worst = diff
    pair_dis = distortion(corr).value
    return HypernetReport(cells, worst, pair_dis, worst <= pair_dis)


# ---------------------------------------------------------------------------
# the two variants side by side


@value_class
class VariantSandwich:
    max_value: Scalar
    sum_value: Scalar
    lower_ok: bool
    upper_ok: bool
    ratio: Optional[Scalar]


def variant_sandwich(
    left: MetricPair,
    right: MetricPair,
    budget: int = DEFAULT_BUDGET,
) -> VariantSandwich:
    """Certify max-variant <= sum-variant <= twice the max-variant.

    ``budget`` caps the witness-search nodes of each of the two exact solves.
    """
    mx = exact_pair_gh_max(left, right, budget=budget).value
    sm = exact_pair_gh(left, right, budget=budget).value
    ratio = None if mx == 0 else quotient(sm, mx)
    return VariantSandwich(mx, sm, mx <= sm, sm <= 2 * mx, ratio)


# ---------------------------------------------------------------------------
# rational densification


@value_class
class DensifyResult:
    space: FiniteMetricSpace
    q: int
    bound: Fraction


def _round_up(value: Scalar, q: int) -> Fraction:
    scaled = Fraction(value) * q
    return Fraction(math.ceil(scaled) + 1, q)


def rational_densify(space: FiniteMetricSpace, q: int) -> DensifyResult:
    """Shift distances up by 1/q and round up to the 1/q grid.

    The shift keeps the triangle inequality through the rounding, every
    output distance is a positive multiple of 1/q, and the pair distance
    to the original is certified below 4/q.
    """
    q = as_index(q, "q")
    if q < 1:
        raise ValueError("q must be a positive integer")
    n = space.n
    rows = [
        [
            Fraction(0) if i == j else _round_up(space.dist[i][j], q)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return DensifyResult(
        FiniteMetricSpace.from_matrix(rows, space.labels), q, Fraction(4, q)
    )


def rational_densify_pair(pair: MetricPair, q: int):
    """Densify the carrier space and keep the subset."""
    res = rational_densify(pair.space, q)
    return MetricPair(res.space, pair.subset), res.bound
