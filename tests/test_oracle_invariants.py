"""Invariants of the exact pair distance on random pairs of up to 5 points
(up to 4 for the scaling, variant, triangle, tuple and distortion
properties).

Each property draws a seed and builds its pairs with the library's own
generators, so a failing example is reproduced by the seed alone.
"""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.bounds import gh_bounds
from metricpairs.correspondences import brute_force_min_distortion, min_distortion
from metricpairs.generators import random_pair, random_permuted_pair
from metricpairs.oracle import exact_pair_gh, exact_pair_gh_max, exact_tuple_gh
from metricpairs.spaces import FiniteMetricSpace, MetricPair

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=200)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)
# far above what any pair of at most 5 points needs, so nothing is refused
_BUDGET = 10**7


def _pairs(seed: int, most: int = 5):
    rng = random.Random(seed)
    left = random_pair(rng, (1, most), (1, 2, 3, 4))
    right = random_pair(rng, (1, most), (1, 2, 3, 4))
    return rng, left, right


def _exact(left, right):
    return exact_pair_gh(left, right, budget=_BUDGET).value


def _exact_max(left, right):
    return exact_pair_gh_max(left, right, budget=_BUDGET).value


def _scaled(pair, factor):
    dist = [[factor * v for v in row] for row in pair.space.dist]
    return MetricPair(FiniteMetricSpace.from_matrix(dist, pair.space.labels), pair.subset)


@_BOUNDED
@given(_SEED)
def test_bounds_contain_the_exact_value(seed):
    _, left, right = _pairs(seed)
    interval = gh_bounds(left, right)
    assert interval.lower <= _exact(left, right) <= interval.upper


@_BOUNDED
@given(_SEED)
def test_exact_value_is_symmetric(seed):
    _, left, right = _pairs(seed)
    assert _exact(left, right) == _exact(right, left)


@_BOUNDED
@given(_SEED)
def test_exact_value_ignores_relabelling(seed):
    rng, left, right = _pairs(seed)
    value = _exact(left, right)
    assert _exact(random_permuted_pair(rng, left), right) == value
    assert _exact(left, random_permuted_pair(rng, right)) == value


@_BOUNDED
@given(_SEED)
def test_scaling_the_metrics_scales_the_value(seed):
    _, left, right = _pairs(seed, 4)
    for factor in (2, Fraction(3, 2)):
        big_left, big_right = _scaled(left, factor), _scaled(right, factor)
        assert _exact(big_left, big_right) == factor * _exact(left, right)
        assert _exact_max(big_left, big_right) == factor * _exact_max(left, right)


@_BOUNDED
@given(_SEED)
def test_triangle_inequality_across_three_pairs(seed):
    rng, a, b = _pairs(seed, 4)
    c = random_pair(rng, (1, 4), (1, 2, 3, 4))
    for exact in (_exact, _exact_max):
        assert exact(a, c) <= exact(a, b) + exact(b, c)


@_BOUNDED
@given(_SEED)
def test_sum_variant_lies_between_max_and_twice_max(seed):
    _, left, right = _pairs(seed, 4)
    value, value_max = _exact(left, right), _exact_max(left, right)
    assert value_max <= value <= 2 * value_max


@_BOUNDED
@given(_SEED)
def test_one_level_tuple_equals_its_pair(seed):
    _, left, right = _pairs(seed, 4)
    tl, tr = left.as_tuple(), right.as_tuple()
    assert exact_tuple_gh(tl, tr, budget=_BUDGET).value == _exact(left, right)
    assert (
        exact_tuple_gh(tl, tr, budget=_BUDGET, variant="max").value
        == _exact_max(left, right)
    )


@_BOUNDED
@given(_SEED)
def test_least_full_sup_is_twice_the_max_variant(seed):
    """The least full distortion sup over pair correspondences is twice
    the max-variant distance: the full-sup map-union search of
    ``min_distortion`` (at most 16 cells, level-0 slots only outside the
    subsets) checked against the max-variant witness search (level-0
    slots for every point)."""
    _, left, right = _pairs(seed, 4)
    found = min_distortion(left, right, objective="sup_full")
    assert found.optimal
    assert found.breakdown.sup_full == 2 * _exact_max(left, right)


@settings(settings.get_profile("bounded"), max_examples=3)
@given(_SEED)
def test_least_full_sup_on_sixteen_cells_matches_brute_force(seed):
    """On 4-point pairs (16 cells, the largest grid the map-union search
    serves) the least full sup equals the one brute force finds over all
    2^16 cell sets, a check independent of the witness search.  About two
    seconds an example."""
    rng = random.Random(seed)
    left, right = (random_pair(rng, (4, 4), (1, 2, 3, 4)) for _ in range(2))
    found = min_distortion(left, right, objective="sup_full")
    slow = brute_force_min_distortion(left, right, objective="sup_full")
    assert found.breakdown.sup_full == slow.breakdown.sup_full
