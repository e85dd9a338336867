from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metricpairs.applications import (
    hypernet_distortion,
    hypernet_space,
    hypernet_tuple_space,
    rational_densify,
    rational_densify_pair,
    variant_sandwich,
)
from metricpairs.correspondences import PairCorrespondence
from metricpairs.generators import random_correspondence, random_pair, random_space
from metricpairs.oracle import exact_pair_gh
from metricpairs.spaces import FiniteMetricSpace, MetricPair, MetricTuple, validate_metric


def _pair(matrix, subset):
    return MetricPair(FiniteMetricSpace.from_matrix(matrix), subset)


def test_hypernet_space_shape_and_weights():
    pair = _pair([[0, 2], [2, 0]], (0,))
    net = hypernet_space(pair)
    assert net.nodes == ((0, 0), (1, 0))
    assert net.space.dist[0][1] == 1  # (2 + 0) / 2
    assert net.space.labels == ("(0|0)", "(1|0)")


def test_hypernet_space_is_metric():
    rng = random.Random(110)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 4))
        net = hypernet_space(pair)
        assert isinstance(validate_metric(net.space.dist), FiniteMetricSpace)
        assert net.space.n == pair.space.n * len(pair.subset)


def test_hypernet_tuple_space_single_level_doubles_pair():
    """One-level tuples divide by k = 1 where pairs divide by 2, so node
    distances come out exactly twice as large."""
    rng = random.Random(111)
    for _ in range(15):
        pair = random_pair(rng, n_range=(2, 3))
        net = hypernet_space(pair)
        tnet = hypernet_tuple_space(pair.as_tuple())
        assert tnet.nodes == net.nodes
        for i in range(net.space.n):
            for j in range(net.space.n):
                assert tnet.space.dist[i][j] == 2 * net.space.dist[i][j]


def test_hypernet_tuple_space_two_levels():
    space = FiniteMetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    tup = MetricTuple(space, ((0, 1), (0,)))
    net = hypernet_tuple_space(tup)
    assert net.space.n == 3 * 2 * 1
    # node (x, a1, a2) against (x', a1', a2'): sum of three legs over k = 2
    assert net.nodes[0] == (0, 0, 0)
    d01 = net.space.dist[0][net.nodes.index((0, 1, 0))]
    assert d01 == Fraction(1, 2)


def test_hypernet_tuple_space_keeps_float_weights_float():
    space = FiniteMetricSpace.from_matrix([[0.0, 1.5], [1.5, 0.0]])
    net = hypernet_tuple_space(MetricTuple(space, ((0, 1), (0,))))
    d = net.space.dist[net.nodes.index((0, 0, 0))][net.nodes.index((1, 1, 0))]
    assert isinstance(d, float)
    assert d == (1.5 + 1.5 + 0.0) / 2


def test_hypernet_distortion_bound_holds():
    rng = random.Random(112)
    for _ in range(40):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        report = hypernet_distortion(corr)
        assert report.holds
        assert report.net_distortion <= report.pair_distortion


def test_hypernet_distortion_identity():
    pair = _pair([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 2))
    corr = PairCorrespondence(pair, pair, ((0, 0), (1, 1), (2, 2)))
    report = hypernet_distortion(corr)
    assert report.net_distortion == 0
    assert report.pair_distortion == 0
    assert len(report.induced_cells) == len(corr.pairs) * len(corr.restricted())


def test_variant_sandwich_holds():
    rng = random.Random(113)
    for _ in range(30):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        report = variant_sandwich(left, right)
        assert report.lower_ok
        assert report.upper_ok
        if report.ratio is not None:
            assert 1 <= report.ratio <= 2


def test_variant_sandwich_ratio_two_instance():
    """Frozen probe: diameter-2 doubleton with singleton subset against a
    point pair realizes the extreme ratio sum/max = 2."""
    left = _pair([[0, 2], [2, 0]], (0,))
    right = _pair([[0]], (0,))
    report = variant_sandwich(left, right)
    assert report.max_value == 1
    assert report.sum_value == 2
    assert report.ratio == 2


def test_variant_sandwich_zero_ratio_is_none():
    pair = _pair([[0, 1], [1, 0]], (0,))
    report = variant_sandwich(pair, pair)
    assert report.max_value == 0
    assert report.ratio is None


def test_rational_densify_rounds_to_grid():
    space = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    result = rational_densify(space, 5)
    assert result.space.dist[0][1] == Fraction(11, 5)
    assert result.bound == Fraction(4, 5)
    assert result.space.dist[0][0] == 0
    # q is an int of at least 1: nothing is truncated or read as a bool
    for q in (0, True, 2.5, 2.0, Fraction(2)):
        with pytest.raises(ValueError):
            rational_densify(space, q)


def test_rational_densify_output_is_metric_on_grid():
    rng = random.Random(114)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 5))
        q = rng.choice([1, 2, 5, 7, 10])
        result = rational_densify(space, q)
        assert isinstance(validate_metric(result.space.dist), FiniteMetricSpace)
        for i in range(space.n):
            for j in range(space.n):
                v = result.space.dist[i][j]
                assert v.denominator in (1, q) or q % v.denominator == 0
                if i != j:
                    assert v > space.dist[i][j]
                    assert v - space.dist[i][j] <= Fraction(2, q)


def test_rational_densify_pair_certified_bound():
    """The certified 4/q bound really does dominate the exact distance to
    the densified pair on oracle-sized instances."""
    rng = random.Random(115)
    for _ in range(25):
        pair = random_pair(rng, n_range=(2, 3))
        q = rng.choice([3, 5, 9])
        dense, bound = rational_densify_pair(pair, q)
        assert bound == Fraction(4, q)
        assert dense.subset == pair.subset
        exact = exact_pair_gh(pair, dense).value
        assert exact <= bound
