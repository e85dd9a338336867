from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metricpairs.correspondences import validate_correspondence, PairCorrespondence
from metricpairs.generators import (
    circle_space,
    graph_space,
    grid_graph_space,
    permute_pair,
    random_correspondence,
    random_pair,
    random_permuted_pair,
    random_space,
    random_subset,
    random_tuple,
)
from metricpairs.spaces import FiniteMetricSpace, validate_metric


def test_circle_space_integer_arcs():
    circle = circle_space(6)
    assert circle.n == 6
    assert circle.dist[0][1] == 1
    assert circle.dist[0][3] == 3
    assert circle.dist[1][5] == 2
    assert circle.diameter() == 3


def test_circle_space_custom_circumference():
    circle = circle_space(4, circumference=1)
    assert circle.dist[0][1] == Fraction(1, 4)
    assert circle.dist[0][2] == Fraction(1, 2)
    assert circle.diameter() == Fraction(1, 2)


def test_grid_graph_space_taxicab():
    grid = grid_graph_space(2, 3)
    assert grid.n == 6
    # corner (0,0) to corner (1,2)
    assert grid.dist[0][5] == 3
    assert grid.dist[1][4] == 1


def test_graph_space_shortest_paths():
    space = graph_space(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)])
    assert space.dist[0][3] == 3


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 1)], "bad edge (1, 1)"),
        ([(0, 1), (1, 3)], "bad edge (1, 3)"),
        ([(0, 1), (-1, 2)], "bad edge (-1, 2)"),
        ([(0, 1, 0), (1, 2)], "edge weights must be positive"),
        ([(0, 1), (1, 2, Fraction(-1, 2))], "edge weights must be positive"),
        ([(0, 1)], "graph is disconnected: 0 cannot reach 2"),
    ],
)
def test_graph_space_rejections(edges, message):
    with pytest.raises(ValueError) as info:
        graph_space(3, edges)
    assert str(info.value) == message


def test_random_space_is_metric():
    rng = random.Random(90)
    for _ in range(50):
        space = random_space(rng, rng.randint(1, 6))
        assert isinstance(validate_metric(space.dist), FiniteMetricSpace)


def test_random_subset_bounds():
    rng = random.Random(91)
    for _ in range(50):
        n = rng.randint(1, 6)
        subset = random_subset(rng, n)
        assert subset
        assert all(0 <= i < n for i in subset)
        assert list(subset) == sorted(set(subset))


def test_random_pair_and_tuple_shapes():
    rng = random.Random(92)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 5))
        assert 2 <= pair.space.n <= 5
        tup = random_tuple(rng, 2)
        assert tup.k == 2
        assert set(tup.chain[1]) <= set(tup.chain[0])


def test_random_correspondence_is_valid():
    rng = random.Random(93)
    for _ in range(40):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        checked = validate_correspondence(corr.pairs, left, right)
        assert isinstance(checked, PairCorrespondence)


def test_permute_pair_preserves_distances():
    rng = random.Random(94)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 5))
        n = pair.space.n
        perm = list(range(n))
        rng.shuffle(perm)
        moved = permute_pair(pair, perm)
        for i in range(n):
            for j in range(n):
                assert moved.space.dist[i][j] == pair.space.dist[perm[i]][perm[j]]
        assert set(moved.subset) == {perm.index(i) for i in pair.subset}


def test_random_permuted_pair_same_multiset():
    rng = random.Random(95)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 5))
        moved = random_permuted_pair(rng, pair)
        flat = sorted(v for row in pair.space.dist for v in row)
        flat_moved = sorted(v for row in moved.space.dist for v in row)
        assert flat == flat_moved
        assert len(moved.subset) == len(pair.subset)
