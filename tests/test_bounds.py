from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metricpairs import correspondences
from metricpairs.bounds import (
    correspondence_upper_bound,
    diameter_lower_bound,
    gh_bounds,
    matched_net_bound,
    sandwich_report,
)
from metricpairs.generators import random_pair
from metricpairs.oracle import exact_pair_gh
from metricpairs.spaces import FiniteMetricSpace, MetricPair


def _pair(matrix, subset):
    return MetricPair(FiniteMetricSpace.from_matrix(matrix), subset)


def _point_pair():
    return _pair([[0]], (0,))


def test_diameter_lower_bound_values():
    left = _pair([[0, 2], [2, 0]], (0,))
    assert diameter_lower_bound(left, _point_pair()) == 1

    wide_subset = _pair([[0, 3], [3, 0]], (0, 1))
    narrow_subset = _pair([[0, 3], [3, 0]], (0,))
    assert diameter_lower_bound(wide_subset, narrow_subset) == Fraction(3, 2)


def test_diameter_lower_bound_is_valid():
    rng = random.Random(70)
    for _ in range(40):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        exact = exact_pair_gh(left, right).value
        assert diameter_lower_bound(left, right) <= exact


def test_correspondence_upper_bound_is_valid():
    rng = random.Random(71)
    for _ in range(40):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        report = correspondence_upper_bound(left, right)
        exact = exact_pair_gh(left, right).value
        assert exact <= report.hausdorff_sum
        assert report.optimal_relation
        assert 2 * report.eta >= report.sup_full


def test_gh_bounds_frozen_instances():
    """Frozen probe: diameter-1 doubleton with singleton subset against the
    bare doubleton gives [1/2, 1]; the diameter-2 variant against a point
    pair gives [1, 2] with the exact value 2 inside."""
    left = _pair([[0, 1], [1, 0]], (0,))
    right = _pair([[0, 1], [1, 0]], (0, 1))
    interval = gh_bounds(left, right)
    assert interval.lower == Fraction(1, 2)
    assert interval.lower_source == "diameter"
    assert interval.upper == 1
    assert interval.contains(exact_pair_gh(left, right).value)

    big = _pair([[0, 2], [2, 0]], (0,))
    interval = gh_bounds(big, _point_pair())
    assert interval.lower == 1
    assert interval.diameter_bound == 1
    assert interval.half_distortion == Fraction(1, 2)
    assert interval.upper == 2
    assert interval.contains(2)


def test_gh_bounds_contains_exact_value():
    rng = random.Random(72)
    for _ in range(60):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        interval = gh_bounds(left, right)
        exact = exact_pair_gh(left, right).value
        assert interval.contains(exact)
        assert interval.lower >= interval.diameter_bound
        if interval.half_distortion is not None:
            assert interval.lower >= interval.half_distortion or (
                interval.lower_source == "diameter"
            )


def test_gh_bounds_identity_is_tight_at_zero():
    rng = random.Random(73)
    for _ in range(10):
        pair = random_pair(rng, n_range=(2, 3))
        interval = gh_bounds(pair, pair)
        assert interval.lower == 0


def test_gh_bounds_nonexhaustive_drops_distortion_lower(monkeypatch):
    monkeypatch.setattr(correspondences, "_EXHAUSTIVE_CELLS", 4)
    rng = random.Random(74)
    left = random_pair(rng, n_range=(3, 3))
    right = random_pair(rng, n_range=(3, 3))
    interval = gh_bounds(left, right)
    assert interval.half_distortion is None
    assert interval.lower_source == "diameter"


def test_matched_net_bound_success():
    """Identity matching of a pair with itself: zero mismatch, bound 4 eps."""
    pair = _pair([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 1))
    report = matched_net_bound(pair, pair, 2, [0, 1, 2], [0, 1, 2])
    assert report.ok
    assert report.bound == 8
    assert report.failure is None


def test_matched_net_bound_density_raises():
    pair = _pair([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 1))
    with pytest.raises(ValueError):
        matched_net_bound(pair, pair, 1, [0], [0])
    with pytest.raises(ValueError):
        matched_net_bound(pair, pair, 2, [], [])
    with pytest.raises(ValueError):
        matched_net_bound(pair, pair, 0, [0, 1, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        matched_net_bound(pair, pair, 2, [0, 1], [0, 1, 2])
    # Full-space density holds but the subset {0, 1} sees only point 2.
    with pytest.raises(ValueError):
        matched_net_bound(pair, pair, 2, [2], [2])


@pytest.mark.parametrize("left_points, right_points", [([5], [0]), ([0], [5]), ([-1], [0]), ([0], [-1])])
def test_matched_net_bound_rejects_indices_out_of_range(left_points, right_points):
    """A point out of range is a usage error, whichever list holds it;
    -1 is not read as the last point."""
    pair = _pair([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 1))
    with pytest.raises(ValueError, match="point index out of range"):
        matched_net_bound(pair, pair, 3, left_points, right_points)


def test_matched_net_bound_membership_failure():
    left = _pair([[0, 1], [1, 0]], (0,))
    right = _pair([[0, 1], [1, 0]], (0, 1))
    report = matched_net_bound(left, right, 2, [0, 1], [1, 0])
    assert not report.ok
    assert report.failure == ("membership", 1)
    assert report.bound is None


def test_matched_net_bound_mismatch_failure():
    left = _pair([[0, 3], [3, 0]], (0, 1))
    right = _pair([[0, 1], [1, 0]], (0, 1))
    report = matched_net_bound(left, right, 2, [0, 1], [0, 1])
    assert not report.ok
    assert report.failure == ("mismatch", 0, 1)


def test_matched_net_bound_is_valid_upper_bound():
    """Whenever the matched-net certificate succeeds, 4 eps really does
    bound the exact pair distance."""
    rng = random.Random(75)
    successes = 0
    for _ in range(60):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        eps = rng.choice([2, 3, 4])
        lp = list(range(left.space.n))
        rp = list(range(right.space.n))
        rng.shuffle(rp)
        rp = (rp * left.space.n)[: left.space.n]
        try:
            report = matched_net_bound(left, right, eps, lp, rp)
        except ValueError:
            continue
        if not report.ok:
            continue
        exact = exact_pair_gh(left, right).value
        assert exact <= report.bound
        successes += 1
    assert successes >= 5


def test_sandwich_report_certifies_both_sides():
    rng = random.Random(76)
    for _ in range(40):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        report = sandwich_report(left, right)
        assert report.lower_ok
        assert report.upper_ok
        assert report.half_min_distortion <= report.exact_value <= report.min_sup_full


def test_sandwich_report_frozen_probe():
    big = _pair([[0, 2], [2, 0]], (0,))
    report = sandwich_report(big, _point_pair())
    assert report.half_min_distortion == Fraction(1, 2)
    assert report.exact_value == 2
    assert report.min_sup_full == 2


def test_sandwich_report_rejects_oversized_instances(monkeypatch):
    """The size is decided before either distortion search runs."""

    def searched(*args, **kwargs):
        raise AssertionError("a distortion search ran")

    monkeypatch.setattr(correspondences, "_EXHAUSTIVE_CELLS", 4)
    monkeypatch.setattr("metricpairs.bounds.min_distortion", searched)
    rng = random.Random(77)
    left = random_pair(rng, n_range=(3, 3))
    right = random_pair(rng, n_range=(3, 3))
    with pytest.raises(ValueError, match="too large for an exhaustive distortion search"):
        sandwich_report(left, right)
