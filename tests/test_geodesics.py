from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from metricpairs import geodesics
from metricpairs.correspondences import (
    PairCorrespondence,
    UncoveredRelationError,
    distortion,
    min_distortion,
)
from metricpairs.generators import random_correspondence, random_pair
from metricpairs.geodesics import (
    DEFAULT_GRID,
    diagonal_distortion,
    endpoint_distortion,
    geodesicity_audit,
    interpolate,
)
from metricpairs.oracle import exact_pair_gh
from metricpairs.scalars import close
from metricpairs.spaces import FiniteMetricSpace, MetricPair, _sup_abs_diff


def _collapse_correspondence():
    two = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    one = FiniteMetricSpace.from_matrix([[0]])
    left = MetricPair(two, (0, 1))
    right = MetricPair(one, (0,))
    return PairCorrespondence(left, right, ((0, 0), (1, 0)))


def test_interpolate_endpoints_return_originals():
    corr = _collapse_correspondence()
    assert interpolate(corr, 0) is corr.left
    assert interpolate(corr, 1) is corr.right


def test_interpolate_midpoint_metric():
    corr = _collapse_correspondence()
    mid = interpolate(corr, Fraction(1, 2))
    assert mid.space.labels == ("(0,0)", "(1,0)")
    assert mid.space.dist[0][1] == 1
    assert mid.subset == (0, 1)


def test_interpolate_rejects_out_of_range():
    corr = _collapse_correspondence()
    with pytest.raises(ValueError):
        interpolate(corr, Fraction(3, 2))
    with pytest.raises(ValueError):
        interpolate(corr, Fraction(-1, 2))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        interpolate,
        lambda corr, t: diagonal_distortion(corr, t, Fraction(1, 2)),
        lambda corr, t: diagonal_distortion(corr, Fraction(1, 2), t),
        endpoint_distortion,
        lambda corr, t: geodesicity_audit(corr, grid=(0, t)),
    ],
    ids=["interpolate", "diagonal-s", "diagonal-t", "endpoint", "audit-grid"],
)
def test_times_outside_the_unit_interval_include_nan(call, t):
    # NaN fails every comparison, so only a check that it lies in [0, 1]
    # stops it; a check that it lies outside lets it through
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        call(_collapse_correspondence(), t)


def test_interpolate_never_receives_an_uncovered_relation():
    two = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    pair = MetricPair(two, (0, 1))
    with pytest.raises(UncoveredRelationError):
        interpolate(PairCorrespondence(pair, pair, ((0, 0),)), Fraction(1, 2))


def test_interpolant_subset_follows_restriction():
    two = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    left = MetricPair(two, (0,))
    right = MetricPair(two, (1,))
    corr = PairCorrespondence(left, right, ((0, 1), (1, 0)))
    mid = interpolate(corr, Fraction(1, 3))
    assert mid.space.n == 2
    assert mid.subset == (0,)


def test_diagonal_distortion_scales_linearly():
    """dis of the diagonal identification between times s and t equals
    |t - s| times the distortion of the correspondence."""
    rng = random.Random(80)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        base = distortion(corr).value
        for s, t in ((Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(3, 4)),
                     (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(5, 6))):
            br = diagonal_distortion(corr, s, t)
            assert br.value == abs(t - s) * base


def test_endpoint_distortion_scales_from_each_side():
    rng = random.Random(81)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        base = distortion(corr).value
        t = Fraction(rng.randint(0, 4), 4)
        assert endpoint_distortion(corr, t, side="left").value == t * base
        assert endpoint_distortion(corr, t, side="right").value == (1 - t) * base
    with pytest.raises(ValueError):
        endpoint_distortion(corr, Fraction(1, 2), side="middle")


def test_audit_on_optimal_correspondence_matches():
    """An optimal correspondence for the sum objective makes the path
    geodesic: every grid pair scales exactly."""
    big = MetricPair(FiniteMetricSpace.from_matrix([[0, 2], [2, 0]]), (0, 1))
    one = MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    corr = min_distortion(big, one).correspondence
    audit = geodesicity_audit(corr)
    assert audit.endpoint_value == exact_pair_gh(big, one).value
    assert audit.all_match
    assert len(audit.rows) == 10


def test_audit_rows_cover_ordered_grid_pairs():
    corr = _collapse_correspondence()
    audit = geodesicity_audit(corr, grid=(0, Fraction(1, 2), 1))
    assert [(row.s, row.t) for row in audit.rows] == [
        (0, Fraction(1, 2)),
        (0, 1),
        (Fraction(1, 2), 1),
    ]
    for row in audit.rows:
        assert row.expected == (row.t - row.s) * audit.endpoint_value


def test_audit_sorts_and_dedupes_its_grid():
    """Rows run over s < t whatever order the times come in; a reversed
    grid used to give the row (1, 0) a negative expected value."""
    corr = _collapse_correspondence()
    want = geodesicity_audit(corr, grid=(0, Fraction(1, 2), 1))
    got = geodesicity_audit(corr, grid=(1, Fraction(1, 2), 0, 1))
    assert got == want
    reversed_ends = geodesicity_audit(corr, grid=(1, 0))
    assert [(row.s, row.t) for row in reversed_ends.rows] == [(0, 1)]
    assert reversed_ends.rows[0].expected == reversed_ends.endpoint_value


def test_audit_serves_the_endpoint_row_from_the_endpoint_solve():
    audit = geodesicity_audit(_collapse_correspondence())
    (row,) = [row for row in audit.rows if (row.s, row.t) == (0, 1)]
    assert row.value == audit.endpoint_value


def test_audit_rejects_bad_grid():
    corr = _collapse_correspondence()
    with pytest.raises(ValueError):
        geodesicity_audit(corr, grid=(0, 2))


def test_audit_can_report_mismatches():
    """A deliberately bad correspondence between isometric pairs: the
    endpoint distance is 0, so any positive interior distance mismatches."""
    two = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    pair = MetricPair(two, (0, 1))
    sloppy = PairCorrespondence(
        pair, pair, ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    audit = geodesicity_audit(sloppy)
    assert audit.endpoint_value == 0
    assert not audit.all_match


def test_default_grid_is_the_quarter_grid():
    assert DEFAULT_GRID == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)


def _audit_every_row(corr, grid, budget):
    """The audit with one solve per row: (endpoint, rows as tuples)."""
    times = sorted(set(grid))
    endpoint = exact_pair_gh(corr.left, corr.right, budget=budget).value
    samples = {t: interpolate(corr, t) for t in times}
    rows = []
    for i, s in enumerate(times):
        for t in times[i + 1 :]:
            if (s, t) == (0, 1):
                value = endpoint
            else:
                value = exact_pair_gh(samples[s], samples[t], budget=budget).value
            expected = (t - s) * endpoint
            rows.append((s, t, value, expected, close(value, expected)))
    return endpoint, rows


def _counting_solves(monkeypatch):
    """Count the exact solves the audit runs, through the name it calls."""
    calls = []
    solve = geodesics.exact_pair_gh

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geodesics, "exact_pair_gh", counted)
    return calls


_GRIDS = (
    DEFAULT_GRID,
    (0, Fraction(1, 3), Fraction(2, 3), 1),
    (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    (0, Fraction(1, 2), Fraction(3, 4)),
    (Fraction(1, 4), Fraction(3, 5), 1),
)


def test_proven_rows_equal_the_rows_every_solve_gives(monkeypatch):
    """Seeded correspondences, optimal and not, on grids with and without
    the endpoints: values and verdicts equal the audit that solves every
    row, and the proven rows run no solve."""
    calls = _counting_solves(monkeypatch)
    rng = random.Random(22)
    kinds = set()
    solved = rows = 0
    for case in range(40):
        left, right = random_pair(rng, (2, 3)), random_pair(rng, (2, 2))
        if case % 4 == 0:
            corr = min_distortion(left, right).correspondence
        else:
            corr = random_correspondence(rng, left, right, extra=case % 2)
        sup = _sup_abs_diff(corr.pairs, corr.left.space.dist, corr.right.space.dist, 0)
        for grid in _GRIDS:
            calls.clear()
            audit = geodesicity_audit(corr, grid=grid, budget=10**6)
            endpoint, want = _audit_every_row(corr, grid, 10**6)
            got = [(r.s, r.t, r.value, r.expected, r.matches) for r in audit.rows]
            assert (audit.endpoint_value, got) == (endpoint, want), (case, grid)
            kinds.add(endpoint == sup)
            rows += len(want)
            solved += len(calls) - 1  # the endpoint solve is no row's
    assert kinds == {True, False}
    assert 0 < solved < rows


def test_exact_audit_of_a_tight_endpoint_runs_one_solve(monkeypatch):
    """When the endpoint meets its bound every row is proven."""
    calls = _counting_solves(monkeypatch)
    audit = geodesicity_audit(_collapse_correspondence())
    assert len(calls) == 1 and audit.all_match and len(audit.rows) == 10


def test_float_audits_solve_every_row(monkeypatch):
    """Float distances or float times: no row is proven."""
    calls = _counting_solves(monkeypatch)
    corr = _collapse_correspondence()
    geodesicity_audit(corr, grid=(0, 0.25, 0.5, 0.75, 1))
    assert len(calls) == 1 + 9
    two = FiniteMetricSpace.from_matrix([[0.0, 2.0], [2.0, 0.0]])
    one = FiniteMetricSpace.from_matrix([[0.0]])
    floats = PairCorrespondence(
        MetricPair(two, (0, 1)), MetricPair(one, (0,)), ((0, 0), (1, 0))
    )
    calls.clear()
    audit = geodesicity_audit(floats)
    assert len(calls) == 1 + 9 and audit.all_match
