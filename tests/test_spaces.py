from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metricpairs.generators import random_space
from metricpairs.spaces import (
    CrossMetric,
    FiniteMetricSpace,
    InvalidMetricError,
    MetricPair,
    MetricTuple,
    MetricViolations,
    _levels_of,
    covering_radius,
    greedy_net,
    hausdorff,
    pair_hausdorff,
    product_max_metric,
    tuple_hausdorff,
    validate_metric,
)


def _path_space():
    rows = [
        [0, 1, 2],
        [1, 0, 1],
        [2, 1, 0],
    ]
    return FiniteMetricSpace.from_matrix(rows)


def test_validate_metric_flags_each_axiom():
    report = validate_metric([[0, 1], [2, 0]])
    assert isinstance(report, MetricViolations)
    assert report.asymmetric

    report = validate_metric([[1, 1], [1, 0]])
    assert report.diagonal
    assert report.summary() == "1 nonzero diagonal entries"

    report = validate_metric([[0, 0], [0, 0]])
    assert report.nonpositive

    report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert report.triangles
    assert not report.ok
    assert report.as_dict()["ok"] is False


def test_validate_metric_returns_space_when_valid():
    result = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert isinstance(result, FiniteMetricSpace)
    assert result.n == 3


def test_validate_metric_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_metric([])
    with pytest.raises(ValueError):
        validate_metric([[0, 5], [5, 0], [0, 0]])
    with pytest.raises(ValueError):
        validate_metric([[0, -1], [-1, 0]])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1])
def test_validate_metric_rejects_a_tolerance_that_switches_checks_off(tol):
    # nan passed the triangle violation below, inf flagged every
    # off-diagonal entry, -1 called the zero diagonal negative
    with pytest.raises(ValueError, match="tolerance"):
        validate_metric([[0, 5, 1], [5, 0, 1], [1, 1, 0]], tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        validate_metric([[0, 1], [1, 0]], tol=tol)


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_validate_metric_rejects_non_finite_entries(entry):
    with pytest.raises(ValueError, match="non-finite entry at \\(0, 1\\)"):
        validate_metric([[0.0, entry], [entry, 0.0]])


def test_from_matrix_raises_with_report():
    with pytest.raises(InvalidMetricError) as exc:
        FiniteMetricSpace.from_matrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    assert exc.value.report.triangles


def test_space_basic_queries():
    space = _path_space()
    assert space.n == 3
    assert space.exact
    assert space.diameter() == 2
    assert space.diameter(subset=(0, 1)) == 1
    assert space.min_positive() == 1


def test_restrict_preserves_distances():
    space = _path_space()
    sub = space.restrict((0, 2))
    assert sub.n == 2
    assert sub.dist[0][1] == 2


def test_hausdorff_known_values():
    space = _path_space()
    assert hausdorff(space, (0,), (0, 1, 2)) == 2
    assert hausdorff(space, (0, 2), (0, 1, 2)) == 1
    assert hausdorff(space, (0, 1, 2), (1,)) == 1
    assert hausdorff(space, (1,), (1,)) == 0


def test_hausdorff_is_symmetric_under_swap():
    rng = random.Random(20)
    for _ in range(50):
        space = random_space(rng, rng.randint(2, 5))
        pts = list(range(space.n))
        s = tuple(sorted(rng.sample(pts, rng.randint(1, space.n))))
        t = tuple(sorted(rng.sample(pts, rng.randint(1, space.n))))
        assert hausdorff(space, s, t) == hausdorff(space, t, s)


def test_metric_pair_requires_nonempty_subset():
    space = _path_space()
    with pytest.raises(ValueError):
        MetricPair(space, ())
    with pytest.raises(ValueError):
        MetricPair(space, (0, 5))


def test_metric_pair_as_tuple_round_trip():
    pair = MetricPair(_path_space(), (2, 0))
    assert pair.subset == (0, 2)
    tup = pair.as_tuple()
    assert tup.k == 1
    assert tup.chain == ((0, 2),)


def test_metric_tuple_requires_nested_chain():
    space = _path_space()
    tup = MetricTuple(space, ((0, 1, 2), (0, 1), (0,)))
    assert tup.k == 3
    with pytest.raises(ValueError):
        MetricTuple(space, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        MetricTuple(space, ())


def test_pair_and_tuple_hausdorff_reduce_to_levels():
    """The pair version sums the full-space and subset terms; the tuple
    version adds one term per chain level on top of the full-space term."""
    space = _path_space()
    delta = CrossMetric(space, space, tuple(tuple(row) for row in space.dist))

    pair_p = MetricPair(space, (0,))
    pair_q = MetricPair(space, (2,))
    expected = hausdorff(space, (0,), (2,))
    assert pair_hausdorff(delta, pair_p, pair_q) == 0 + expected

    tup_p = MetricTuple(space, ((0, 1, 2), (0,)))
    tup_q = MetricTuple(space, ((0, 1, 2), (2,)))
    assert tuple_hausdorff(delta, tup_p, tup_q) == 0 + 0 + expected


def test_pair_hausdorff_equals_tuple_on_single_level():
    rng = random.Random(22)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 4))
        other = random_space(rng, rng.randint(2, 4))
        diam = max(space.diameter(), other.diameter())
        cross = tuple(tuple(diam for _ in range(other.n)) for _ in range(space.n))
        delta = CrossMetric(space, other, cross)
        sub_p = tuple(sorted(rng.sample(range(space.n), rng.randint(1, space.n))))
        sub_q = tuple(sorted(rng.sample(range(other.n), rng.randint(1, other.n))))
        p = MetricPair(space, sub_p)
        q = MetricPair(other, sub_q)
        assert pair_hausdorff(delta, p, q) == tuple_hausdorff(
            delta, p.as_tuple(), q.as_tuple()
        )


def test_cross_metric_check_and_assemble():
    space = _path_space()
    other = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    rows = ((Fraction(2), Fraction(2)),
            (Fraction(2), Fraction(2)),
            (Fraction(2), Fraction(2)))
    delta = CrossMetric(space, other, rows)
    assert delta.check() == []
    big = delta.assemble()
    assert big.n == 5
    assert big.dist[0][3] == 2
    assert big.dist[4][2] == 2
    assert FiniteMetricSpace.from_matrix(big.dist).n == 5

    flipped = delta.transpose()
    assert flipped.cross[1][2] == delta.cross[2][1]


def test_cross_metric_check_catches_violations():
    space = _path_space()
    other = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    rows = ((Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(1)),
            (Fraction(10), Fraction(1)))
    delta = CrossMetric(space, other, rows)
    kinds = {record[0] for record in delta.check()}
    assert kinds

    zero_rows = ((Fraction(0), Fraction(1)),
                 (Fraction(1), Fraction(1)),
                 (Fraction(2), Fraction(1)))
    delta = CrossMetric(space, other, zero_rows)
    assert any(r[0] == "positivity" for r in delta.check())
    assert not any(
        r[0] == "positivity" for r in delta.check(require_positive=False)
    )


def test_cross_metric_shape_mismatch():
    space = _path_space()
    other = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        CrossMetric(space, other, ((Fraction(1),),))


def test_admissible_check_matches_assembled_validation():
    """An empty check list is equivalent to the assembled union matrix
    passing full metric validation."""
    rng = random.Random(23)
    for _ in range(40):
        left = random_space(rng, rng.randint(2, 4))
        right = random_space(rng, rng.randint(2, 4))
        cross = tuple(
            tuple(rng.choice([1, 2, 3]) for _ in range(right.n))
            for _ in range(left.n)
        )
        delta = CrossMetric(left, right, cross)
        ok_check = delta.check() == []
        assembled = validate_metric(delta.assemble().dist)
        ok_assembled = isinstance(assembled, FiniteMetricSpace)
        assert ok_check == ok_assembled


def test_greedy_net_on_path():
    space = _path_space()
    result = greedy_net(space, 1)
    assert result.members[0] == 0
    for point in range(space.n):
        assert min(space.dist[point][m] for m in result.members) <= 1


def test_greedy_net_seed_is_respected():
    space = _path_space()
    result = greedy_net(space, 1, seed=(1,))
    assert result.members[0] == 1


def test_greedy_net_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        greedy_net(_path_space(), 0)


def test_greedy_net_tight_points_sit_at_radius():
    space = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    result = greedy_net(space, 1)
    assert result.members == (0,)
    assert result.tight == (1,)


def test_covering_radius_matches_net_guarantee():
    rng = random.Random(21)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6))
        radius = rng.choice([1, 2])
        net = greedy_net(space, radius)
        assert covering_radius(space, net.members) <= radius


def test_covering_radius_over_subset():
    space = _path_space()
    assert covering_radius(space, (0,)) == 2
    assert covering_radius(space, (0,), over=(0, 1)) == 1


@pytest.mark.parametrize("members, over", [((-1,), None), ((3,), None), ((0,), (-1,)), ((0,), (0, 3))])
def test_covering_radius_rejects_indices_out_of_range(members, over):
    """-1 is not read as the last point: the 3-point path would give 2."""
    with pytest.raises(ValueError, match="out of range"):
        covering_radius(_path_space(), members, over=over)


def test_product_max_metric_values():
    space = _path_space()
    prod = product_max_metric(space, space)
    n = space.n
    for i in range(n * n):
        for j in range(n * n):
            xi, ai = prod.unindex(i)
            xj, aj = prod.unindex(j)
            expected = max(space.dist[xi][xj], space.dist[ai][aj])
            assert prod.space.dist[i][j] == expected
    assert prod.index(1, 2) == 5


_TWO = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
_ONE = FiniteMetricSpace.from_matrix([[0]])

# one call per input guard, with the error it raises
_GUARDS = {
    "levels of a bare space": (
        lambda: _levels_of(_TWO),
        TypeError,
        "expected MetricPair or MetricTuple, got FiniteMetricSpace",
    ),
    "pair_hausdorff cross metric of another shape": (
        lambda: pair_hausdorff(
            CrossMetric(_TWO, _ONE, ((1,), (1,))), MetricPair(_TWO, (0,)), MetricPair(_TWO, (0,))
        ),
        ValueError,
        "cross metric does not match the pair spaces",
    ),
    "tuple_hausdorff chains of different lengths": (
        lambda: tuple_hausdorff(
            CrossMetric(_TWO, _TWO, ((1, 1), (1, 1))),
            MetricTuple(_TWO, ((0, 1),)),
            MetricTuple(_TWO, ((0, 1), (0,))),
        ),
        ValueError,
        "tuples have different chain lengths",
    ),
    "greedy_net seed out of range": (
        lambda: greedy_net(_TWO, 1, seed=[5]),
        ValueError,
        "seed index out of range",
    ),
}


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_spaces_refuse_bad_input(name):
    call, error, message = _GUARDS[name]
    with pytest.raises(error, match=f"^{message}$"):
        call()
