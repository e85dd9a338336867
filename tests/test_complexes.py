from __future__ import annotations

import heapq
import random
from fractions import Fraction

import pytest

from metricpairs.complexes import (
    ApproxParams,
    DisconnectedComplexError,
    _graph_apsp,
    approximation_bound,
    approximation_pipeline,
    build_complex,
    complex_pair,
    graph_metric,
    stretch_report,
    subcomplex_metric,
)
from metricpairs.generators import circle_space
from metricpairs.scalars import zero_for
from metricpairs.spaces import FiniteMetricSpace, MetricPair, covering_radius


def _unit_circle_pair(n=8, arc=11):
    """Circle of circumference 1 as an n-point net, subset an arc."""
    space = circle_space(n, circumference=1)
    subset = tuple(range(min(arc, n)))
    return MetricPair(space, subset)


def test_params_scales():
    p2 = ApproxParams(2)
    assert p2.nu == Fraction(1, 100)
    assert p2.theta == Fraction(1, 25)
    assert abs(p2.mu - 1.0) < 1e-5
    p3 = ApproxParams(3)
    assert p3.nu == Fraction(1, 1000)
    assert p3.theta == Fraction(1, 125)
    assert p3.mu < p2.mu
    with pytest.raises(ValueError):
        ApproxParams(1)


def test_net_slack_applies_to_float_spaces_only():
    """A distance just under nu, within the relative float slack: the far
    point joins the net of the float space, but not of the exact one."""
    params = ApproxParams(2)
    d = Fraction(9999995, 10**9)
    assert params.nu * (1 - Fraction(1, 10**6)) < d < params.nu
    nets = [
        build_complex(MetricPair(FiniteMetricSpace.from_matrix([[0, v], [v, 0]]), (0,)), params)
        for v in (d, float(d))
    ]
    assert [cx.vertices for cx in nets] == [(0,), (0, 1)]


def test_build_complex_nets_subset_first():
    """Frozen probe: 8-point unit circle with a 3-point arc subset at
    radius 1/100 keeps every distinct point; the subset net seeds the
    full net so flags form a prefix."""
    pair = MetricPair(circle_space(8, circumference=1), (0, 3))
    cx = build_complex(pair, ApproxParams(2))
    assert set(cx.vertices) == set(range(8))
    assert cx.vertices[:2] == (0, 3)
    assert cx.flags == (True, True) + (False,) * 6
    assert cx.core_size == 2


def test_build_complex_edges_respect_cutoff():
    pair = _unit_circle_pair(n=50, arc=26)
    cx = build_complex(pair, ApproxParams(2))
    cutoff = ApproxParams(2).theta
    for i, j, w in cx.l_edges:
        assert w < cutoff
        assert w == pair.space.dist[cx.vertices[i]][cx.vertices[j]]
    flag_set = {i for i, f in enumerate(cx.flags) if f}
    for i, j, w in cx.k_edges:
        assert i in flag_set and j in flag_set
        assert w < cutoff
    # Each core edge mirrors a long edge with the same weight.
    l_lookup = {(i, j): w for i, j, w in cx.l_edges}
    for i, j, w in cx.k_edges:
        assert l_lookup[(i, j)] == w


def test_graph_metric_matches_circle_distances():
    """On a dense circle the one-complex path metric reproduces arc
    distances exactly: neighbors chain around the circle."""
    pair = _unit_circle_pair(n=50, arc=26)
    cx = build_complex(pair, ApproxParams(2))
    graph = graph_metric(cx)
    base = pair.space
    for i in range(0, len(cx.vertices), 7):
        for j in range(0, len(cx.vertices), 11):
            vi, vj = cx.vertices[i], cx.vertices[j]
            assert graph.dist[i][j] >= base.dist[vi][vj]


def test_disconnected_complex_raises():
    pair = MetricPair(circle_space(12), tuple(range(12)))  # integer arcs >= 1
    with pytest.raises(DisconnectedComplexError) as exc:
        graph_metric(build_complex(pair, ApproxParams(2)))
    assert len(exc.value.pairs) == 12 * 11


def test_subcomplex_metric_covers_core():
    pair = _unit_circle_pair(n=40, arc=21)
    cx = build_complex(pair, ApproxParams(2))
    sub = subcomplex_metric(cx)
    assert sub.n == cx.core_size
    cp = complex_pair(cx)
    assert cp.subset == tuple(range(cx.core_size))
    assert cp.space.n == len(cx.vertices)


def test_stretch_report_on_dense_circle():
    pair = _unit_circle_pair(n=40, arc=21)
    cx = build_complex(pair, ApproxParams(2))
    report = stretch_report(cx)
    assert report.ok
    assert report.worst_ratio is not None
    assert report.worst_ratio < 2.0 ** ApproxParams(2).mu


def _uniform(n, d):
    return FiniteMetricSpace.from_matrix(
        [[0 if i == j else d for j in range(n)] for i in range(n)]
    )


def test_stretch_report_lists_lower_and_upper_failures():
    """A graph metric below the base distances fails the lower check on
    every vertex pair, one far above it the upper check."""
    pair = _unit_circle_pair(n=8, arc=8)
    cx = build_complex(pair, ApproxParams(2))
    n = len(cx.vertices)
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    low = stretch_report(cx, _uniform(n, Fraction(1, 100)))
    assert low.lower_failures == pairs
    assert low.upper_failures == ()
    assert not low.ok
    high = stretch_report(cx, _uniform(n, 100))
    assert high.lower_failures == ()
    assert high.upper_failures == pairs
    assert not high.ok


def test_pipeline_on_a_one_point_pair_has_nothing_to_saturate():
    """A one-vertex net has no nearest-neighbor gap to push the cutoff."""
    pair = MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    for row in approximation_pipeline(pair).rows:
        assert row.net_size == 1
        assert not row.saturated
        assert row.mismatch == row.covering == 0


def test_approximation_bound_value():
    """Frozen: at n = 2 on a diameter-1/2 space the closed-form bound is
    (2^mu - 1)/2 + 1/25, approximately 0.54."""
    bound = approximation_bound(ApproxParams(2), Fraction(1, 2))
    assert abs(bound - 0.54) < 1e-3


def test_pipeline_estimates_decay():
    """Frozen decay probe: the 40-point unit circle with an 11-point arc
    gives net estimates 2/25 at n = 2 and 1/125 at n = 3."""
    pair = MetricPair(circle_space(40, circumference=1), tuple(range(11)))
    result = approximation_pipeline(pair, levels=(2, 3))
    assert [row.n for row in result.rows] == [2, 3]
    first, second = result.rows
    assert second.net_estimate < first.net_estimate
    assert first.net_estimate == 4 * first.eps
    assert first.eps == first.mismatch + first.covering + ApproxParams(2).theta / 4
    csv = result.csv_rows()
    assert csv[0] == ("n", "mu", "gh_bound", "net_estimate")
    assert len(csv) == 3


def test_pipeline_saturation_flags():
    """A 12-point unit circle has nearest gaps of 1/12 > theta(2), so the
    n = 2 row must saturate its cutoff to stay connected."""
    pair = MetricPair(circle_space(12, circumference=1), (0, 1, 2))
    result = approximation_pipeline(pair, levels=(2,))
    row = result.rows[0]
    assert row.saturated
    assert row.theta_eff > ApproxParams(2).theta

    dense = MetricPair(circle_space(64, circumference=1), tuple(range(11)))
    result = approximation_pipeline(dense, levels=(2,))
    assert not result.rows[0].saturated

    with pytest.raises(DisconnectedComplexError):
        approximation_pipeline(pair, levels=(2,), saturate=False)


@pytest.mark.parametrize("level", [2.7, 2.0, True, "2"])
def test_pipeline_refuses_a_level_that_is_not_an_int(level):
    pair = MetricPair(circle_space(12, circumference=1), (0, 1, 2))
    with pytest.raises(ValueError, match="level must be an integer index"):
        approximation_pipeline(pair, levels=[level])


def test_pipeline_estimate_bounds_exact_distance():
    """The certified estimate must upper-bound the exact pair distance
    between the original pair and the complex pair when both are small
    enough for the oracle."""
    from metricpairs.oracle import exact_pair_gh

    pair = MetricPair(circle_space(4, circumference=1), (0, 1))
    result = approximation_pipeline(pair, levels=(2,))
    row = result.rows[0]
    params = ApproxParams(2)
    cx = build_complex(pair, params, theta=row.theta_eff)
    cp = complex_pair(cx)
    exact = exact_pair_gh(pair, cp, budget=10**8).value
    assert exact <= row.net_estimate


def test_bound_past_the_float_range_is_a_value_error():
    """An exact diameter too large for a float is refused with a
    ValueError that names the float range, not a bare OverflowError."""
    with pytest.raises(ValueError, match="float range"):
        approximation_bound(ApproxParams(2), Fraction(10**400, 3))
    huge = MetricPair(
        FiniteMetricSpace.from_matrix([[0, 10**400], [10**400, 0]]), (0,)
    )
    with pytest.raises(ValueError, match="float range"):
        approximation_pipeline(huge, levels=(2,))


def _reference_shortest_paths(n, edges):
    """Dijkstra from every vertex on the weights as given, the heap
    comparing them directly (fractions for exact weights)."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for src in range(n):
        dist = [None] * n
        heap = [(0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if dist[node] is not None:
                continue
            dist[node] = d
            for nxt, w in adj[node]:
                if dist[nxt] is None:
                    heapq.heappush(heap, (d + w, nxt))
        rows.append(dist)
    return rows


_WEIGHTS = {
    "int": lambda rng: rng.randint(1, 6),
    "fraction": lambda rng: Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7, 125))),
    "integral fraction": lambda rng: Fraction(rng.randint(1, 6)),
    "float": lambda rng: rng.uniform(0.1, 3.0),
    "mixed": lambda rng: rng.choice((rng.randint(1, 6), Fraction(rng.randint(1, 12), 5))),
}


@pytest.mark.parametrize("kind", sorted(_WEIGHTS))
def test_graph_distances_on_the_integer_scale_match_the_reference(kind):
    """Exact weights are searched as ints and mapped back; the values are
    the Dijkstra's on the weights as given, and only mixed int and
    fraction weights may come back as fractions where the reference has
    ints.  Float weights keep every bit of the upper triangle, which
    validation mirrors onto the lower one, and a 0.0 diagonal once there
    is an edge."""
    rng = random.Random(f"graph-apsp:{kind}")
    draw = _WEIGHTS[kind]
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(v), v, draw(rng)) for v in range(1, n)]
        edges += [
            (u, v, draw(rng))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        want = _reference_shortest_paths(n, edges)
        if kind == "float":
            zero = zero_for(*want)  # the int 0 of one vertex holds no float
            want = [
                [zero if s == t else want[min(s, t)][max(s, t)] for t in range(n)]
                for s in range(n)
            ]
        got = _graph_apsp(n, edges, tuple(range(n))).dist
        for got_row, want_row in zip(got, want):
            assert list(got_row) == want_row
            for g, w in zip(got_row, want_row):
                if kind == "float":
                    assert float(g).hex() == float(w).hex()
                if kind != "mixed":
                    assert type(g) is type(w)
