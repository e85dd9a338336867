from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.realization import (
    EmbeddedComplex,
    Interval,
    carrier_samples,
    filtration_distance,
    level_complex,
    point_segment_distance,
    point_triangle_distance,
    realization_hausdorff,
)


def _segment(y):
    return EmbeddedComplex([[0.0, y], [1.0, y]], [(0, 1)])


def test_interval_basics():
    iv = Interval(0.25, 0.75)
    assert iv.width == 0.5
    assert iv.contains(0.5)
    assert not iv.contains(1.0)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_embedded_complex_validation():
    with pytest.raises(ValueError):
        EmbeddedComplex([[0.0, 0.0]], [])
    with pytest.raises(ValueError):
        EmbeddedComplex([[0.0, 0.0]], [(0, 0)])
    with pytest.raises(ValueError):
        EmbeddedComplex([[0.0, 0.0]], [(0, 1)])
    with pytest.raises(ValueError):
        EmbeddedComplex([[0.0, 0.0], [1.0, 0.0]], [(0, 1)], depths=[0, 1])
    bad = ([], [[0.0, 0.0], [1.0]], [0.0, 1.0], [[[0.0]]], ["12", "34"], [b"12", b"34"])
    for points in bad + ([[math.nan, 0.0]], [[0.0, math.inf]]):
        with pytest.raises(ValueError):
            EmbeddedComplex(points, [(0,)])


def test_embedded_complex_holds_float_tuples():
    cx = EmbeddedComplex([[0, 1], (2.5, "3")], [(0, 1)])
    assert cx.points == ((0.0, 1.0), (2.5, 3.0))
    assert all(isinstance(v, float) for p in cx.points for v in p)
    samples = carrier_samples(cx, 4.0)
    assert samples == [(0.0, 1.0), (2.5, 3.0)]
    d = point_segment_distance([(0.0, 0.0)], *cx.points)
    assert isinstance(d, list) and d == [1.0]
    d = point_triangle_distance([(0.0, 0.0)], (0.0, 1.0), (1.0, 1.0), (0.0, 2.0))
    assert isinstance(d, list) and d == [1.0]


def test_point_segment_distance_values():
    pts = [[0.5, 1.0], [2.0, 0.0], [-1.0, 0.0], [0.25, 0.0]]
    d = point_segment_distance(pts, [0.0, 0.0], [1.0, 0.0])
    assert np.allclose(d, [1.0, 1.0, 1.0, 0.0])
    # Degenerate segment collapses to a point.
    d = point_segment_distance([[3.0, 4.0]], [0.0, 0.0], [0.0, 0.0])
    assert np.allclose(d, [5.0])


def test_point_triangle_distance_regions():
    a, b, c = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
    pts = [
        [0.25, 0.25],    # inside: 0
        [-1.0, -1.0],    # vertex a region: sqrt(2)
        [2.0, 0.0],      # vertex b region: 1
        [0.5, -1.0],     # edge ab region: 1
        [1.0, 1.0],      # edge bc region: sqrt(2)/2
        [0.25, 0.25 - 1e-12],  # numerically on the face
    ]
    d = point_triangle_distance(pts, a, b, c)
    expected = [0.0, math.sqrt(2), 1.0, 1.0, math.sqrt(2) / 2, 0.0]
    assert np.allclose(d, expected, atol=1e-9)


def test_point_triangle_distance_above_plane():
    a, b, c = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    d = point_triangle_distance([[0.2, 0.2, 2.0]], a, b, c)
    assert np.allclose(d, [2.0])


def test_point_triangle_distance_degenerate_triangles():
    """Zero-area triangles, with a repeated corner or three collinear
    ones, are measured as the union of their edges."""
    a, c = [0.125, 0.0, 0.125], [0.0, 0.0, 0.0]
    d = point_triangle_distance([[0.0, 0.0, 0.125]], a, a, c)
    assert d == [math.sqrt(0.0078125)]
    d = point_triangle_distance([[1.0, 1.0], [3.0, 0.0]], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0])
    assert d == [1.0, 1.0]


def test_carrier_samples_nested_refinement():
    seg = _segment(0.0)
    coarse = carrier_samples(seg, 0.25)
    fine = carrier_samples(seg, 0.125)
    coarse_set = {tuple(np.round(p, 12)) for p in coarse}
    fine_set = {tuple(np.round(p, 12)) for p in fine}
    assert coarse_set <= fine_set
    assert len(coarse) == 5
    assert len(fine) == 9
    with pytest.raises(ValueError):
        carrier_samples(seg, 0.0)


def test_realization_hausdorff_parallel_segments():
    """Frozen probe: unit segments at height 0 and 1/2 are exactly 1/2
    apart; every interval contains 1/2 and refinement tightens it."""
    a = _segment(0.0)
    b = _segment(0.5)
    coarse = realization_hausdorff(a, b, 0.25)
    fine = realization_hausdorff(a, b, 0.0625)
    assert coarse.lower == 0.5
    assert coarse.upper == 0.75
    assert fine.lower == 0.5
    assert fine.upper == 0.5625
    assert coarse.contains(0.5) and fine.contains(0.5)
    assert fine.upper <= coarse.upper
    assert fine.lower >= coarse.lower


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_realization_hausdorff_rejects_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="h must be"):
        realization_hausdorff(_segment(0.0), _segment(0.5), h)


def test_realization_hausdorff_refuses_points_of_different_dimensions():
    """A planar segment against one 5 above it in R^3: zipping the
    coordinates would drop the 5 and report [0, h]."""
    lifted = EmbeddedComplex([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]], [(0, 1)])
    for a, b in ((_segment(0.0), lifted), (lifted, _segment(0.0))):
        with pytest.raises(ValueError, match=r"dimension [23] and [23]"):
            realization_hausdorff(a, b, 0.125)
        with pytest.raises(ValueError, match="dimension"):
            filtration_distance(a, b, 0.5)


def test_realization_hausdorff_triangle_in_triangle():
    """A triangle against its own boundary edges: Hausdorff distance is
    the inradius distance from the incenter... bounded above by the interval."""
    tri = EmbeddedComplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 2)])
    boundary = EmbeddedComplex(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (1, 2), (0, 2)]
    )
    iv = realization_hausdorff(tri, boundary, 0.03125)
    r_in = (2 - math.sqrt(2)) / 2  # inradius of the right isoceles triangle
    assert iv.contains(r_in)
    assert iv.width == 0.03125


def test_level_complex_filters_by_depth():
    cx = EmbeddedComplex(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        [(0,), (0, 1), (0, 1, 2)],
        depths=[2, 1, 0],
    )
    assert cx.max_depth == 2
    top = level_complex(cx, 2)
    assert top.simplices == ((0,),)
    mid = level_complex(cx, 1)
    assert mid.simplices == ((0,), (0, 1))
    with pytest.raises(ValueError):
        level_complex(cx, 3)


def test_filtration_distance_sums_levels():
    a = EmbeddedComplex(
        [[0.0, 0.0], [1.0, 0.0]], [(0, 1), (0,)], depths=[0, 1]
    )
    b = EmbeddedComplex(
        [[0.0, 0.25], [1.0, 0.25]], [(0, 1), (0,)], depths=[0, 1]
    )
    per_level, total = filtration_distance(a, b, 0.125)
    assert len(per_level) == 2
    assert per_level[0].lower == 0.25
    assert per_level[1].lower == 0.25
    assert total.lower == sum(iv.lower for iv in per_level)
    assert total.upper == sum(iv.upper for iv in per_level)

    c = EmbeddedComplex([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    with pytest.raises(ValueError):
        filtration_distance(a, c, 0.125)


_BOUNDED = settings(settings.get_profile("bounded"), max_examples=150)


@st.composite
def _dyadic_simplex_and_points(draw):
    """A segment or triangle with dyadic corners (multiples of 1/8, possibly
    coinciding) in 2 or 3 dimensions, and a few dyadic query points."""
    dim = draw(st.sampled_from((2, 3)))
    coord = st.integers(min_value=-24, max_value=24).map(lambda k: k / 8)
    point = st.tuples(*[coord] * dim)
    corners = draw(st.lists(point, min_size=2, max_size=3))
    queries = draw(st.lists(point, min_size=1, max_size=4))
    return corners, queries


def _grid_minimum(p, corners, n):
    """Smallest distance from p to the points of the n-step barycentric
    grid on the simplex spanned by corners."""
    a, b = corners[0], corners[1]
    c = corners[2] if len(corners) == 3 else b
    best = math.inf
    for u in range(n + 1):
        for v in range(n + 1 - u):
            q = [a[k] + u / n * (b[k] - a[k]) + v / n * (c[k] - a[k]) for k in range(len(p))]
            best = min(best, math.sqrt(sum((p[k] - q[k]) ** 2 for k in range(len(p)))))
    return best


@_BOUNDED
@given(_dyadic_simplex_and_points())
def test_simplex_distance_matches_barycentric_grid(case):
    """The exact distance d satisfies d <= grid minimum <= d + longest/n:
    grid points lie on the simplex, and every point of the simplex is within
    longest/n of one of them."""
    corners, queries = case
    n = 16
    if len(corners) == 2:
        got = point_segment_distance(queries, *corners)
    else:
        got = point_triangle_distance(queries, *corners)
    longest = max(math.dist(p, q) for p in corners for q in corners)
    for p, d in zip(queries, got):
        g = _grid_minimum(p, corners, n)
        assert d - 1e-12 <= g <= d + longest / n + 1e-12


def _random_complex(rng, dim):
    npts = rng.randint(3, 6)
    points = [[rng.randint(-16, 16) / 8 for _ in range(dim)] for _ in range(npts)]
    simplices = [tuple(sorted(rng.sample(range(npts), 3)))]
    for _ in range(rng.randint(0, 3)):
        simplices.append(tuple(sorted(rng.sample(range(npts), rng.randint(1, 3)))))
    return EmbeddedComplex(points, simplices)


def _full_scan(a, b, h):
    """Largest distance from a sample of a to the carrier of b, measured
    at every sample."""
    dists = []
    for s in b.simplices:
        corners = [b.points[v] for v in s]
        if len(s) == 3:
            dists.append(point_triangle_distance(carrier_samples(a, h), *corners))
        else:
            dists.append(point_segment_distance(carrier_samples(a, h), corners[0], corners[-1]))
    return max(min(d) for d in zip(*dists))


def test_realization_lower_bound_equals_full_scan():
    """The branch and bound finds the full scan's maximum bit for bit: on
    non-dyadic 2-D/3-D complexes of several scales, with thin triangles,
    on steps that are not powers of two, and on carriers at a constant
    distance over whole triangles (shifted and identical copies), where
    nothing can be pruned."""
    rng = random.Random(29)
    cases = []
    for i in range(24):
        dim, scale = 2 + i % 2, (1e-3, 1.0, 1e3)[i % 3]
        pair = []
        for _ in range(2):
            pts = [[rng.uniform(-scale, scale) for _ in range(dim)] for _ in range(5)]
            pts[4] = [x + 1e-7 * scale * rng.random() for x in pts[0]]  # thin triangle 0, 1, 4
            pair.append(EmbeddedComplex(pts, [(0, 1, 4), (1, 2, 3), (2, 3), (3,)]))
        cases.append((pair[0], pair[1], scale * rng.choice((0.3, 0.125, 0.1))))
    tri = EmbeddedComplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 1]], [(0, 1, 2), (1, 2, 3)])
    shifted = EmbeddedComplex([[x, y, z + 0.3] for x, y, z in tri.points], tri.simplices)
    cases += [(tri, shifted, 0.25), (tri, tri, 0.25)]
    for a, b, h in cases:
        expected = max(_full_scan(a, b, h), _full_scan(b, a, h))
        assert realization_hausdorff(a, b, h).lower == expected


def test_realization_lower_bounds_match_recorded_digest():
    """Lower bounds of 20 seeded dyadic complexes with triangles, 2-D and
    3-D, keep the exact bits recorded from the earlier numpy version."""
    rng = random.Random(83)
    digest = hashlib.sha256()
    for i in range(20):
        dim = 2 + i % 2
        a, b = _random_complex(rng, dim), _random_complex(rng, dim)
        h = 2.0 ** -rng.randint(2, 4)
        digest.update(realization_hausdorff(a, b, h).lower.hex().encode())
    assert digest.hexdigest() == (
        "84b1c33bbd3b65521e1f99b17b218ec1e1db3d0a9762ede515d8780bf14a6d39"
    )
