"""The certificate against a reference copy of its flat form.

The reference below builds the cross block as it was before the two-stage
min-plus product: every cell (i, j) takes the least dx[i][x] + t + dy[y][j]
over all witness entries (t, x, y) of all levels, in one flat scan, and
the report checks that block through ``CrossMetric.check``.  Both must
agree on every value, and float blocks must agree to the bit.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.oracle import _levels_of, _solve
from metricpairs.scalars import close
from metricpairs.spaces import (
    CrossMetric,
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    _cross_hausdorff,
)

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=300)

_KINDS = {
    "int": (1, 2, 3),
    "fraction": (Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 4), Fraction(7, 3)),
    # sums of these round, so a changed association would show in the bits
    "float": (0.1, 0.7, 0.9, 1.3, 2.1),
}


def _reference_cross(result):
    sx, sy = result.left.space, result.right.space
    flat = [
        (result.radii[lvl], x, y)
        for lvl, cells in enumerate(result.levels)
        for x, y in cells
    ]
    rows = tuple(
        tuple(
            min(sx.dist[i][x] + t + sy.dist[y][j] for t, x, y in flat)
            for j in range(sy.n)
        )
        for i in range(sx.n)
    )
    return CrossMetric(sx, sy, rows)


def _reference_report(result):
    cross = _reference_cross(result)
    terms = tuple(
        _cross_hausdorff(cross.cross, ll, lr)
        for ll, lr in zip(_levels_of(result.left), _levels_of(result.right))
    )
    combined = sum(terms) if result.variant == "sum" else max(terms)
    return {
        "violations": tuple(cross.check(require_positive=False)),
        "zero_cells": tuple(
            (i, j)
            for i, row in enumerate(cross.cross)
            for j, v in enumerate(row)
            if close(v, 0)
        ),
        "terms": terms,
        "combined": combined,
        "value": result.value,
        "achieves_value": close(combined, result.value),
    }


def _same(a, b) -> bool:
    """Equal values; floats only to floats, and to the bit."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()
    return a == b


@st.composite
def _space(draw, kind, n):
    values = _KINDS[kind]
    mat = [[0.0 if kind == "float" else 0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from(values))
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                if mat[i][mid] + mat[mid][j] < mat[i][j]:
                    mat[i][j] = mat[i][mid] + mat[mid][j]
    return FiniteMetricSpace.from_matrix(mat)


@st.composite
def _chain(draw, n, links):
    chain = []
    current = list(range(n))
    for _ in range(links):
        size = draw(st.integers(min_value=1, max_value=len(current)))
        current = sorted(draw(st.permutations(current))[:size])
        chain.append(tuple(current))
    return tuple(chain)


@st.composite
def _results(draw):
    """Solved pairs (one or two levels) and tuples of up to three links,
    on int, Fraction and float spaces and mixes of them with int ones,
    in both variants."""
    kind_l = draw(st.sampled_from(sorted(_KINDS)))
    kind_r = draw(st.sampled_from((kind_l, "int")))
    links = draw(st.integers(min_value=1, max_value=3))
    sides = []
    for kind in (kind_l, kind_r):
        n = draw(st.integers(min_value=1, max_value=4 if links == 1 else 3))
        space = draw(_space(kind, n))
        chain = draw(_chain(n, links))
        sides.append(MetricPair(space, chain[0]) if links == 1 else MetricTuple(space, chain))
    left, right = sides
    levels_l, levels_r = _levels_of(left), _levels_of(right)
    full = levels_l[1] == levels_l[0] and levels_r[1] == levels_r[0]
    if links == 1 and full and draw(st.booleans()):
        levels_l, levels_r = levels_l[:1], levels_r[:1]
    variant = draw(st.sampled_from(("sum", "max")))
    return _solve(left, right, variant, levels_l, levels_r, 10**7)


@_BOUNDED
@given(_results())
def test_cross_matches_the_flat_minimum(result):
    got = result.cross().cross
    want = _reference_cross(result).cross
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        assert len(row_got) == len(row_want)
        assert all(_same(a, b) for a, b in zip(row_got, row_want))


@_BOUNDED
@given(_results())
def test_certificate_report_matches_the_flat_reference(result):
    got = result.certificate_report()
    want = _reference_report(result)
    assert got.keys() == want.keys()
    for key in ("violations", "zero_cells", "achieves_value"):
        assert got[key] == want[key]
    assert got["violations"] == ()
    assert got["achieves_value"]
    assert all(_same(a, b) for a, b in zip(got["terms"], want["terms"]))
    assert len(got["terms"]) == len(want["terms"])
    assert _same(got["combined"], want["combined"])

