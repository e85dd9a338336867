"""The metric checks against reference copies of their direct loops.

``validate_metric`` and ``CrossMetric.check`` compare exact input on one
integer scale.  The references below compare the entries as given, so any
disagreement in a report, a returned space, an error or a float rounding
shows up here.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.scalars import tolerance_for
from metricpairs.spaces import (
    CrossMetric,
    FiniteMetricSpace,
    MetricViolations,
    validate_metric,
)

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=300)

_KINDS = ("int", "fraction", "exact", "float", "mixed")
_INT = st.integers(min_value=0, max_value=6)
_FRACTION = st.fractions(min_value=0, max_value=6, max_denominator=12)


def _entries(kind):
    """Entry strategy: int, Fraction, both ("exact"), float, or float
    among exact values ("mixed"); floats are tenths, whose sums round."""
    if kind == "int":
        return _INT
    if kind == "fraction":
        return _FRACTION
    if kind == "exact":
        return st.one_of(_INT, _FRACTION)
    tenths = st.integers(min_value=0, max_value=60).map(lambda k: k / 10)
    if kind == "float":
        return tenths
    return st.one_of(_INT, _FRACTION, tenths)


@st.composite
def _square(draw, kind, max_n=6):
    """A symmetric matrix, often closed under shortest paths, with a few
    one-sided bumps that break symmetry, the diagonal, positivity or the
    triangle inequality, or make an entry negative."""
    entries = _entries(kind)
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entries)
    if draw(st.booleans()):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if m[i][k] + m[k][j] < m[i][j]:
                        m[i][j] = m[i][k] + m[k][j]
    index = st.integers(min_value=0, max_value=n - 1)
    bump = st.one_of(entries, st.just(-1))
    for i, j, v in draw(st.lists(st.tuples(index, index, bump), max_size=3)):
        m[i][j] = m[i][j] + v
    return m


_TOL = st.one_of(
    st.none(),
    st.just(0),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.sampled_from((0.0, 1e-9, 0.25)),
)


def _reference_validate(matrix, labels=None, tol=None):
    """Symmetry and the diagonal checked on the matrix as given, the rest
    on its canonical form, which the space stores: each lower entry that
    differs from its upper mirror replaced by it, and the diagonal the
    entries' zero (0.0 when one is a float) where it is nonzero or the
    matrix holds a float."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if tol is None:
        tol = tolerance_for(v for row in matrix for v in row)
    for i in range(n):
        for j in range(n):
            if matrix[i][j] < -tol:
                raise ValueError(f"negative entry at ({i}, {j})")
    asymmetric = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(matrix[i][j] - matrix[j][i]) > tol
    )
    diagonal = tuple(i for i in range(n) if abs(matrix[i][i]) > tol)
    floats = any(isinstance(v, float) for row in matrix for v in row)
    zero = 0.0 if floats else 0
    canonical = [list(row) for row in matrix]
    for i in range(n):
        for j in range(n):
            if i > j and matrix[i][j] != matrix[j][i]:
                canonical[i][j] = matrix[j][i]
            if i == j and (floats or matrix[i][i] != 0):
                canonical[i][i] = zero
    matrix = canonical
    nonpositive = tuple(
        (i, j) for i in range(n) for j in range(n) if i != j and matrix[i][j] <= tol
    )
    triangles = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j == i or j == k:
                    continue
                if matrix[i][k] > matrix[i][j] + matrix[j][k] + tol:
                    triangles.append((i, j, k))
    report = MetricViolations(n, asymmetric, diagonal, nonpositive, tuple(triangles))
    if not report.ok:
        return report
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in matrix))


def _reference_check(cross, require_positive=True):
    dx, dy, c = cross.left.dist, cross.right.dist, cross.cross
    nl, nr = cross.left.n, cross.right.n
    tol = tolerance_for([v for m in (c, dx, dy) for row in m for v in row])
    bad = []
    for i in range(nl):
        for j in range(nr):
            if c[i][j] < -tol or (require_positive and c[i][j] <= tol):
                bad.append(("positivity", i, j))
    for i in range(nl):
        for i2 in range(nl):
            if i == i2:
                continue
            for j in range(nr):
                if c[i][j] > dx[i][i2] + c[i2][j] + tol:
                    bad.append(("left-cross", i, i2, j))
        for i2 in range(i + 1, nl):
            for j in range(nr):
                if dx[i][i2] > c[i][j] + c[i2][j] + tol:
                    bad.append(("left-lower", i, i2, j))
    for j in range(nr):
        for j2 in range(nr):
            if j == j2:
                continue
            for i in range(nl):
                if c[i][j] > dy[j][j2] + c[i][j2] + tol:
                    bad.append(("right-cross", i, j, j2))
        for j2 in range(j + 1, nr):
            for i in range(nl):
                if dy[j][j2] > c[i][j] + c[i][j2] + tol:
                    bad.append(("right-lower", i, j, j2))
    return bad


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(result, FiniteMetricSpace):
        # the space must hold the given entries, not rescaled ones
        return result, [[type(v) for v in row] for row in result.dist]
    return result


@_BOUNDED
@given(st.sampled_from(_KINDS).flatmap(_square), _TOL)
def test_validate_metric_matches_the_reference(matrix, tol):
    assert _outcome(validate_metric, matrix, tol=tol) == _outcome(
        _reference_validate, matrix, tol=tol
    )


@_BOUNDED
@given(
    st.sampled_from(_KINDS).flatmap(_square),
    st.sampled_from((None, 0, Fraction(1, 4), 0.25)),
    st.data(),
)
def test_every_validated_space_is_symmetric_with_a_zero_diagonal(matrix, tol, data):
    """Also when each entry, the diagonal included, is moved up by half
    the tolerance or not at all; a space that holds a float has 0.0 on
    its diagonal."""
    moves = (0, tol / 2) if tol else (0,)
    matrix = [[v + data.draw(st.sampled_from(moves)) for v in row] for row in matrix]
    try:
        space = validate_metric(matrix, tol=tol)
    except ValueError:  # a negative entry
        return
    if not isinstance(space, FiniteMetricSpace):
        return
    d = space.dist
    floats = any(isinstance(v, float) for row in matrix for v in row)
    assert all(v == w for row, col in zip(d, zip(*d)) for v, w in zip(row, col))
    assert all(row[i] == 0 and (isinstance(row[i], float) or not floats) for i, row in enumerate(d))


@pytest.mark.parametrize("tol", [None, 0, Fraction(1, 4), 0.25])
@pytest.mark.parametrize(
    "matrix",
    [
        [[0, Fraction(1)], [1, 0]],
        [[Fraction(0), 2, Fraction(3, 2)], [2, 0, 1], [Fraction(3, 2), 1, Fraction(0)]],
        [[0.0, 1.5, 1], [1.5, 0.0, Fraction(1)], [1, 1, 0.0]],
    ],
)
def test_canonical_input_comes_back_entry_for_entry(matrix, tol):
    space = validate_metric(matrix, tol=tol)
    assert [[(v, type(v)) for v in row] for row in space.dist] == [
        [(v, type(v)) for v in row] for row in matrix
    ]


@st.composite
def _cross(draw):
    kind = draw(st.sampled_from(_KINDS))
    dx = draw(_square(kind, max_n=4))
    dy = draw(_square(kind, max_n=4))
    entries = _entries(kind)
    block = [[draw(entries) for _ in dy] for _ in dx]
    left = FiniteMetricSpace(tuple(str(i) for i in range(len(dx))), dx)
    right = FiniteMetricSpace(tuple(str(j) for j in range(len(dy))), dy)
    return CrossMetric(left, right, block)


@_BOUNDED
@given(_cross(), st.booleans())
def test_cross_check_matches_the_reference(cross, require_positive):
    assert cross.check(require_positive) == _reference_check(cross, require_positive)


def test_float_tolerance_keeps_exact_input_on_the_float_path():
    # 1/3 + 1/3 + 0.0 rounds to a float below 2/3, so with a float
    # tolerance this exact matrix reports a triangle it satisfies exactly
    third = Fraction(1, 3)
    matrix = [[0, 2 * third, third], [2 * third, 0, third], [third, third, 0]]
    assert isinstance(validate_metric(matrix, tol=0), FiniteMetricSpace)
    assert validate_metric(matrix, tol=0.0).triangles == ((0, 2, 1),)


def test_float_sums_keep_their_operand_order():
    # c is the float sum 0.1 + 0.2 + 1e-9 taken left to right; summed as
    # 0.1 + (0.2 + 1e-9) it rounds lower and c would break the triangle
    c = 0.1 + 0.2 + 1e-9
    matrix = [[0.0, c, 0.1], [c, 0.0, 0.2], [0.1, 0.2, 0.0]]
    assert isinstance(validate_metric(matrix), FiniteMetricSpace)
