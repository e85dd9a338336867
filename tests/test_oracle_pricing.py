"""Assignment pricing of the radius program and the tuple search built on it."""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import islice, product

from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.generators import random_tuple
from metricpairs.oracle import (
    _assignment_value2,
    _levels_of,
    exact_tuple_gh,
    radius_lp,
    witness_entries,
    witness_reduced_value,
)
from metricpairs.spaces import FiniteMetricSpace, MetricTuple

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=120)

_ENTRY = st.fractions(min_value=0, max_value=6, max_denominator=6)


@st.composite
def _mismatch(draw):
    nlev = draw(st.integers(min_value=1, max_value=5))
    m = [[Fraction(0)] * nlev for _ in range(nlev)]
    for a in range(nlev):
        for b in range(a, nlev):
            m[a][b] = m[b][a] = draw(_ENTRY)
    return m


@_BOUNDED
@given(_mismatch())
def test_assignment_value_equals_radius_program(m):
    assert _assignment_value2(m) == radius_lp(m)[0]


@_BOUNDED
@given(_mismatch(), st.data())
def test_assignment_value_monotone_in_every_entry(m, data):
    nlev = len(m)
    a = data.draw(st.integers(min_value=0, max_value=nlev - 1))
    b = data.draw(st.integers(min_value=0, max_value=nlev - 1))
    raised = [row[:] for row in m]
    raised[a][b] = raised[b][a] = m[a][b] + data.draw(_ENTRY)
    assert _assignment_value2(raised) >= _assignment_value2(m)


def _map_count(left, right):
    """Number of witness map families, prod |B|^|A| * |A|^|B| over levels.

    Only filters instances to small ones; the oracle's budget counts the
    nodes its search visits instead.
    """
    total = 1
    for ll, lr in zip(_levels_of(left), _levels_of(right)):
        total *= len(lr) ** len(ll) * len(ll) ** len(lr)
    return total


def _all_maps(left, right):
    """Every witness map family [(to_right, to_left), ...] over all levels."""
    per_level = []
    for ll, lr in zip(_levels_of(left), _levels_of(right)):
        per_level.append(
            [
                (dict(zip(ll, fwd)), dict(zip(lr, back)))
                for fwd in product(lr, repeat=len(ll))
                for back in product(ll, repeat=len(lr))
            ]
        )
    return product(*per_level)


def _brute_force(left, right, variant):
    """Minimum of the reduced value over all maps, priced once per entry set."""
    seen = set()
    best = None
    for maps in _all_maps(left, right):
        cells = tuple(frozenset(lv) for lv in witness_entries(left, right, maps))
        if cells in seen:
            continue
        seen.add(cells)
        value = witness_reduced_value(left, right, list(maps), variant)[0]
        if best is None or value < best:
            best = value
    return best


def test_tuple_search_matches_brute_force_over_witness_maps():
    rng = random.Random(71)
    checked = 0
    while checked < 20:
        k = rng.choice((2, 3))
        left = random_tuple(rng, k, n_range=(2, 3))
        right = random_tuple(rng, k, n_range=(2, 3))
        if _map_count(left, right) > 1500:
            continue
        for variant in ("sum", "max"):
            assert exact_tuple_gh(left, right, variant=variant).value == _brute_force(
                left, right, variant
            )
        checked += 1


def test_tuple_witnesses_match_recorded_digest():
    """Pruning must not change which optimal witness is found first.

    The digest covers the as_dict JSON of 40 small 3- and 4-level tuple
    solves, recorded when every leaf was priced by the simplex.  Ordering
    children by the assignment value instead changes 10 of them.
    """
    rng = random.Random(73)
    digest = hashlib.sha256()
    solved = 0
    while solved < 40:
        k = rng.choice((2, 3))
        left = random_tuple(rng, k, n_range=(2, 3))
        right = random_tuple(rng, k, n_range=(2, 3))
        if _map_count(left, right) > 20000:
            continue
        digest.update(json.dumps(exact_tuple_gh(left, right).as_dict()).encode())
        solved += 1
    assert digest.hexdigest() == (
        "31de4eaeeaeeb2d2f5d27fc80ba3067cc1b7460e8a3de8c3995363585b8ffbed"
    )


_FLOAT_SPACE = [[0.0, 0.7, 1.3], [0.7, 0.0, 0.9], [1.3, 0.9, 0.0]]


def _float_tuples():
    tl = MetricTuple(FiniteMetricSpace.from_matrix(_FLOAT_SPACE), ((0, 1, 2), (0, 1)))
    tr = MetricTuple(FiniteMetricSpace.from_matrix([[0.0, 2.1], [2.1, 0.0]]), ((0, 1), (0,)))
    return tl, tr


def test_float_tuple_returns_float_value_and_radii():
    tl, tr = _float_tuples()
    result = exact_tuple_gh(tl, tr)
    assert isinstance(result.value, float)
    assert all(isinstance(r, float) for r in result.radii)
    payload = result.as_dict()
    assert not any(isinstance(v, str) for v in [payload["value"], *payload["radii"]])
    assert abs(sum(result.radii) - result.value) <= 1e-9
    assert result.certificate_report()["achieves_value"]

    exact_l = FiniteMetricSpace.from_matrix([[Fraction(v) for v in row] for row in _FLOAT_SPACE])
    exact_r = FiniteMetricSpace.from_matrix([[0, Fraction(2.1)], [Fraction(2.1), 0]])
    exact = exact_tuple_gh(MetricTuple(exact_l, tl.chain), MetricTuple(exact_r, tr.chain))
    assert abs(float(exact.value) - result.value) <= 1e-9


def test_float_witness_value_and_radii_are_floats_at_three_levels():
    """Fixed witnesses of float tuples price like the search: in floats."""
    tl, tr = _float_tuples()
    optimum = exact_tuple_gh(tl, tr).value
    for maps in islice(_all_maps(tl, tr), 0, None, 97):
        value, radii = witness_reduced_value(tl, tr, list(maps))
        assert isinstance(value, float)
        assert all(isinstance(r, float) for r in radii)
        assert abs(sum(radii) - value) <= 1e-9
        assert value >= optimum - 1e-9
