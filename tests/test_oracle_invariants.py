"""Invariants of the exact pair distance on random pairs of up to 5 points.

Each property draws a seed and builds its pairs with the library's own
generators, so a failing example is reproduced by the seed alone.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.bounds import gh_bounds
from metricpairs.generators import random_pair, random_permuted_pair
from metricpairs.oracle import exact_pair_gh

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=200)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)
# far above what any pair of at most 5 points needs, so nothing is refused
_BUDGET = 10**7


def _pairs(seed: int):
    rng = random.Random(seed)
    left = random_pair(rng, (1, 5), (1, 2, 3, 4))
    right = random_pair(rng, (1, 5), (1, 2, 3, 4))
    return rng, left, right


def _exact(left, right):
    return exact_pair_gh(left, right, budget=_BUDGET, cache=False).value


@_BOUNDED
@given(_SEED)
def test_bounds_contain_the_exact_value(seed):
    _, left, right = _pairs(seed)
    interval = gh_bounds(left, right)
    assert interval.lower <= _exact(left, right) <= interval.upper


@_BOUNDED
@given(_SEED)
def test_exact_value_is_symmetric(seed):
    _, left, right = _pairs(seed)
    assert _exact(left, right) == _exact(right, left)


@_BOUNDED
@given(_SEED)
def test_exact_value_ignores_relabelling(seed):
    rng, left, right = _pairs(seed)
    value = _exact(left, right)
    assert _exact(random_permuted_pair(rng, left), right) == value
    assert _exact(left, random_permuted_pair(rng, right)) == value
