from __future__ import annotations

import random

import pytest

from metricpairs.families import (
    enumerate_family,
    enumerate_spaces,
    family_iso_classes,
    pairs_isometric,
)
from metricpairs.generators import random_pair, random_permuted_pair
from metricpairs.spaces import FiniteMetricSpace, MetricPair


def test_enumerate_spaces_counts():
    """With distances drawn from {1, 2, 3} there are 3 labelled doubletons
    and 24 labelled three-point spaces (27 candidates minus the 3 that
    break a triangle inequality)."""
    assert len(enumerate_spaces(1)) == 1
    assert len(enumerate_spaces(2)) == 3
    assert len(enumerate_spaces(3)) == 24


def test_enumerate_family_size_and_classes():
    """Frozen family: spaces of at most 3 points with every nonempty
    subset give 178 labelled pairs in 48 isomorphism classes."""
    family = enumerate_family()
    assert len(family) == 178
    assert all(isinstance(p, MetricPair) for p in family)
    classes = family_iso_classes(family)
    assert len(classes) == 48
    assert sum(len(cls) for cls in classes) == 178


def test_family_members_are_distinct():
    family = enumerate_family()
    seen = {(p.space.dist, p.subset) for p in family}
    assert len(seen) == len(family)


def test_pairs_isometric_reflexive_and_permutation_invariant():
    rng = random.Random(100)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 4))
        assert pairs_isometric(pair, pair)
        moved = random_permuted_pair(rng, pair)
        assert pairs_isometric(pair, moved)
        assert pairs_isometric(moved, pair)


def test_pairs_isometric_detects_differences():
    two = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    wide = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    assert not pairs_isometric(MetricPair(two, (0,)), MetricPair(wide, (0,)))
    # Same space, different subset sizes.
    assert not pairs_isometric(MetricPair(two, (0,)), MetricPair(two, (0, 1)))
    # Different sizes entirely.
    one = FiniteMetricSpace.from_matrix([[0]])
    assert not pairs_isometric(MetricPair(two, (0,)), MetricPair(one, (0,)))


def test_iso_classes_group_only_isometric_pairs():
    family = enumerate_family(max_n=2)
    classes = family_iso_classes(family)
    for cls in classes:
        for a in cls:
            for b in cls:
                assert pairs_isometric(family[a], family[b])
    for i, cls_a in enumerate(classes):
        for cls_b in classes[i + 1 :]:
            assert not pairs_isometric(family[cls_a[0]], family[cls_b[0]])


def _full_pair(n):
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return MetricPair(FiniteMetricSpace.from_matrix(rows), tuple(range(n)))


# one call per input guard, with the message it raises
_GUARDS = {
    "enumerate_spaces no points": (lambda: enumerate_spaces(0), "need at least one point"),
    "pairs_isometric past eight points": (
        lambda: pairs_isometric(_full_pair(9), _full_pair(9)),
        "isometry search limited to eight points",
    ),
    "family_iso_classes past the canonical size": (
        lambda: family_iso_classes([_full_pair(7)]),
        "pair too large to canonicalize",
    ),
}


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_families_refuse_bad_input(name):
    call, message = _GUARDS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
