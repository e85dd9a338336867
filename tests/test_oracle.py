from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from metricpairs.correspondences import brute_force_min_distortion
from metricpairs.families import enumerate_family, family_iso_classes
from metricpairs.generators import (
    random_pair,
    random_permuted_pair,
    random_space,
    random_subset,
)
from metricpairs.lp import solve_lp
from metricpairs.oracle import (
    BudgetExceededError,
    build_witness_lp,
    canonical_pair_key,
    exact_pair_gh,
    exact_pair_gh_max,
    exact_tuple_gh,
    witness_entries,
    witness_reduced_value,
)
from metricpairs.spaces import FiniteMetricSpace, MetricPair, MetricTuple


def _pair(matrix, subset):
    return MetricPair(FiniteMetricSpace.from_matrix(matrix), subset)


def _point_pair():
    return _pair([[0]], (0,))


def test_identical_pairs_have_distance_zero():
    pair = _pair([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 1))
    result = exact_pair_gh(pair, pair)
    assert result.value == 0
    assert result.certificate_report()["achieves_value"]


def test_two_point_versus_point_known_value():
    """Frozen probe: diameter-2 doubleton with singleton subset against a
    one-point pair.  Both Hausdorff terms cost 1, so the sum is 2."""
    left = _pair([[0, 2], [2, 0]], (0,))
    result = exact_pair_gh(left, _point_pair())
    assert result.value == 2
    assert result.radii == (1, 1)

    result_max = exact_pair_gh_max(left, _point_pair())
    assert result_max.value == 1


def test_certificate_achieves_value():
    rng = random.Random(50)
    for _ in range(40):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        for compute in (exact_pair_gh, exact_pair_gh_max):
            result = compute(left, right)
            report = result.certificate_report()
            assert report["violations"] == ()
            assert report["achieves_value"]
            assert report["value"] == result.value


def test_float_zero_cells_use_the_tolerance():
    """A float pair against a copy whose distance is 0.1 + 0.2 instead of
    0.3: the glued cells differ from 0 only by rounding, so they count
    as zero cells just as for the identical copy."""
    left = _pair([[0, 0.3], [0.3, 0]], (0, 1))
    for d in (0.3, 0.1 + 0.2):
        right = _pair([[0, d], [d, 0]], (0, 1))
        report = exact_pair_gh(left, right).certificate_report()
        assert report["zero_cells"] == ((0, 0), (1, 1))
        assert report["achieves_value"]


def _has_exact_string(payload) -> bool:
    if isinstance(payload, dict):
        return any(_has_exact_string(v) for v in payload.values())
    if isinstance(payload, list):
        return any(_has_exact_string(v) for v in payload)
    return isinstance(payload, str) and payload not in ("sum", "max")


def test_float_zero_results_stay_floats():
    """A float operand against itself has value zero; it must print as the
    float 0.0, not as the exact string "0", in pairs, tuples and fixed
    witnesses alike."""
    pair = _pair([[0.0, 1.3], [1.3, 0.0]], (0,))
    result = exact_pair_gh(pair, pair)
    assert isinstance(result.value, float) and result.value == 0.0
    assert not _has_exact_string(result.as_dict())

    space = FiniteMetricSpace.from_matrix([[0.0, 0.7, 1.3], [0.7, 0.0, 0.9], [1.3, 0.9, 0.0]])
    tup = MetricTuple(space, ((0, 1, 2), (0, 1), (0,)))
    result = exact_tuple_gh(tup, tup)
    assert len(result.radii) == 4
    assert isinstance(result.value, float) and result.value == 0.0
    assert not _has_exact_string(result.as_dict())

    ident = {0: 0, 1: 1, 2: 2}
    maps = [(ident, ident)] * 2 + [({0: 0, 1: 1}, {0: 0, 1: 1}), ({0: 0}, {0: 0})]
    value, radii = witness_reduced_value(tup, tup, maps)
    assert all(isinstance(v, float) and v == 0.0 for v in (value, *radii))


def test_cross_metric_is_admissible_up_to_zero_cells():
    rng = random.Random(51)
    for _ in range(30):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        result = exact_pair_gh(left, right)
        assert result.cross().check(require_positive=False) == []


def test_value_sandwiched_by_correspondence_quantities():
    """Against exhaustive relation enumeration the sum value sits between
    half the best averaged distortion doubled and the best full sup."""
    rng = random.Random(52)
    for _ in range(25):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        value = exact_pair_gh(left, right).value
        best_avg = brute_force_min_distortion(left, right).breakdown.value
        best_sup = brute_force_min_distortion(
            left, right, objective="sup_full"
        ).breakdown.sup_full
        assert 2 * value >= best_avg
        assert value <= best_sup


def test_value_equals_best_sup_when_subsets_are_full():
    """With both subsets equal to the whole spaces the two Hausdorff terms
    coincide, and the sum value equals the best full sup exactly."""
    rng = random.Random(65)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        left = MetricPair(left.space, tuple(range(left.space.n)))
        right = MetricPair(right.space, tuple(range(right.space.n)))
        value = exact_pair_gh(left, right).value
        best_sup = brute_force_min_distortion(
            left, right, objective="sup_full"
        ).breakdown.sup_full
        assert value == best_sup


def test_max_variant_matches_sup_oracle():
    """The max variant equals half the best sup over all correspondences."""
    rng = random.Random(53)
    for _ in range(25):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        result = exact_pair_gh_max(left, right)
        best = brute_force_min_distortion(left, right, objective="sup_full")
        assert 2 * result.value == best.breakdown.sup_full


def test_sandwich_between_variants():
    rng = random.Random(54)
    for _ in range(30):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        s = exact_pair_gh(left, right).value
        m = exact_pair_gh_max(left, right).value
        assert m <= s <= 2 * m


def test_symmetry():
    rng = random.Random(55)
    for _ in range(20):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        assert (
            exact_pair_gh(left, right).value
            == exact_pair_gh(right, left).value
        )


def test_zero_iff_isomorphic():
    rng = random.Random(56)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 4))
        permuted = random_permuted_pair(rng, pair)
        assert exact_pair_gh(pair, permuted, budget=10**8).value == 0
    from metricpairs.families import pairs_isometric

    for _ in range(30):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        value = exact_pair_gh(left, right).value
        assert (value == 0) == pairs_isometric(left, right)


def test_triangle_inequality_over_pairs():
    rng = random.Random(57)
    for _ in range(15):
        a = random_pair(rng, n_range=(1, 3))
        b = random_pair(rng, n_range=(1, 3))
        c = random_pair(rng, n_range=(1, 3))
        ab = exact_pair_gh(a, b).value
        bc = exact_pair_gh(b, c).value
        ac = exact_pair_gh(a, c).value
        assert ac <= ab + bc


def test_witness_reduction_matches_full_lp():
    """Closed-form witness values equal the simplex optimum of the full
    cross-metric program for the same witness maps."""
    rng = random.Random(58)
    for _ in range(40):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        maps = []
        for la, ra in ((range(left.space.n), range(right.space.n)),
                       (left.subset, right.subset)):
            la, ra = list(la), list(ra)
            fwd = {i: rng.choice(ra) for i in la}
            back = {j: rng.choice(la) for j in ra}
            maps.append((fwd, back))
        value, radii = witness_reduced_value(left, right, maps)
        assert sum(radii) == value
        full = solve_lp(build_witness_lp(left, right, maps))
        assert full.status == "optimal"
        assert value == full.value


def test_witness_entries_from_maps():
    left = _pair([[0, 2], [2, 0]], (0,))
    right = _point_pair()
    maps = [({0: 0, 1: 0}, {0: 0}), ({0: 0}, {0: 0})]
    entries = witness_entries(left, right, maps)
    assert len(entries) == 2
    # Level 0: two forward cells plus one backward cell.
    assert entries[0] == ((0, 0), (1, 0), (0, 0))
    assert entries[1] == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        witness_entries(left, right, maps[:1])
    with pytest.raises(ValueError):
        witness_entries(left, right, [maps[0], ({0: 1}, {0: 0})])


def test_shortcut_agrees_with_full_search():
    """Pairs whose subset is the whole space reduce to a single-level
    search; the reduced value and radii must match the unshortened ones,
    and both witnesses must certify the common value."""
    rng = random.Random(60)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        left = MetricPair(left.space, tuple(range(left.space.n)))
        right = MetricPair(right.space, tuple(range(right.space.n)))
        for compute in (exact_pair_gh, exact_pair_gh_max):
            fast = compute(left, right, shortcut=True)
            slow = compute(left, right, shortcut=False)
            assert fast.value == slow.value
            assert fast.radii == slow.radii
            for result in (fast, slow):
                report = result.certificate_report()
                assert report["violations"] == ()
                assert report["achieves_value"]


def _searched(compute, left, right) -> dict:
    """A pair solve's reference answer: the tuple search of the same
    operands, which takes the pair's search path without the shortcut."""
    variant = "max" if compute is exact_pair_gh_max else "sum"
    return exact_tuple_gh(left.as_tuple(), right.as_tuple(), variant=variant).as_dict()


def test_pair_answers_depend_only_on_their_operands():
    """A pair solve answers as the search of its own operands does, whatever
    was solved before it: a relabelled copy after the original, the full
    search after the shortcut on the same operands, and exact distances
    after the same numbers as floats."""
    rng = random.Random(28)
    for _ in range(25):
        n = rng.randint(2, 4)
        left, right = (
            MetricPair(random_space(rng, n), random_subset(rng, n, rng.randint(1, n - 1)))
            for _ in range(2)
        )
        moved_l, moved_r = random_permuted_pair(rng, left), random_permuted_pair(rng, right)
        for compute in (exact_pair_gh, exact_pair_gh_max):
            assert compute(left, right).as_dict() == _searched(compute, left, right)
            assert compute(moved_l, moved_r).as_dict() == _searched(compute, moved_l, moved_r)
    for _ in range(25):
        left, right = (random_pair(rng, n_range=(2, 4)) for _ in range(2))
        left = MetricPair(left.space, tuple(range(left.space.n)))
        right = MetricPair(right.space, tuple(range(right.space.n)))
        for compute in (exact_pair_gh, exact_pair_gh_max):
            compute(left, right, shortcut=True)
            slow = compute(left, right, shortcut=False)
            assert slow.as_dict() == _searched(compute, left, right)
    matrix = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    exact_pair_gh(_pair([[0.0]], (0,)), _pair([[float(v) for v in row] for row in matrix], (0,)))
    left, right = _point_pair(), _pair(matrix, (0,))
    exact = exact_pair_gh(left, right).as_dict()
    assert exact == _searched(exact_pair_gh, left, right)
    assert exact["value"] == "2"


def test_budget_exceeded_raises_with_node_count():
    space = [[0, 1, 1, 1, 1, 1],
             [1, 0, 1, 1, 1, 1],
             [1, 1, 0, 1, 1, 1],
             [1, 1, 1, 0, 1, 1],
             [1, 1, 1, 1, 0, 1],
             [1, 1, 1, 1, 1, 0]]
    pair = _pair(space, tuple(range(6)))
    # twelve witness slots and a leaf: thirteen nodes at the very least
    with pytest.raises(BudgetExceededError) as exc:
        exact_pair_gh(pair, pair, budget=10)
    assert exc.value.nodes > exc.value.budget == 10
    assert "budget" in str(exc.value)
    assert exact_pair_gh(pair, pair, budget=13).value == 0


@pytest.mark.parametrize("n, seed", [(5, 6), (6, 3)])
def test_default_budget_solves_larger_pairs(n, seed):
    """A worst-case count of witness maps refused these pairs outright;
    the search itself needs far fewer nodes than the default budget."""
    rng = random.Random(seed)
    left = random_pair(rng, n_range=(n, n))
    right = random_pair(rng, n_range=(n, n))
    assert left.subset != tuple(range(n)) and right.subset != tuple(range(n))
    result = exact_pair_gh(left, right)
    report = result.certificate_report()
    assert report["violations"] == ()
    assert report["achieves_value"]


def test_tuple_single_level_equals_pair():
    rng = random.Random(61)
    for _ in range(25):
        left = random_pair(rng, n_range=(1, 3))
        right = random_pair(rng, n_range=(1, 3))
        pair_value = exact_pair_gh(left, right).value
        tuple_value = exact_tuple_gh(left.as_tuple(), right.as_tuple()).value
        assert pair_value == tuple_value
        pair_max = exact_pair_gh_max(left, right).value
        tuple_max = exact_tuple_gh(
            left.as_tuple(), right.as_tuple(), variant="max"
        ).value
        assert pair_max == tuple_max


def test_tuple_degenerate_chain_scales_single_level():
    """Repeating the full space through the whole chain multiplies the sum
    value by (levels/2) relative to the full-subset pair and leaves the max
    value at half the pair value."""
    rng = random.Random(62)
    for _ in range(10):
        left = random_pair(rng, n_range=(2, 2))
        right = random_pair(rng, n_range=(2, 2))
        full_l = tuple(range(left.space.n))
        full_r = tuple(range(right.space.n))
        base_l = MetricPair(left.space, full_l)
        base_r = MetricPair(right.space, full_r)
        single = exact_pair_gh(base_l, base_r)
        for chain_len in (2, 3, 4):
            tl = MetricTuple(left.space, (full_l,) * chain_len)
            tr = MetricTuple(right.space, (full_r,) * chain_len)
            levels = chain_len + 1
            # five levels of 2x2 witnesses once took up to 10 827 nodes;
            # the lookahead brings them well inside the default budget
            rep = exact_tuple_gh(tl, tr)
            assert rep.value == Fraction(levels, 2) * single.value
            rep_max = exact_tuple_gh(tl, tr, variant="max")
            assert 2 * rep_max.value == single.value


def test_tuple_three_levels_certified():
    space = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    tl = MetricTuple(FiniteMetricSpace.from_matrix(space), ((0, 1, 2), (0, 1)))
    tr = MetricTuple(FiniteMetricSpace.from_matrix([[0, 3], [3, 0]]), ((0, 1), (0,)))
    result = exact_tuple_gh(tl, tr)
    assert len(result.radii) == 3
    assert len(result.levels) == 3
    assert sum(result.radii) == result.value
    report = result.certificate_report()
    assert report["achieves_value"]
    assert report["violations"] == ()
    # the witness itself is pinned: a change of search order shows up here
    assert json.dumps(result.as_dict()) == (
        '{"variant": "sum", "value": "3", "radii": ["1", "1", "1"], '
        '"levels": [[[0, 0], [0, 0], [1, 0], [2, 1], [2, 1]], '
        '[[0, 0], [0, 0], [1, 0], [2, 1], [2, 1]], [[0, 0], [0, 0], [1, 0]]], '
        '"mismatch": [["2", "2", "2"], ["2", "2", "2"], ["2", "2", "1"]]}'
    )

    capped = exact_tuple_gh(tl, tr, variant="max")
    assert capped.value <= result.value <= 3 * capped.value


def test_tuple_rejects_mismatched_chains():
    two = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    a = MetricTuple(two, ((0, 1),))
    b = MetricTuple(two, ((0, 1), (0,)))
    with pytest.raises(ValueError):
        exact_tuple_gh(a, b)
    with pytest.raises(ValueError):
        exact_tuple_gh(a, a, variant="median")


def test_result_levels_are_sorted_and_cover():
    rng = random.Random(63)
    for _ in range(15):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        result = exact_pair_gh(left, right)
        for level in result.levels:
            assert list(level) == sorted(level)
        covered_x = {x for x, _ in result.levels[0]}
        covered_y = {y for _, y in result.levels[0]}
        assert covered_x == set(range(left.space.n))
        assert covered_y == set(range(right.space.n))
        sub_x = {x for x, _ in result.levels[1]}
        sub_y = {y for _, y in result.levels[1]}
        assert sub_x == set(left.subset)
        assert sub_y == set(right.subset)


def test_canonical_pair_key_invariant_under_relabeling():
    rng = random.Random(64)
    for _ in range(30):
        pair = random_pair(rng, n_range=(2, 5))
        permuted = random_permuted_pair(rng, pair)
        enc_a, _ = canonical_pair_key(pair)
        enc_b, _ = canonical_pair_key(permuted)
        assert enc_a == enc_b
    big = random_pair(rng, n_range=(7, 7))
    assert canonical_pair_key(big) is None


def _full_scan_key(pair):
    """Relabel-minimal encoding over all n! permutations, in order."""
    n = pair.space.n
    subset = set(pair.subset)
    dist = pair.space.dist
    best = None
    for perm in permutations(range(n)):
        flags = tuple(1 if perm[i] in subset else 0 for i in range(n))
        rows = tuple(tuple(dist[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        enc = (n, flags, rows)
        if best is None or enc < best[0]:
            best = (enc, perm)
    return best


def test_canonical_pair_key_matches_the_full_scan():
    """Scanning only the flag-minimal permutations finds the same
    encoding and the same first minimizing permutation."""
    for pair in enumerate_family():
        assert canonical_pair_key(pair) == _full_scan_key(pair)
    rng = random.Random(65)
    for n in (5, 5, 5, 6, 6):
        pair = random_pair(rng, n_range=(n, n), values=(1, 2))
        assert canonical_pair_key(pair) == _full_scan_key(pair)
    for n in (5, 6):
        # a symmetric space: many permutations tie on the encoding
        space = FiniteMetricSpace.from_matrix(
            [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        )
        pair = MetricPair(space, (1, 3))
        assert canonical_pair_key(pair) == _full_scan_key(pair)


def _product_scan_key(pair):
    """Every permutation of the points outside the subset followed by every
    permutation of the subset, in lexicographic order: the scan the pruned
    key must agree with, encoding and permutation alike."""
    n = pair.space.n
    inside = pair.subset
    outside = tuple(i for i in range(n) if i not in inside)
    flags = (0,) * len(outside) + (1,) * len(inside)
    dist = pair.space.dist
    best = None
    for head, tail in product(permutations(outside), permutations(inside)):
        perm = head + tail
        rows = tuple(tuple(map(dist[i].__getitem__, perm)) for i in perm)
        enc = (n, flags, rows)
        if best is None or enc < best[0]:
            best = (enc, perm)
    return best


def _exact_hard_pairs():
    """Every pair operand of the first 800 ``exact_hard`` benchmark cases,
    the correspondences' sides included."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    pairs = []
    for index in range(800):
        kind, operands = instances.exact_hard_case(index)
        if kind in ("pair5", "pair6"):
            pairs.extend(operands)
        elif kind == "audit":
            pairs.extend((operands[0].left, operands[0].right))
    return pairs


def _within_tolerance(rng, pair):
    """A float copy of ``pair`` from a matrix whose entries are moved by
    less than the float tolerance: asymmetric and with a nonzero diagonal
    as given, validated to a symmetric space with ties that only the
    last bits break."""
    rows = [
        [float(v) + rng.choice((0.0, 1e-10, 2e-10)) for v in row]
        for row in pair.space.dist
    ]
    return MetricPair(FiniteMetricSpace.from_matrix(rows), pair.subset)


def _key_corpus():
    pairs = _exact_hard_pairs()
    rng = random.Random(66)
    for values in (
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 2, 3, 4, 5, 6),
        (Fraction(1, 2), 1, Fraction(3, 2)),
        (1.0, 1.5, 2.0),
    ):
        for _ in range(400):
            pair = random_pair(rng, n_range=(1, 6), values=values)
            n = pair.space.n
            pairs.append(pair)
            pairs.append(MetricPair(pair.space, range(n)))
            pairs.append(MetricPair(pair.space, (rng.randrange(n),)))
    for _ in range(300):
        pairs.append(_within_tolerance(rng, random_pair(rng, n_range=(1, 6))))
    for n in range(1, 7):
        # all distances equal: nothing is pruned
        space = FiniteMetricSpace.from_matrix(
            [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        )
        for subset in {tuple(range(n)), (0,), (n - 1,), tuple(range(0, n, 2))}:
            pairs.append(MetricPair(space, subset))
    return pairs


def test_canonical_pair_key_matches_the_product_scan():
    """Permutations whose first row cannot be least are never scanned;
    the encoding and the first minimizing permutation stay the same."""
    for pair in _key_corpus():
        assert canonical_pair_key(pair) == _product_scan_key(pair)


def test_canonical_pair_key_sees_through_relabelling():
    """A relabelled pair has the same encoding, and its permutation reads
    the canonical flags and rows back off its own subset and distances."""
    rng = random.Random(67)
    for pair in _key_corpus()[::4]:
        relabelled = random_permuted_pair(rng, pair)
        enc, perm = canonical_pair_key(relabelled)
        assert enc == canonical_pair_key(pair)[0]
        n, flags, rows = enc
        dist = relabelled.space.dist
        assert sorted(perm) == list(range(n))
        assert flags == tuple(int(i in relabelled.subset) for i in perm)
        assert rows == tuple(tuple(dist[i][j] for j in perm) for i in perm)


def test_family_iso_classes_match_the_product_scan():
    family = enumerate_family()
    groups: dict = {}
    for idx, pair in enumerate(family):
        groups.setdefault(_product_scan_key(pair)[0], []).append(idx)
    assert family_iso_classes(family) == [groups[k] for k in sorted(groups)]


def test_as_dict_serializes_scalars():
    left = _pair([[0, 2], [2, 0]], (0,))
    result = exact_pair_gh(left, _point_pair())
    payload = result.as_dict()
    assert payload["value"] == "2"
    assert payload["variant"] == "sum"
    assert payload["radii"] == ["1", "1"]


def test_pair_results_match_recorded_digest():
    """Pair witnesses, radii and JSON bytes stay as recorded.

    The digest covers the as_dict JSON of 60 small pair solves, recorded
    before full-subset pairs were certified through the general path:
    full-subset pairs (the one-level shortcut) and proper subsets, sum and
    max, exact and float entries, each pair solved twice and then as a
    relabelled copy.  Re-recorded when float mismatch matrices began to
    start from 0.0 (the six solves of case 7 then print zero entries as
    0.0 instead of "0"), and again when the result cache was deleted:
    until then the second and relabelled solves were answered from it,
    and the digest is now that of every solve searched.
    """
    rng = random.Random(79)
    digest = hashlib.sha256()
    for i in range(10):
        values = (1, 2, 3) if i % 2 == 0 else (0.7, 1.3, 2.1)
        full = i % 4 < 2
        n_range = (2, 4) if full else (1, 3)
        left = random_pair(rng, n_range=n_range, values=values)
        right = random_pair(rng, n_range=n_range, values=values)
        if full:
            left = MetricPair(left.space, tuple(range(left.space.n)))
            right = MetricPair(right.space, tuple(range(right.space.n)))
        moved_l = random_permuted_pair(rng, left)
        moved_r = random_permuted_pair(rng, right)
        for compute in (exact_pair_gh, exact_pair_gh_max):
            for lhs, rhs in ((left, right), (left, right), (moved_l, moved_r)):
                digest.update(json.dumps(compute(lhs, rhs).as_dict()).encode())
    assert digest.hexdigest() == (
        "1cac8b7eda89f2c8ed5ccd474a7948055cb74e1218b47efc479c4a0234ba1d7e"
    )


_TWO = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
_PAIR = MetricPair(_TWO, (0,))
_TUPLE = MetricTuple(_TWO, ((0,),))
_IDENTITY = {0: 0, 1: 1}

# one call per input guard, with the error it raises
_GUARDS = {
    "exact_pair_gh on tuples": (
        lambda: exact_pair_gh(_TUPLE, _TUPLE),
        TypeError,
        "expected MetricPair operands",
    ),
    "exact_tuple_gh on pairs": (
        lambda: exact_tuple_gh(_PAIR, _PAIR),
        TypeError,
        "expected MetricTuple operands",
    ),
    "witness_entries backward map leaves its level": (
        lambda: witness_entries(_PAIR, _PAIR, [(_IDENTITY, _IDENTITY), ({0: 0}, {0: 1})]),
        ValueError,
        "level 1 backward map leaves the source level",
    ),
}


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_oracle_refuses_bad_input(name):
    call, error, message = _GUARDS[name]
    with pytest.raises(error, match=f"^{message}$"):
        call()
