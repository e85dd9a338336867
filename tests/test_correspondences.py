from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from metricpairs import correspondences
from metricpairs.correspondences import (
    CorrespondenceViolations,
    PairCorrespondence,
    TupleCorrespondence,
    UncoveredRelationError,
    brute_force_min_distortion,
    classical_glue,
    default_glue_shift,
    distortion,
    distortion_stability,
    min_distortion,
    tight_glue,
    validate_correspondence,
    validate_tuple_correspondence,
)
from metricpairs.generators import (
    random_correspondence,
    random_pair,
    random_space,
    random_subset,
    random_tuple,
)
from metricpairs.scalars import half
from metricpairs.spaces import (
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    _level_pairs,
    pair_hausdorff,
)


def _two_point(d=1):
    return FiniteMetricSpace.from_matrix([[0, d], [d, 0]])


def _pair(space, subset):
    return MetricPair(space, subset)


_VALUES = ((1, 2, 3), (Fraction(1, 2), Fraction(4, 3), 2), (0.7, 1.3, 2.1))


def test_pair_correspondence_normalizes_and_restricts():
    pair = _pair(_two_point(), (0, 1))
    corr = PairCorrespondence(pair, pair, ((1, 1), (0, 0), (0, 0)))
    assert corr.pairs == ((0, 0), (1, 1))
    assert corr.restricted() == ((0, 0), (1, 1))

    narrow = _pair(_two_point(), (0,))
    corr = PairCorrespondence(narrow, narrow, ((0, 0), (1, 1)))
    assert corr.restricted() == ((0, 0),)


def test_pair_correspondence_rejects_bad_pairs():
    pair = _pair(_two_point(), (0,))
    with pytest.raises(ValueError):
        PairCorrespondence(pair, pair, ())
    with pytest.raises(ValueError):
        PairCorrespondence(pair, pair, ((0, 5),))


def test_validate_correspondence_reports_uncovered():
    pair = _pair(_two_point(), (0, 1))
    report = validate_correspondence(((0, 0),), pair, pair)
    assert isinstance(report, CorrespondenceViolations)
    assert report.uncovered_left == (1,)
    assert report.uncovered_right == (1,)
    assert not report.ok
    assert report.as_dict()["uncovered_left"] == [1]

    good = validate_correspondence(((0, 0), (1, 1)), pair, pair)
    assert isinstance(good, PairCorrespondence)


def test_validate_correspondence_subset_coverage():
    """A relation can cover both spaces yet miss the subset levels: the
    subset points must be related to subset points, not just to anything."""
    space = _two_point()
    left = _pair(space, (0,))
    right = _pair(space, (1,))
    report = validate_correspondence(((0, 0), (1, 1)), left, right)
    assert isinstance(report, CorrespondenceViolations)
    assert report.uncovered_subset_left == (0,)
    assert report.uncovered_subset_right == (1,)

    good = validate_correspondence(((0, 1), (1, 0)), left, right)
    assert isinstance(good, PairCorrespondence)


def test_validate_tuple_correspondence_levels():
    space = _two_point()
    tup = MetricTuple(space, ((0, 1), (0,)))
    report = validate_tuple_correspondence(((0, 1), (1, 0)), tup, tup)
    assert isinstance(report, CorrespondenceViolations)
    assert (1, 0) in report.uncovered_subset_left
    good = validate_tuple_correspondence(((0, 0), (1, 1)), tup, tup)
    assert isinstance(good, TupleCorrespondence)
    assert good.restricted(1) == ((0, 0),)


def test_uncovered_relations_fail_where_they_are_built():
    """Coverage is checked on construction, with the report validate_*
    returns, so distortion never prices a relation that misses a point."""
    pair = _pair(_two_point(), (0, 1))
    with pytest.raises(UncoveredRelationError) as info:
        distortion(PairCorrespondence(pair, pair, ((0, 0),)))
    assert info.value.report == validate_correspondence(((0, 0),), pair, pair)
    assert str(info.value) == (
        f"relation does not cover the pairs: {info.value.report.as_dict()}"
    )
    good = PairCorrespondence(pair, pair, ((0, 0), (1, 1)))
    with pytest.raises(UncoveredRelationError):
        PairCorrespondence(good.left, good.right, ((1, 1),))

    tup = MetricTuple(_two_point(), ((0, 1), (0,)))
    with pytest.raises(UncoveredRelationError) as info:
        TupleCorrespondence(tup, tup, ((0, 1), (1, 0)))
    assert info.value.report == validate_tuple_correspondence(((0, 1), (1, 0)), tup, tup)
    assert info.value.report.uncovered_subset_left == ((1, 0),)


def test_validate_tuple_correspondence_rejects_different_chain_lengths():
    """The chain lengths are compared before coverage, in both orders."""
    space = _two_point()
    short = MetricTuple(space, ((0, 1),))
    long = MetricTuple(space, ((0, 1), (0,)))
    for pairs in (((0, 0), (1, 1)), ((0, 0),)):
        for left, right in ((short, long), (long, short)):
            with pytest.raises(ValueError, match="different chain lengths"):
                validate_tuple_correspondence(pairs, left, right)


def _seeded_relation(rng, left, right, mode):
    """A relation on the two grids: ``mode`` 0 covers every level, 1 drops
    a few cells of a covering relation, 2 draws cells at random, 3 adds an
    out-of-range cell and 4 is empty.  Cells come unsorted, some twice."""
    nx, ny = left.space.n, right.space.n
    if mode == 4:
        return []
    cells = []
    if mode in (0, 1):
        for ll, lr in _level_pairs(left, right):
            cells.extend((x, rng.choice(lr)) for x in ll)
            cells.extend((rng.choice(ll), y) for y in lr)
        if mode == 1:
            for _ in range(rng.randint(1, 3)):
                drop = rng.choice(cells)
                cells = [c for c in cells if c != drop] or [drop]
    else:
        cells = [(rng.randrange(nx), rng.randrange(ny)) for _ in range(rng.randint(1, nx * ny))]
    if mode == 3:
        cells.append((nx, rng.randrange(ny)) if rng.random() < 0.5 else (0, -1))
    cells.extend(rng.sample(cells, min(2, len(cells))))
    rng.shuffle(cells)
    return cells


def test_coverage_reports_match_recorded_digest():
    """Coverage reports and errors stay as recorded.

    The digest covers 600 seeded relations on pairs and on 1-3-level
    tuples with int, Fraction and float distances: covering relations,
    relations with cells dropped, random ones, out-of-range and empty
    ones.  It pins what ``validate_*`` returns and what the constructors
    raise, report dicts and messages included.
    """
    rng = random.Random(47)
    digest = hashlib.sha256()
    for i in range(600):
        values = _VALUES[i % 3]
        k = i % 4
        if k == 0:
            left = random_pair(rng, n_range=(1, 5), values=values)
            right = random_pair(rng, n_range=(1, 5), values=values)
            build, validate = PairCorrespondence, validate_correspondence
        else:
            left = random_tuple(rng, k, n_range=(1, 5), values=values)
            right = random_tuple(rng, k, n_range=(1, 5), values=values)
            build, validate = TupleCorrespondence, validate_tuple_correspondence
        pairs = _seeded_relation(rng, left, right, rng.choice((0, 0, 1, 1, 2, 2, 3, 4)))
        record = []
        try:
            res = validate(pairs, left, right)
            record.append(res.pairs if isinstance(res, build) else res.as_dict())
        except ValueError as exc:
            record.append(["error", str(exc)])
        try:
            record.append(build(left, right, pairs).pairs)
        except UncoveredRelationError as exc:
            record.append(["uncovered", str(exc)])
        except ValueError as exc:
            record.append(["error", str(exc)])
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == (
        "2c3a6f8907115f8c9e532815f40ee4cbfc0fc08c658dd4c1c06421d9a51e0c56"
    )


def test_distortion_identity_is_zero():
    pair = _pair(_two_point(), (0,))
    corr = PairCorrespondence(pair, pair, ((0, 0), (1, 1)))
    br = distortion(corr)
    assert br.sup_full == 0
    assert br.sup_levels == (0,)
    assert br.value == 0


def test_distortion_known_value():
    """Collapsing a two-point space of diameter 2 to one point distorts the
    full level by 2 and the singleton subsets by 0, averaging to 1."""
    big = _pair(_two_point(2), (0,))
    small = _pair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    corr = PairCorrespondence(big, small, ((0, 0), (1, 0)))
    br = distortion(corr)
    assert br.sup_full == 2
    assert br.sup_levels == (0,)
    assert br.value == 1


def test_distortion_tuple_averages_all_levels():
    space = _two_point(2)
    tup = MetricTuple(space, ((0, 1), (0, 1)))
    corr = TupleCorrespondence(tup, tup, ((0, 0), (0, 1), (1, 0), (1, 1)))
    br = distortion(corr)
    assert br.sup_full == 2
    assert br.sup_levels == (2, 2)
    assert br.value == 2


_BRUTE_GRIDS = ((1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3))


def _subset_of(rng, n, kind):
    """The whole space (no full-level slot of the distortion search), one
    point, or a random subset."""
    if kind == "full":
        return tuple(range(n))
    if kind == "point":
        return (rng.randrange(n),)
    return random_subset(rng, n)


def _asymmetric_copy(pair, rng):
    """Float copy of ``pair`` from a matrix whose distances differ from
    their transposes by less than the tolerance; it validates to its
    symmetric form."""
    n = pair.space.n
    rows = [
        [float(v) + (rng.uniform(0, 1e-10) if i != j else 0.0) for j, v in enumerate(row)]
        for i, row in enumerate(pair.space.dist)
    ]
    return MetricPair(FiniteMetricSpace.from_matrix(rows), pair.subset)


def test_min_distortion_exhaustive_matches_brute_force():
    """Int, Fraction and float distances; full, one-point and random
    subsets; grids of up to 12 cells; both objectives.  The least values
    agree with brute force exactly, also on float copies made from
    matrices that are asymmetric within the tolerance: validation makes
    them symmetric, so the search and ``distortion`` read every pair of
    cells with the same operands."""
    rng = random.Random(31)
    kinds = ("full", "point", "random")
    for case in range(48):
        nx, ny = _BRUTE_GRIDS[case % len(_BRUTE_GRIDS)]
        values = _VALUES[case // len(_BRUTE_GRIDS) % 3]
        left, right = (
            MetricPair(space, _subset_of(rng, space.n, kinds[(case // k) % 3]))
            for space, k in ((random_space(rng, nx, values), 1), (random_space(rng, ny, values), 3))
        )
        operands = [(left, right)]
        if values is _VALUES[2]:
            operands.append((_asymmetric_copy(left, rng), _asymmetric_copy(right, rng)))
        for left, right in operands:
            for objective in ("distortion", "sup_full"):
                fast = min_distortion(left, right, objective=objective)
                slow = brute_force_min_distortion(left, right, objective=objective)
                assert fast.optimal
                key = "sup_full" if objective == "sup_full" else "value"
                got, want = getattr(fast.breakdown, key), getattr(slow.breakdown, key)
                assert got == want, (case, objective)


def test_min_distortion_relations_match_recorded_digest():
    """Relations and breakdowns of both objectives stay as recorded.

    The digest covers 24 seeded pairs with int, Fraction and float
    distances, half of them on at most _EXHAUSTIVE_CELLS cells (the
    witness search) and half above it (the local search).
    It pins which relation each search returns, which a comparison of
    values against brute force leaves open.
    """
    rng = random.Random(43)
    digest = hashlib.sha256()
    for i in range(24):
        n_range = (2, 4) if i % 2 == 0 else (4, 6)
        left = random_pair(rng, n_range=n_range, values=_VALUES[i % 3])
        right = random_pair(rng, n_range=n_range, values=_VALUES[i % 3])
        for objective in ("distortion", "sup_full"):
            res = min_distortion(left, right, objective=objective)
            record = [res.correspondence.pairs, res.breakdown.as_dict(), res.optimal]
            digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == (
        "9dd4258b0c21074d03a2483af3d15dceae0dcc711336bb8d6eb33cdc996e7533"
    )


def test_min_distortion_ties_take_the_first_witness_union():
    """Every relation of this grid ties, and the search returns the union
    of the entries of the first optimal witness: slots in the witness
    order (subset level first, left points before right ones), each
    filled by the child of least value, then least target index: x1
    goes to y1 (mismatch 2 against (0, 0), where y0 gives 3).  Both
    subsets are full, so both objectives search only the subset-level
    slots and return the same union, and brute force returns the
    lexicographically smallest relation, a different one at the same
    value."""
    left = _pair(FiniteMetricSpace.from_matrix([[0, 3, 3], [3, 0, 3], [3, 3, 0]]), (0, 1, 2))
    right = _pair(_two_point(), (0, 1))
    for objective in ("distortion", "sup_full"):
        fast = min_distortion(left, right, objective=objective)
        slow = brute_force_min_distortion(left, right, objective=objective)
        assert fast.breakdown == slow.breakdown
        assert fast.correspondence.pairs == ((0, 0), (0, 1), (1, 1), (2, 0))
        assert slow.correspondence.pairs == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))


def test_min_distortion_heuristic_flags_nonoptimal(monkeypatch):
    monkeypatch.setattr(correspondences, "_EXHAUSTIVE_CELLS", 4)
    rng = random.Random(32)
    left = random_pair(rng, n_range=(3, 3))
    right = random_pair(rng, n_range=(3, 3))
    result = min_distortion(left, right)
    assert not result.optimal
    # The heuristic still returns a valid correspondence with a value no
    # better than the true optimum.
    true = brute_force_min_distortion(left, right)
    assert result.breakdown.value >= true.breakdown.value


def test_min_distortion_identity_reaches_zero():
    rng = random.Random(33)
    for _ in range(10):
        pair = random_pair(rng, n_range=(2, 3))
        result = min_distortion(pair, pair)
        assert result.breakdown.value == 0


def test_min_distortion_rejects_unknown_objective():
    pair = _pair(_two_point(), (0,))
    with pytest.raises(ValueError):
        min_distortion(pair, pair, objective="nope")


def test_tight_glue_reports_invalid_cross_metric():
    """On the self-pair of a diameter-1 doubleton with the full relation
    and r = 1/2 the min-through term vanishes everywhere, so delta is 1/4
    at every cell and d(0,1) = 1 > 1/4 + 1/4 breaks the lower mixed
    triangle inequality."""
    pair = _pair(_two_point(), (0, 1))
    corr = PairCorrespondence(pair, pair, ((0, 0), (0, 1), (1, 0), (1, 1)))
    report = tight_glue(corr, Fraction(1, 2))
    assert report.cross.cross[0][0] == Fraction(1, 4)
    assert report.cross.cross[0][1] == Fraction(1, 4)
    assert not report.valid
    assert any(v[0] in ("left-lower", "right-lower") for v in report.violations)
    assert report.pair_sum is None


def test_tight_glue_identity_relation_is_valid():
    pair = _pair(_two_point(), (0, 1))
    corr = PairCorrespondence(pair, pair, ((0, 0), (1, 1)))
    report = tight_glue(corr, Fraction(1, 2))
    assert report.valid
    assert report.pair_sum == Fraction(1, 2)


def test_tight_glue_valid_case_bounds_pair_sum():
    big = _pair(_two_point(2), (0,))
    small = _pair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    corr = PairCorrespondence(big, small, ((0, 0), (1, 0)))
    report = tight_glue(corr, 2)
    assert report.valid
    assert report.pair_sum == pair_hausdorff(report.cross, big, small)


def test_tight_glue_rejects_nonpositive_r():
    pair = _pair(_two_point(), (0,))
    corr = PairCorrespondence(pair, pair, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        tight_glue(corr, 0)


def test_classical_glue_is_always_admissible():
    rng = random.Random(34)
    for _ in range(30):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        glue = classical_glue(corr)
        assert glue.cross.check() == []
        total = pair_hausdorff(glue.cross, left, right)
        # Each Hausdorff term is at most 2 eta.
        assert total <= 4 * glue.eta


def test_classical_glue_hausdorff_sum_is_twice_eta():
    """The relation covers every level, and a related pair (x, y) sits
    at eta + dX(x, x) + dY(y, y) = eta, the least entry of its row and
    column, so each of the two Hausdorff terms is exactly eta."""
    rng = random.Random(37)
    cases = []
    for values in _VALUES:
        for _ in range(10):
            left = random_pair(rng, n_range=(1, 4), values=values)
            right = random_pair(rng, n_range=(1, 4), values=values)
            cases.append(random_correspondence(rng, left, right))
    # zero full sup: the fallback shift, exact and float
    for d in (2, 2.5):
        pair = _pair(_two_point(d), (0,))
        cases.append(PairCorrespondence(pair, pair, ((0, 0), (1, 1))))
    assert sum(distortion(corr).sup_full == 0 for corr in cases) >= 2
    for corr in cases:
        glue = classical_glue(corr)
        total = pair_hausdorff(glue.cross, corr.left, corr.right)
        assert total == glue.eta + glue.eta
        assert type(total) is type(glue.eta + glue.eta)


def _flat_glue(corr, shift):
    """The glued block as a flat loop over the relation:
    shift + min over R of dX(x, x') + dY(y, y')."""
    dx, dy = corr.left.space.dist, corr.right.space.dist
    return tuple(
        tuple(shift + min(dx[x][i] + dy[y][j] for i, j in corr.pairs) for y in range(len(dy)))
        for x in range(len(dx))
    )


def _skewed(rng, pair):
    """``pair`` from its float distances moved off symmetry by less than
    the tolerance; the space validates to its symmetric form."""
    rows = [
        [v if i == j else v + rng.choice((0.0, 1e-12, -1e-12, 3e-11)) for j, v in enumerate(row)]
        for i, row in enumerate(pair.space.dist)
    ]
    return MetricPair(FiniteMetricSpace.from_matrix(rows), pair.subset)


def test_glues_match_the_flat_loop():
    """Both glues go through the staged min-plus kernel and give the flat
    loop's block, bits and scalar types included: also on float spaces
    validated from matrices that are asymmetric within the tolerance, and
    on spaces that mix int and Fraction entries, where ties decide the
    type of an entry."""
    rng = random.Random(38)
    for values in _VALUES + ((1, Fraction(1), 2, Fraction(2), Fraction(3, 2)),):
        for t in range(80):
            left = random_pair(rng, n_range=(1, 6), values=values)
            right = random_pair(rng, n_range=(1, 6), values=values)
            if isinstance(values[0], float) and t % 2:
                left, right = _skewed(rng, left), _skewed(rng, right)
            corr = random_correspondence(rng, left, right, extra=rng.randint(0, 4))
            glue = classical_glue(corr)
            assert repr(glue.cross.cross) == repr(_flat_glue(corr, glue.eta))
            r = rng.choice(values)
            report = tight_glue(corr, r)
            assert repr(report.cross.cross) == repr(_flat_glue(corr, half(r)))


def test_local_search_stops_where_no_removal_helps():
    """On grids past the exhaustive search, no cell of the returned
    relation can go while every level stays covered and the objective
    strictly drops."""
    rng = random.Random(39)
    for values in _VALUES:
        for _ in range(6):
            left = random_pair(rng, n_range=(5, 8), values=values)
            right = random_pair(rng, n_range=(4, 8), values=values)
            assert left.space.n * right.space.n > correspondences._EXHAUSTIVE_CELLS
            for objective in ("distortion", "sup_full"):

                def score(cells):
                    br = distortion(PairCorrespondence(left, right, cells))
                    return br.sup_full if objective == "sup_full" else br.value

                cells = correspondences._local_search(left, right, objective)
                value = score(cells)
                for cell in cells:
                    rest = [c for c in cells if c != cell]
                    if isinstance(validate_correspondence(rest, left, right), PairCorrespondence):
                        assert not score(rest) < value, (objective, cell)


def test_classical_glue_eta_constraints():
    big = _pair(_two_point(2), (0,))
    small = _pair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    corr = PairCorrespondence(big, small, ((0, 0), (1, 0)))
    assert distortion(corr).sup_full == 2
    with pytest.raises(ValueError):
        classical_glue(corr, eta=Fraction(1, 2))
    with pytest.raises(ValueError):
        classical_glue(corr, eta=0)
    glue = classical_glue(corr, eta=1)
    assert glue.eta == 1


def test_default_glue_shift_zero_distortion_fallback():
    pair = _pair(_two_point(2), (0,))
    corr = PairCorrespondence(pair, pair, ((0, 0), (1, 1)))
    assert distortion(corr).sup_full == 0
    shift = default_glue_shift(corr)
    assert 0 < shift < 1
    assert shift == 2 * Fraction(1, 2**20)


def test_default_glue_shift_half_sup():
    big = _pair(_two_point(2), (0,))
    small = _pair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    corr = PairCorrespondence(big, small, ((0, 0), (1, 0)))
    assert default_glue_shift(corr) == 1


def test_stability_factor_four_random():
    rng = random.Random(35)
    for _ in range(200):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        r = random_correspondence(rng, left, right)
        s = random_correspondence(rng, left, right)
        report = distortion_stability(r, s)
        assert report.holds_factor4
        assert report.bound4 == 4 * (report.hausdorff_full + report.hausdorff_restricted)


def test_stability_requires_shared_contexts():
    pair_a = _pair(_two_point(), (0,))
    pair_b = _pair(_two_point(2), (0,))
    corr_a = PairCorrespondence(pair_a, pair_a, ((0, 0), (1, 1)))
    corr_b = PairCorrespondence(pair_b, pair_b, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        distortion_stability(corr_a, corr_b)


def test_stability_identical_relations_vanish():
    rng = random.Random(36)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 3))
        right = random_pair(rng, n_range=(2, 3))
        corr = random_correspondence(rng, left, right)
        report = distortion_stability(corr, corr)
        assert report.lhs == 0
        assert report.hausdorff_full == 0


def test_brute_force_refuses_more_than_twenty_cells():
    rows = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    five = MetricPair(FiniteMetricSpace.from_matrix(rows), (0,))
    with pytest.raises(ValueError, match="^brute force limited to 20 cells$"):
        brute_force_min_distortion(five, five)
