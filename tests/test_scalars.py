from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from metricpairs.applications import hypernet_tuple_space, rational_densify, variant_sandwich
from metricpairs.bounds import matched_net_bound
from metricpairs.complexes import ApproxParams, approximation_pipeline
from metricpairs.correspondences import (
    DistortionBreakdown,
    PairCorrespondence,
    TupleCorrespondence,
    classical_glue,
    default_glue_shift,
    distortion,
    tight_glue,
)
from metricpairs.generators import circle_space, graph_space, permute_pair, random_pair, random_tuple
from metricpairs.lp import Constraint
from metricpairs.oracle import exact_tuple_gh
from metricpairs.realization import EmbeddedComplex, Interval, carrier_samples, filtration_distance
from metricpairs.scalars import (
    all_exact,
    close,
    format_scalar,
    half,
    is_exact,
    parse_scalar,
    tolerance_for,
    value_class,
)
from metricpairs.spaces import (
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    _level_pairs,
    covering_radius,
    greedy_net,
    hausdorff,
    tuple_hausdorff,
)


def test_is_exact_accepts_int_and_fraction():
    assert is_exact(3)
    assert is_exact(Fraction(1, 7))
    assert not is_exact(0.5)
    assert not is_exact(True)


def test_all_exact_over_mixed_values():
    assert all_exact([1, Fraction(2, 3), 0])
    assert not all_exact([1, 0.25])
    assert all_exact([])


def test_parse_scalar_fraction_string():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7/2") == Fraction(-7, 2)


def test_parse_scalar_decimal_string_is_exact():
    value = parse_scalar("0.1")
    assert isinstance(value, Fraction)
    assert value == Fraction(1, 10)


def test_parse_scalar_int_becomes_fraction():
    assert parse_scalar(5) == 5
    assert is_exact(parse_scalar(5))


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("not a number")


@pytest.mark.parametrize("exact", [True, False])
def test_parse_scalar_rejects_non_finite_and_overflowing_values(exact):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            parse_scalar(value, exact)
    if exact:
        assert parse_scalar("1e400") == 10**400
    else:
        with pytest.raises(ValueError, match="float range"):
            parse_scalar("1e400", exact)
        with pytest.raises(ValueError, match="float range"):
            parse_scalar(10**400, exact)


def test_format_scalar_round_trip():
    for value in (3, Fraction(5, 7), Fraction(-1, 3), 0):
        assert parse_scalar(format_scalar(value)) == value


def test_format_scalar_float_passthrough():
    assert format_scalar(0.25) == 0.25


def test_half_keeps_even_ints_integral():
    assert half(4) == 2
    assert isinstance(half(4), int)
    assert half(3) == Fraction(3, 2)
    assert half(Fraction(1, 3)) == Fraction(1, 6)
    assert half(1.0) == 0.5


def test_tolerance_for_exact_inputs_is_zero():
    assert tolerance_for([1, Fraction(1, 2)]) == 0
    assert tolerance_for([1, 0.5]) > 0


def test_close_is_equality_on_exact_values():
    tiny = Fraction(1, 10**12)
    assert close(Fraction(1, 3), Fraction(2, 6))
    assert close(0, Fraction(0))
    assert not close(Fraction(1, 3), Fraction(1, 3) + tiny)
    assert not close(1, 1 + tiny)


def test_close_allows_the_tolerance_on_floats():
    assert close(0.1 + 0.2, 0.3)
    assert close(1.0, 1.0 + 5e-10)
    assert close(Fraction(1, 3), 1 / 3)
    assert not close(1.0, 1.0 + 1e-8)
    assert not close(0.0, Fraction(1, 10**6))


def _identity():
    pair = MetricPair(FiniteMetricSpace.from_matrix([[0, 1], [1, 0]]), (0,))
    return PairCorrespondence(pair, pair, ((0, 0), (1, 1)))


# one call per parameter that must be a finite number > 0, by its name
_POSITIVE = {
    "eps": lambda v: matched_net_bound(_identity().left, _identity().left, v, (0, 1), (0, 1)),
    "r": lambda v: tight_glue(_identity(), v),
    "eta": lambda v: classical_glue(_identity(), eta=v),
    "radius": lambda v: greedy_net(_identity().left.space, v),
    "h": lambda v: carrier_samples(EmbeddedComplex([[0.0, 0.0], [1.0, 0.0]], [[0, 1]]), v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, True])
@pytest.mark.parametrize("name", sorted(_POSITIVE))
def test_positive_parameters_must_be_finite(name, value):
    # NaN and infinities pass a bare ``<= 0`` check and gave wrong results;
    # True passes it as 1
    with pytest.raises(ValueError, match=f"^{name} must be a finite positive number"):
        _POSITIVE[name](value)


def test_half_refuses_a_bool():
    with pytest.raises(TypeError, match="^boolean is not a scalar$"):
        half(True)


_PATH = FiniteMetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
_WHOLE = MetricPair(_PATH, (0, 1, 2))
_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

# one call per integer index argument of the API, given the index 2
_INDEX = {
    "subset": lambda i: MetricPair(_PATH, (i,)).subset,
    "chain": lambda i: MetricTuple(_PATH, ((0, 1, 2), (i,))).chain,
    "hausdorff": lambda i: hausdorff(_PATH, [0], [i]),
    "covering_radius": lambda i: covering_radius(_PATH, [i]),
    "greedy_net seed": lambda i: greedy_net(_PATH, 1, seed=[i]).members,
    "correspondence pairs": lambda i: PairCorrespondence(
        _WHOLE, _WHOLE, [(0, 0), (1, 1), (i, 2)]
    ).pairs,
    "matched_net_bound": lambda i: matched_net_bound(_WHOLE, _WHOLE, 1, [0, 1, i], [0, 1, 2]),
    "graph_space edge": lambda i: graph_space(3, [(0, 1), (1, i)]).dist,
    "permute_pair": lambda i: permute_pair(_WHOLE, [1, 0, i]),
    "simplex vertex": lambda i: EmbeddedComplex(_TRIANGLE, [(0, i)]).simplices,
    "depth": lambda i: EmbeddedComplex(_TRIANGLE, [(0, 1)], [i]).depths,
    "densify q": lambda i: rational_densify(_PATH, i),
    "pipeline level": lambda i: approximation_pipeline(
        MetricPair(circle_space(12, circumference=1), (0, 1, 2)), levels=[i]
    ),
}


@pytest.mark.parametrize("site", sorted(_INDEX))
def test_index_arguments_take_integers_only(site):
    # int() would truncate 2.7 silently; a numpy integer is an index
    call = _INDEX[site]
    assert call(np.int64(2)) == call(2)
    for value in (2.7, 2.0, True, Fraction(2), "2"):
        with pytest.raises(ValueError, match="must be an integer index"):
            call(value)


# class -> (arguments, the fields __post_init__ makes of them, an unequal
# instance's arguments, arguments __post_init__ refuses or None)
_VALUE_CLASSES = {
    DistortionBreakdown: ((1, (2, Fraction(1, 2)), 3), (1, (2, Fraction(1, 2)), 3), (1, (2,), 3), None),
    MetricPair: ((_PATH, [2, 0, 2]), (_PATH, (0, 2)), (_PATH, (0,)), (_PATH, ())),
    Constraint: (
        ([1, 2], "<=", 3),
        ((Fraction(1), Fraction(2)), "<=", Fraction(3)),
        ([1, 2], ">=", 3),
        ([1, 2], "<", 3),
    ),
    Interval: ((0.5, 1.5), (0.5, 1.5), (0.5, 2.0), (1.5, 0.5)),
    ApproxParams: ((3,), (3,), (4,), (1,)),
}


@pytest.mark.parametrize("cls", list(_VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    """Construction by position or keyword, __post_init__, equality and
    hash by fields within one class, repr, and immutability."""
    args, fields, other, refused = _VALUE_CLASSES[cls]
    names = tuple(cls.__annotations__)
    value = cls(*args)
    # repr tells Fraction(3, 1) from 3, so it checks the normalised types too
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in zip(names, fields)
    ) + ")"
    by_keyword = cls(**dict(zip(names, args)))
    assert value == by_keyword and not value != by_keyword
    assert hash(value) == hash(by_keyword) == hash(fields)
    assert value != cls(*other)
    twin = value_class(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    assert value != twin(*fields) and twin(*fields) != value
    for name in (*names, "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert value == by_keyword
    with pytest.raises(TypeError, match="missing required arguments: " + names[-1]):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
        cls(*args, other=0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*args, 0)
    if refused is not None:
        with pytest.raises(ValueError):
            cls(*refused)


_FLOATS = (0.7, 0.9, 1.3, 2.1)


def _left_to_right(values):
    """The sum from 0, one term at a time: the order ``sum()`` keeps on
    Python 3.10 and 3.11, and compensates away from 3.12 on."""
    total = 0
    for v in values:
        total = total + v
    return total


def _one_point_innermost(rng, k):
    """A seeded float tuple of k levels below the full one, the innermost
    a single point."""
    tup = random_tuple(rng, k - 1, (3, 4), _FLOATS)
    return MetricTuple(tup.space, tup.chain + (tup.chain[-1][:1],))


def _filtration(rng):
    """Four levels in the plane: a triangle of depth 3 and three segments
    of random depth."""
    points = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(5)]
    simplices = [(0, 1, 2)] + [tuple(rng.sample(range(5), 2)) for _ in range(3)]
    return EmbeddedComplex(points, simplices, [3] + [rng.randrange(4) for _ in range(3)])


@pytest.mark.parametrize("seed", range(16))
def test_float_results_stay_float_and_add_left_to_right(seed):
    rng = random.Random(f"left to right:{seed}")
    k = 2 + seed % 3
    left, right = (_one_point_innermost(rng, k) for _ in range(2))
    cells = set()
    for ll, lr in _level_pairs(left, right):
        cells.update((x, rng.choice(lr)) for x in ll)
        cells.update((rng.choice(ll), y) for y in lr)
    br = distortion(TupleCorrespondence(left, right, cells))
    res = exact_tuple_gh(left, right)
    report = res.certificate_report()
    per_level, total = filtration_distance(_filtration(rng), _filtration(rng), 0.25)
    # totals: the bits of a plain left-to-right sum on every interpreter
    assert br.value == _left_to_right((br.sup_full, *br.sup_levels)) / (k + 1)
    assert report["combined"] == _left_to_right(report["terms"])
    assert tuple_hausdorff(res.cross(), left, right) == _left_to_right(report["terms"])
    assert total.lower == _left_to_right(iv.lower for iv in per_level)
    assert total.upper == _left_to_right(iv.upper for iv in per_level)
    # kinds: float operands give float zeros and quotients
    assert br.sup_levels[-1] == 0 and isinstance(br.sup_levels[-1], float)
    assert all(isinstance(v, float) for v in (br.sup_full, *br.sup_levels, br.value))
    net = hypernet_tuple_space(left)
    assert all(isinstance(w, float) for row in net.space.dist for w in row)
    pl, pr = (random_pair(rng, (3, 4), _FLOATS) for _ in range(2))
    assert isinstance(variant_sandwich(pl, pr).ratio, float)
    point = MetricPair(FiniteMetricSpace.from_matrix([[0.0]]), (0,))
    shift = default_glue_shift(PairCorrespondence(point, point, [(0, 0)]))
    assert shift == 2**-20 and isinstance(shift, float)
