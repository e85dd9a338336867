"""The exact small-instance oracle: values, certificates, variants, and
the search budget.

Run with: python3 demos/exact_oracle_tour.py
"""

from metricpairs import (
    BudgetExceededError,
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    build_witness_lp,
    exact_pair_gh,
    exact_pair_gh_max,
    exact_tuple_gh,
    witness_reduced_value,
)
from metricpairs.lp import solve_lp
from metricpairs.scalars import format_scalar


def main():
    print("== the two-point versus one-point probe ==")
    big = MetricPair(FiniteMetricSpace.from_matrix([[0, 2], [2, 0]]), (0,))
    point = MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    result = exact_pair_gh(big, point)
    print("summed-variant value:", format_scalar(result.value))
    print("per-level radii:     ", [format_scalar(r) for r in result.radii])
    report = result.certificate_report()
    print("certificate violations:", len(report["violations"]))
    print("certificate achieves the value:", report["achieves_value"])
    print("witness cells per level:", result.levels)
    cross = result.cross()
    print("reconstructed cross metric checks clean:", cross.check() == [])

    print()
    print("== the max-combination variant ==")
    tilde = exact_pair_gh_max(big, point)
    print("max-variant value:", format_scalar(tilde.value))
    print("sum value sits at twice the max value here, the extreme of the")
    print("general sandwich max <= sum <= 2 * max.")

    print()
    print("== a fixed witness reduces to a tiny linear program ==")
    maps = [((0, 0), (0,)), ((0,), (0,))]
    value, radii = witness_reduced_value(big, point, maps)
    lp = build_witness_lp(big, point, maps)
    full = solve_lp(lp)
    print("reduced value:", format_scalar(value), "radii:", [format_scalar(r) for r in radii])
    print("full simplex value agrees:", full.value == value)

    print()
    print("== tuples with nested chains ==")
    chain = ((0, 1), (0,))
    tl = MetricTuple(big.space, chain)
    tr = MetricTuple(point.space, ((0,), (0,)))
    tup = exact_tuple_gh(tl, tr)
    print("two-level chain value:", format_scalar(tup.value))
    print("radii:", [format_scalar(r) for r in tup.radii])

    print()
    print("== the search budget counts witness-search nodes ==")
    try:
        exact_pair_gh(big, point, budget=1)
    except BudgetExceededError as exc:
        print("a budget of 1 node is refused:", exc)
    six = exact_pair_gh(big, point, budget=6)
    print("its five witness slots and one leaf fit a budget of 6:", format_scalar(six.value))


if __name__ == "__main__":
    main()
