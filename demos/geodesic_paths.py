"""Geodesic interpolation along a correspondence and the audit that
verifies the scaling identities.

Run with: python3 demos/geodesic_paths.py
"""

import random
from fractions import Fraction

from metricpairs import (
    FiniteMetricSpace,
    MetricPair,
    diagonal_distortion,
    distortion,
    endpoint_distortion,
    geodesicity_audit,
    interpolate,
    min_distortion,
    random_correspondence,
    random_pair,
)
from metricpairs.scalars import format_scalar


def main():
    rng = random.Random(7)
    left = random_pair(rng, (3, 3), (1, 2, 3))
    right = random_pair(rng, (3, 3), (1, 2, 3))
    corr = random_correspondence(rng, left, right)
    base = distortion(corr).value
    print("a random correspondence between two 3-point pairs")
    print("its distortion:", format_scalar(base))

    print()
    print("== the interpolants ==")
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        pair = interpolate(corr, t)
        print(
            "t = {:<4}".format(format_scalar(t)),
            "points:", pair.space.n,
            "subset:", len(pair.subset),
            "labels:", pair.space.labels[:2], "...",
        )
    print("t = 0 and t = 1 return the original pairs themselves.")

    print()
    print("== scaling identities, exact arithmetic ==")
    s, t = Fraction(1, 5), Fraction(3, 4)
    diag = diagonal_distortion(corr, s, t).value
    print(
        "dis between interpolants at {} and {}: {} = |t-s| * dis: {}".format(
            format_scalar(s),
            format_scalar(t),
            format_scalar(diag),
            diag == (t - s) * base,
        )
    )
    left_end = endpoint_distortion(corr, t, side="left").value
    right_end = endpoint_distortion(corr, t, side="right").value
    print("against the left endpoint:", format_scalar(left_end), "= t * dis:", left_end == t * base)
    print("against the right endpoint:", format_scalar(right_end), "= (1-t) * dis:", right_end == (1 - t) * base)

    print()
    print("== the audit table ==")
    print("auditing an optimal correspondence (small carrier, so the")
    print("exact oracle can price every interpolant pair):")
    big = MetricPair(FiniteMetricSpace.from_matrix([[0, 2], [2, 0]]), (0, 1))
    one = MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    best = min_distortion(big, one).correspondence
    audit = geodesicity_audit(best)
    print("endpoint distance:", format_scalar(audit.endpoint_value))
    for row in audit.rows[:5]:
        print(
            "  s={:<4} t={:<4} value={:<6} expected={:<6} match={}".format(
                format_scalar(row.s),
                format_scalar(row.t),
                format_scalar(row.value),
                format_scalar(row.expected),
                row.matches,
            )
        )
    print("all grid cells match:", audit.all_match)


if __name__ == "__main__":
    main()
