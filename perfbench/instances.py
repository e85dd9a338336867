"""Seeded inputs for the benchmark workloads.

Every instance is rebuilt from a string seed such as ``"exact_hard:17"``
with the benchmark's own generators, so the recorded answers stay valid
even if the library's sampling helpers change.  Only public constructors
of the library are used.
"""
from __future__ import annotations

import random

from metricpairs import (
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    PairCorrespondence,
    circle_space,
    validate_correspondence,
)
from metricpairs.serialization import (
    correspondence_to_dict,
    dump_json,
    pair_to_dict,
    tuple_to_dict,
)

VALUES = (1, 2, 3)
# budget passed to every exact solve of exact_hard: far above the
# worst-case estimate of any instance below, so nothing is refused
HARD_BUDGET = 10**30
EXACT_HARD_KINDS = ("pair5", "pair6", "tuple", "audit")
CLI_KINDS = (
    "gh_exact",
    "gh_bounds",
    "gh_tuple",
    "geodesic_sample",
    "geodesic_audit",
    "cassorla_run",
    "apps_realize",
    "validate",
)


def rng_for(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{index}")


def _rows(rng: random.Random, n: int) -> list:
    """Random entries from VALUES repaired by shortest-path closure."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = rng.choice(VALUES)
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                via = mat[i][mid] + mat[mid][j]
                if via < mat[i][j]:
                    mat[i][j] = via
    return mat


def _space(rng: random.Random, n: int) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_matrix(_rows(rng, n), tuple(f"p{i}" for i in range(n)))


def _subset(rng: random.Random, n: int) -> tuple:
    return tuple(sorted(rng.sample(range(n), rng.randint(1, n))))


def pair(rng: random.Random, n: int) -> MetricPair:
    return MetricPair(_space(rng, n), _subset(rng, n))


def chain_tuple(rng: random.Random, n: int, k: int) -> MetricTuple:
    chain, current = [], list(range(n))
    space = _space(rng, n)
    for _ in range(k):
        current = sorted(rng.sample(current, rng.randint(1, len(current))))
        chain.append(tuple(current))
    return MetricTuple(space, tuple(chain))


def correspondence(rng: random.Random, left: MetricPair, right: MetricPair, extra: int):
    """Coverage maps in all four directions plus ``extra`` random cells."""
    nx, ny = left.space.n, right.space.n
    cells = {(x, rng.randrange(ny)) for x in range(nx)}
    cells |= {(rng.randrange(nx), y) for y in range(ny)}
    cells |= {(a, rng.choice(right.subset)) for a in left.subset}
    cells |= {(rng.choice(left.subset), b) for b in right.subset}
    cells |= {(rng.randrange(nx), rng.randrange(ny)) for _ in range(extra)}
    corr = validate_correspondence(sorted(cells), left, right)
    if not isinstance(corr, PairCorrespondence):
        raise RuntimeError("generated relation misses a coverage condition")
    return corr


def family_encoding(family) -> list:
    """Distances and subset of every family member, for a drift check."""
    return [[[list(map(str, row)) for row in p.space.dist], list(p.subset)] for p in family]


def exact_hard_case(index: int):
    """(kind, operands) of exact_hard instance ``index``; kinds rotate."""
    kind = EXACT_HARD_KINDS[index % len(EXACT_HARD_KINDS)]
    rng = rng_for("exact_hard", index)
    if kind == "pair5":
        return kind, (pair(rng, 5), pair(rng, 5))
    if kind == "pair6":
        return kind, (pair(rng, 6), pair(rng, 6))
    if kind == "tuple":
        return kind, (
            chain_tuple(rng, rng.randint(2, 3), 2),
            chain_tuple(rng, rng.randint(2, 3), 2),
        )
    left, right = pair(rng, rng.randint(2, 3)), pair(rng, rng.randint(2, 3))
    return kind, (correspondence(rng, left, right, 0),)


_SMALL_GRIDS = ((3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 3))


def _bounds_grid(rng: random.Random, index: int) -> tuple:
    if index % 2 == 0:
        return rng.choice(_SMALL_GRIDS)
    while True:
        nx, ny = rng.randint(3, 16), rng.randint(3, 16)
        if nx * ny > 16:
            return nx, ny


def bounds_grid(index: int) -> tuple:
    """Point counts of the two sides of bounds case ``index``, without
    building it."""
    return _bounds_grid(rng_for("bounds", index), index)


def bounds_case(index: int):
    """Even indices fit the exhaustive distortion search (at most 16
    cells), odd ones go to local search (more than 16 cells)."""
    rng = rng_for("bounds", index)
    nx, ny = _bounds_grid(rng, index)
    return pair(rng, nx), pair(rng, ny)


def _complex_doc(rng: random.Random) -> dict:
    npts = rng.randint(4, 6)
    points = [[rng.randint(0, 16) / 8, rng.randint(0, 16) / 8] for _ in range(npts)]
    simplices = [[i, i + 1] for i in range(npts - 1)]
    simplices.append(sorted(rng.sample(range(npts), 3)))
    return {"points": points, "simplices": simplices}


def _broken_pair_doc(rng: random.Random) -> dict:
    """A 3- or 4-point pair document whose first distance breaks the
    triangle inequality."""
    p = pair(rng, rng.randint(3, 4))
    doc = pair_to_dict(p)
    d = p.space.dist
    bad = str(d[0][2] + d[2][1] + 1)
    doc["distances"][0][1] = doc["distances"][1][0] = bad
    return doc


def cli_case(index: int, directory) -> tuple:
    """Write the documents of CLI case ``index`` into ``directory`` and
    return (kind, argv after ``python -m metricpairs``)."""
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    rng = rng_for("cli_docs", index)

    def write(name: str, data: dict) -> str:
        path = directory / f"{index}-{name}.json"
        path.write_text(dump_json(data), encoding="utf-8")
        return str(path)

    if kind in ("gh_exact", "gh_bounds"):
        hi = 4 if kind == "gh_exact" else 5
        left = write("left", pair_to_dict(pair(rng, rng.randint(3, hi))))
        right = write("right", pair_to_dict(pair(rng, rng.randint(3, hi))))
        if kind == "gh_bounds":
            return kind, ["gh", "bounds", "--input", left, right]
        return kind, ["gh", "exact", "--input", left, right, "--budget", str(HARD_BUDGET)]
    if kind == "gh_tuple":
        left = write("left", tuple_to_dict(chain_tuple(rng, 2, 2)))
        right = write("right", tuple_to_dict(chain_tuple(rng, 2, 2)))
        return kind, ["gh", "tuple", "--input", left, right, "--budget", str(HARD_BUDGET)]
    if kind == "geodesic_sample":
        left, right = pair(rng, rng.randint(2, 4)), pair(rng, rng.randint(2, 4))
        doc = write("corr", correspondence_to_dict(correspondence(rng, left, right, 1)))
        t = rng.choice(("1/4", "1/3", "1/2", "2/3"))
        return kind, ["geodesic", "sample", "--input", doc, "--t", t]
    if kind == "geodesic_audit":
        left, right = pair(rng, 2), pair(rng, 2)
        doc = write("corr", correspondence_to_dict(correspondence(rng, left, right, 0)))
        return kind, ["geodesic", "audit", "--input", doc, "--budget", str(HARD_BUDGET)]
    if kind == "cassorla_run":
        circle = MetricPair(circle_space(32), _subset(rng, 32))
        return kind, ["cassorla", "run", "--input", write("pair", pair_to_dict(circle))]
    if kind == "apps_realize":
        a = write("a", _complex_doc(rng))
        b = write("b", _complex_doc(rng))
        return kind, ["apps", "realize", "--input", a, b]
    if rng.random() < 0.25:
        doc = _broken_pair_doc(rng)
    else:
        doc = pair_to_dict(pair(rng, rng.randint(3, 6)))
    return kind, ["validate", "--input", write("pair", doc)]
