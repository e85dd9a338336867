"""Instance builders: structured spaces and seeded random instances.

Random builders take an explicit random.Random so callers control the
seed; sampled matrices are repaired into metrics by shortest-path closure
rather than rejection, which keeps generation deterministic and total.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .correspondences import PairCorrespondence, validate_correspondence
from .spaces import FiniteMetricSpace, MetricPair, MetricTuple, _shortest_paths


def circle_space(n: int, circumference=None) -> FiniteMetricSpace:
    """n evenly spaced points on a circle with the arc-length metric.

    The default circumference n makes every distance an integer number
    of arcs.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if circumference is None:
        step = 1
    else:
        if circumference <= 0:
            raise ValueError("circumference must be positive")
        step = (
            Fraction(circumference, n)
            if not isinstance(circumference, float)
            else circumference / n
        )
    rows = [
        [min(abs(i - j), n - abs(i - j)) * step for j in range(n)]
        for i in range(n)
    ]
    labels = tuple(f"c{i}" for i in range(n))
    return FiniteMetricSpace.from_matrix(rows, labels)


def grid_graph_space(rows: int, cols: int) -> FiniteMetricSpace:
    """Unit grid graph; shortest paths are taxicab distances."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be nonempty")
    points = [(r, c) for r in range(rows) for c in range(cols)]
    mat = [
        [abs(r1 - r2) + abs(c1 - c2) for (r2, c2) in points]
        for (r1, c1) in points
    ]
    labels = tuple(f"g{r},{c}" for r, c in points)
    return FiniteMetricSpace.from_matrix(mat, labels)


def graph_space(n: int, edges: Sequence, labels=None) -> FiniteMetricSpace:
    """Shortest-path metric of a weighted undirected graph.

    Edges are (u, v) with unit weight or (u, v, w) with w > 0; exact
    weights give exact distances.  Disconnected graphs are rejected.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    weighted = []
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1
        else:
            u, v, w = edge
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        if w <= 0:
            raise ValueError("edge weights must be positive")
        weighted.append((u, v, w))
    rows = _shortest_paths(n, weighted)
    for src, dist in enumerate(rows):
        if None in dist:
            raise ValueError(
                f"graph is disconnected: {src} cannot reach {dist.index(None)}"
            )
    if labels is None:
        labels = tuple(f"v{i}" for i in range(n))
    return FiniteMetricSpace.from_matrix(rows, labels)


def _closure(mat):
    n = len(mat)
    for mid in range(n):
        row_mid = mat[mid]
        for i in range(n):
            via = mat[i][mid]
            row_i = mat[i]
            for j in range(n):
                cand = via + row_mid[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return mat


def random_space(
    rng: random.Random, n: int, values: Sequence = (1, 2, 3), labels=None
) -> FiniteMetricSpace:
    """Random metric with entries drawn from ``values``, then repaired by
    shortest-path closure so the triangle inequality always holds."""
    if n < 1:
        raise ValueError("need at least one point")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(list(values))
            mat[i][j] = v
            mat[j][i] = v
    _closure(mat)
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace.from_matrix(mat, labels)


def random_subset(rng: random.Random, n: int, size: Optional[int] = None) -> tuple:
    if size is None:
        size = rng.randint(1, n)
    if not (1 <= size <= n):
        raise ValueError("subset size out of range")
    return tuple(sorted(rng.sample(range(n), size)))


def random_pair(
    rng: random.Random,
    n_range=(2, 4),
    values: Sequence = (1, 2, 3),
) -> MetricPair:
    n = rng.randint(*n_range)
    space = random_space(rng, n, values)
    return MetricPair(space, random_subset(rng, n))


def random_tuple(
    rng: random.Random,
    k: int,
    n_range=(2, 4),
    values: Sequence = (1, 2, 3),
) -> MetricTuple:
    """Random tuple with a nested chain of k subset levels."""
    if k < 1:
        raise ValueError("chain needs at least one level")
    n = rng.randint(*n_range)
    space = random_space(rng, n, values)
    chain = []
    current = list(range(n))
    for _ in range(k):
        size = rng.randint(1, len(current))
        current = sorted(rng.sample(current, size))
        chain.append(tuple(current))
    return MetricTuple(space, tuple(chain))


def random_correspondence(
    rng: random.Random,
    left: MetricPair,
    right: MetricPair,
    extra: int = 2,
) -> PairCorrespondence:
    """Random valid correspondence: coverage maps in all four directions
    plus a few extra cells."""
    cells = set()
    nx, ny = left.space.n, right.space.n
    for x in range(nx):
        cells.add((x, rng.randrange(ny)))
    for y in range(ny):
        cells.add((rng.randrange(nx), y))
    for a in left.subset:
        cells.add((a, rng.choice(right.subset)))
    for b in right.subset:
        cells.add((rng.choice(left.subset), b))
    for _ in range(extra):
        cells.add((rng.randrange(nx), rng.randrange(ny)))
    corr = validate_correspondence(cells, left, right)
    if not isinstance(corr, PairCorrespondence):  # pragma: no cover - by construction
        raise RuntimeError("random correspondence failed coverage")
    return corr


def permute_pair(pair: MetricPair, perm: Sequence) -> MetricPair:
    """Relabel a pair along a permutation (new index i holds old perm[i])."""
    n = pair.space.n
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    rows = [[pair.space.dist[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    labels = tuple(pair.space.labels[perm[i]] for i in range(n))
    space = FiniteMetricSpace.from_matrix(rows, labels)
    inv = {old: new for new, old in enumerate(perm)}
    subset = tuple(sorted(inv[a] for a in pair.subset))
    return MetricPair(space, subset)


def random_permuted_pair(rng: random.Random, pair: MetricPair) -> MetricPair:
    perm = list(range(pair.space.n))
    rng.shuffle(perm)
    return permute_pair(pair, perm)
