"""One-complex approximation of a metric pair.

A net of the subset seeds a net of the whole space; short pairs become
weighted edges, and the shortest-path metric of that graph approximates
the original pair.  The pipeline tracks how the certified estimate decays
as the scale parameter grows.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import Scalar, as_index, value_class, zero_for
from .spaces import (
    FiniteMetricSpace,
    MetricPair,
    _on_integer_scale,
    _shortest_paths,
    _sup_abs_diff,
    covering_radius,
    greedy_net,
)

_SLACK = Fraction(1, 2**20)
# Relative slack on the net radius in float spaces (exact spaces use none):
# a candidate joins the net beyond nu * (1 - slack).  This is not the
# absolute comparison tolerance of float mode.
_FLOAT_NET_SLACK = 1e-6


@value_class
class ApproxParams:
    """Scale bundle at level n: net radius 10^-n, edge cutoff 5^-n.

    The stretch exponent mu(n) carries a 2^-20 safety margin so strict
    float comparisons do not sit on the boundary.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def nu(self) -> Fraction:
        return Fraction(1, 10**self.n)

    @property
    def theta(self) -> Fraction:
        return Fraction(1, 5**self.n)

    @property
    def mu(self) -> float:
        return self.n - math.log2(2**self.n - 2) + 2.0**-20


class DisconnectedComplexError(RuntimeError):
    """The edge set at this cutoff does not connect the vertices."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        first = self.pairs[0] if self.pairs else None
        super().__init__(
            f"{len(self.pairs)} vertex pairs are disconnected, first {first}"
        )


@value_class
class WeightedComplex:
    """Vertices (subset net first), flags, and the two weighted edge sets."""

    pair: MetricPair
    params: ApproxParams
    theta: Scalar
    vertices: tuple
    flags: tuple
    l_edges: tuple
    k_edges: tuple

    @property
    def core_size(self) -> int:
        return sum(1 for f in self.flags if f)


def build_complex(
    pair: MetricPair, params: ApproxParams, theta: Optional[Scalar] = None
) -> WeightedComplex:
    """Net the subset, extend to the space, connect strictly-short pairs.

    The greedy net scans the subset first, so the subset's members come
    first; they are the core.  Core edges are the edges between core
    vertices, with the same weight: restricting to the subset keeps
    distances.
    """
    space = pair.space
    slack = 0 if space.exact else _FLOAT_NET_SLACK
    vertices = greedy_net(space, params.nu, seed=pair.subset, tol=slack).members
    a_set = set(pair.subset)
    flags = tuple(v in a_set for v in vertices)
    cutoff = params.theta if theta is None else theta
    l_edges = []
    k_edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            w = space.dist[vertices[i]][vertices[j]]
            if w < cutoff:
                l_edges.append((i, j, w))
                if flags[i] and flags[j]:
                    k_edges.append((i, j, w))
    return WeightedComplex(
        pair, params, cutoff, vertices, flags, tuple(l_edges), tuple(k_edges)
    )


def _graph_apsp(nvert: int, edges, labels) -> FiniteMetricSpace:
    """Shortest-path metric of the edges; exact weights are searched on
    one integer scale, whose heap compares ints instead of fractions."""
    weights = [w for _, _, w in edges]
    scale, _, ints = _on_integer_scale(0, [weights])
    if scale is None:
        rows = _shortest_paths(nvert, edges)
    else:
        rows = _shortest_paths(
            nvert, [(u, v, w) for (u, v, _), w in zip(edges, ints[0])]
        )
        if any(isinstance(w, Fraction) for w in weights):
            # the diagonal stays the int 0 the search starts from
            rows = [
                [d if d is None or t == s else Fraction(d, scale)
                 for t, d in enumerate(row)]
                for s, row in enumerate(rows)
            ]
    missing = [
        (src, tgt)
        for src, dist in enumerate(rows)
        for tgt in range(nvert)
        if dist[tgt] is None
    ]
    if missing:
        raise DisconnectedComplexError(missing)
    return FiniteMetricSpace.from_matrix(rows, labels)


def graph_metric(cx: WeightedComplex) -> FiniteMetricSpace:
    """Exact shortest-path metric over all vertices via the long edges."""
    labels = tuple(cx.pair.space.labels[v] for v in cx.vertices)
    return _graph_apsp(len(cx.vertices), cx.l_edges, labels)


def subcomplex_metric(cx: WeightedComplex) -> FiniteMetricSpace:
    """Shortest-path metric of the flagged core under its own edges."""
    core = [i for i, f in enumerate(cx.flags) if f]
    pos = {v: t for t, v in enumerate(core)}
    edges = [(pos[i], pos[j], w) for i, j, w in cx.k_edges]
    labels = tuple(cx.pair.space.labels[cx.vertices[i]] for i in core)
    return _graph_apsp(len(core), edges, labels)


def complex_pair(cx: WeightedComplex) -> MetricPair:
    """The complex as a pair: graph metric with the flagged prefix."""
    space = graph_metric(cx)
    subset = tuple(i for i, f in enumerate(cx.flags) if f)
    return MetricPair(space, subset)


# ---------------------------------------------------------------------------
# diagnostics


@value_class
class StretchReport:
    """Graph distances against base distances on the vertex set."""

    lower_failures: tuple
    upper_failures: tuple
    worst_ratio: Optional[float]

    @property
    def ok(self) -> bool:
        return not self.lower_failures and not self.upper_failures


def stretch_report(cx: WeightedComplex, graph: Optional[FiniteMetricSpace] = None) -> StretchReport:
    """Check d_graph >= d_base and the float bound d_graph < 2^mu d_base + 5^-n."""
    if graph is None:
        graph = graph_metric(cx)
    base = cx.pair.space
    factor = 2.0 ** cx.params.mu
    shift = float(cx.params.theta)
    lower = []
    upper = []
    worst = None
    for i in range(len(cx.vertices)):
        for j in range(i + 1, len(cx.vertices)):
            dg = graph.dist[i][j]
            db = base.dist[cx.vertices[i]][cx.vertices[j]]
            if dg < db:
                lower.append((i, j))
            if not float(dg) < factor * float(db) + shift:
                upper.append((i, j))
            if db > 0:
                ratio = float(dg) / float(db)
                if worst is None or ratio > worst:
                    worst = ratio
    return StretchReport(tuple(lower), tuple(upper), worst)


def approximation_bound(params: ApproxParams, diameter: Scalar) -> float:
    """Closed-form distance bound for the complex at this scale.

    The bound is a float, so an exact diameter past the float range
    raises ValueError.
    """
    try:
        scaled = float(diameter)
    except OverflowError as exc:
        raise ValueError(
            f"diameter exceeds the float range (at most {sys.float_info.max:.3g})"
        ) from exc
    return (2.0**params.mu - 1.0) * scaled + float(params.theta)


# ---------------------------------------------------------------------------
# the decay pipeline


@value_class
class PipelineRow:
    n: int
    mu: float
    gh_bound: float
    net_estimate: Scalar
    eps: Scalar
    mismatch: Scalar
    covering: Scalar
    theta_eff: Scalar
    saturated: bool
    net_size: int
    core_size: int


@value_class
class PipelineResult:
    pair: MetricPair
    rows: tuple

    def csv_rows(self) -> list:
        out = [("n", "mu", "gh_bound", "net_estimate")]
        for row in self.rows:
            out.append((row.n, row.mu, row.gh_bound, row.net_estimate))
        return out


def _max_nearest(space: FiniteMetricSpace, members) -> Scalar:
    if len(members) < 2:
        return 0
    worst: Scalar = 0
    for v in members:
        best = None
        for w in members:
            if w == v:
                continue
            d = space.dist[v][w]
            if best is None or d < best:
                best = d
        if best > worst:
            worst = best
    return worst


def approximation_pipeline(
    pair: MetricPair,
    levels: Sequence[int] = (2, 3),
    saturate: bool = True,
) -> PipelineResult:
    """Run the complex construction across scales and certify estimates.

    With saturation the edge cutoff is pushed up to just above twice the
    largest nearest-neighbor gap of the net, so coarse nets stay
    connected; rows record when that kicked in.  The estimate is four
    times a strict matched-net radius, so it upper-bounds the exact
    distance between the original pair and the complex pair.
    """
    rows = []
    # the graph metric is exact exactly when the pair is
    zero = zero_for(*pair.space.dist)
    for n in sorted(set(as_index(v, "level") for v in levels)):
        params = ApproxParams(n)
        cx = build_complex(pair, params)
        floor = (2 + _SLACK) * _max_nearest(pair.space, cx.vertices) if saturate else 0
        saturated = floor > cx.theta
        if saturated:
            cx = build_complex(pair, params, theta=floor)
        graph = graph_metric(cx)
        mismatch = _sup_abs_diff(
            tuple(enumerate(cx.vertices)), graph.dist, pair.space.dist, zero
        )
        cov_full = covering_radius(pair.space, cx.vertices)
        core_pts = [cx.vertices[i] for i, f in enumerate(cx.flags) if f]
        cov_sub = covering_radius(pair.space, core_pts, over=pair.subset)
        covering = max(cov_full, cov_sub)
        eps = mismatch + covering + params.theta / 4
        estimate = 4 * eps
        rows.append(
            PipelineRow(
                n,
                params.mu,
                approximation_bound(params, pair.space.diameter()),
                estimate,
                eps,
                mismatch,
                covering,
                cx.theta,
                saturated,
                len(cx.vertices),
                cx.core_size,
            )
        )
    return PipelineResult(pair, tuple(rows))
