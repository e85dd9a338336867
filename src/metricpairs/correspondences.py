"""Correspondences between metric pairs/tuples and their distortion.

A pair correspondence projects onto both spaces and, restricted to the
distinguished subsets, onto both of those as well.  Its distortion averages
the full sup |dX - dY| with the per-level sups.  ``min_distortion`` searches
the relation lattice exhaustively on grids of at most ``_EXHAUSTIVE_CELLS``
cells and falls back to a local search beyond them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import Scalar, half, is_exact
from .spaces import (
    CrossMetric,
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    hausdorff,
    pair_hausdorff,
    product_max_metric,
)


_half = half

_EXHAUSTIVE_CELLS = 16
_LOCAL_ITERATIONS = 200


@dataclass(frozen=True)
class CorrespondenceViolations:
    """Which surjectivity conditions fail, with the uncovered witnesses."""

    uncovered_left: tuple
    uncovered_right: tuple
    uncovered_subset_left: tuple
    uncovered_subset_right: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.uncovered_left
            or self.uncovered_right
            or self.uncovered_subset_left
            or self.uncovered_subset_right
        )

    def as_dict(self) -> dict:
        return {
            "uncovered_left": list(self.uncovered_left),
            "uncovered_right": list(self.uncovered_right),
            "uncovered_subset_left": list(self.uncovered_subset_left),
            "uncovered_subset_right": list(self.uncovered_subset_right),
            "ok": self.ok,
        }


def _normalize_pairs(pairs, nx, ny):
    seen = sorted(set((int(i), int(j)) for i, j in pairs))
    if not seen:
        raise ValueError("relation must be nonempty")
    for i, j in seen:
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"relation pair ({i}, {j}) out of range")
    return tuple(seen)


@dataclass(frozen=True)
class PairCorrespondence:
    left: MetricPair
    right: MetricPair
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", _normalize_pairs(self.pairs, self.left.space.n, self.right.space.n)
        )

    def restricted(self) -> tuple:
        a, b = set(self.left.subset), set(self.right.subset)
        return tuple((i, j) for i, j in self.pairs if i in a and j in b)


@dataclass(frozen=True)
class TupleCorrespondence:
    left: MetricTuple
    right: MetricTuple
    pairs: tuple

    def __post_init__(self):
        if self.left.k != self.right.k:
            raise ValueError("tuples have different chain lengths")
        object.__setattr__(
            self, "pairs", _normalize_pairs(self.pairs, self.left.space.n, self.right.space.n)
        )

    def restricted(self, level: int) -> tuple:
        a = set(self.left.chain[level])
        b = set(self.right.chain[level])
        return tuple((i, j) for i, j in self.pairs if i in a and j in b)


def validate_correspondence(pairs, left: MetricPair, right: MetricPair):
    """Return the correspondence or a report of failed coverage conditions."""
    norm = _normalize_pairs(pairs, left.space.n, right.space.n)
    a, b = set(left.subset), set(right.subset)
    covered_x = {i for i, _ in norm}
    covered_y = {j for _, j in norm}
    sub = [(i, j) for i, j in norm if i in a and j in b]
    covered_a = {i for i, _ in sub}
    covered_b = {j for _, j in sub}
    report = CorrespondenceViolations(
        tuple(sorted(set(range(left.space.n)) - covered_x)),
        tuple(sorted(set(range(right.space.n)) - covered_y)),
        tuple(sorted(a - covered_a)),
        tuple(sorted(b - covered_b)),
    )
    if not report.ok:
        return report
    return PairCorrespondence(left, right, norm)


def validate_tuple_correspondence(pairs, left: MetricTuple, right: MetricTuple):
    norm = _normalize_pairs(pairs, left.space.n, right.space.n)
    covered_x = {i for i, _ in norm}
    covered_y = {j for _, j in norm}
    unc_a: list = []
    unc_b: list = []
    for lvl in range(left.k):
        a = set(left.chain[lvl])
        b = set(right.chain[lvl])
        sub = [(i, j) for i, j in norm if i in a and j in b]
        unc_a.extend((lvl, i) for i in sorted(a - {i for i, _ in sub}))
        unc_b.extend((lvl, j) for j in sorted(b - {j for _, j in sub}))
    report = CorrespondenceViolations(
        tuple(sorted(set(range(left.space.n)) - covered_x)),
        tuple(sorted(set(range(right.space.n)) - covered_y)),
        tuple(unc_a),
        tuple(unc_b),
    )
    if not report.ok:
        return report
    return TupleCorrespondence(left, right, norm)


@dataclass(frozen=True)
class DistortionBreakdown:
    sup_full: Scalar
    sup_levels: tuple
    value: Scalar

    def as_dict(self) -> dict:
        from .scalars import format_scalar

        return {
            "sup_full": format_scalar(self.sup_full),
            "sup_levels": [format_scalar(v) for v in self.sup_levels],
            "value": format_scalar(self.value),
        }


def _sup_abs_diff(pairs, dx, dy) -> Scalar:
    best: Scalar = 0
    m = len(pairs)
    for s in range(m):
        i, j = pairs[s]
        dxi, dyj = dx[i], dy[j]
        for t in range(s + 1, m):
            i2, j2 = pairs[t]
            diff = dxi[i2] - dyj[j2]
            if diff < 0:
                diff = -diff
            if diff > best:
                best = diff
    return best


def distortion(corr) -> DistortionBreakdown:
    """Distortion breakdown: full sup, per-level sups, averaged value."""
    dx = corr.left.space.dist
    dy = corr.right.space.dist
    full = _sup_abs_diff(corr.pairs, dx, dy)
    if isinstance(corr, PairCorrespondence):
        levels = (_sup_abs_diff(corr.restricted(), dx, dy),)
    else:
        levels = tuple(
            _sup_abs_diff(corr.restricted(l), dx, dy) for l in range(corr.left.k)
        )
    total = full
    for v in levels:
        total = total + v
    k1 = len(levels) + 1
    value = Fraction(total, k1) if is_exact(total) else total / k1
    return DistortionBreakdown(full, levels, value)


@dataclass(frozen=True)
class MinDistortionResult:
    correspondence: PairCorrespondence
    breakdown: DistortionBreakdown
    optimal: bool


def _objective_value(s_full, s_sub, objective):
    if objective == "sup_full":
        return s_full
    return s_full + s_sub  # doubled distortion; halved at the end


def _search_exhaustive(left: MetricPair, right: MetricPair, objective: str):
    """Depth-first include/exclude search over the cell grid.

    Cells are scanned in lexicographic order with include tried first, so
    the first incumbent at the optimal value is the lexicographically
    smallest relation; pruning at bound >= incumbent preserves it.
    Forced cells (last candidate of an uncovered requirement) are included
    eagerly.
    """
    nx, ny = left.space.n, right.space.n
    ncells = nx * ny
    dx, dy = left.space.dist, right.space.dist
    a_set, b_set = set(left.subset), set(right.subset)
    groups: list = []
    for i in range(nx):
        groups.append([i * ny + j for j in range(ny)])
    for j in range(ny):
        groups.append([i * ny + j for i in range(nx)])
    for i in left.subset:
        groups.append([i * ny + j for j in right.subset])
    for j in right.subset:
        groups.append([i * ny + j for i in left.subset])
    cell_groups = [[] for _ in range(ncells)]
    for gi, members in enumerate(groups):
        for c in members:
            cell_groups[c].append(gi)
    restricted = [
        (c // ny) in a_set and (c % ny) in b_set for c in range(ncells)
    ]

    best_value: list = [None, None]  # value, cells tuple

    def run(pos, status, group_in, group_avail, included, s_full, s_sub):
        # propagate forced inclusions and detect dead requirements
        while True:
            forced = None
            for gi, members in enumerate(groups):
                if group_in[gi] > 0:
                    continue
                if group_avail[gi] == 0:
                    return
                if group_avail[gi] == 1:
                    for c in members:
                        if status[c] == 0:
                            forced = c
                            break
                    if forced is not None:
                        break
            if forced is None:
                break
            status[forced] = 1
            i, j = divmod(forced, ny)
            for c2 in included:
                i2, j2 = divmod(c2, ny)
                diff = dx[i][i2] - dy[j][j2]
                if diff < 0:
                    diff = -diff
                if diff > s_full:
                    s_full = diff
                if restricted[forced] and restricted[c2] and diff > s_sub:
                    s_sub = diff
            included.append(forced)
            for gi in cell_groups[forced]:
                group_in[gi] += 1
        bound = _objective_value(s_full, s_sub, objective)
        if best_value[0] is not None and not bound < best_value[0]:
            return
        while pos < ncells and status[pos] != 0:
            pos += 1
        if pos == ncells:
            best_value[0] = bound
            best_value[1] = tuple(sorted(included))
            return
        # include branch
        i, j = divmod(pos, ny)
        nf, ns = s_full, s_sub
        for c2 in included:
            i2, j2 = divmod(c2, ny)
            diff = dx[i][i2] - dy[j][j2]
            if diff < 0:
                diff = -diff
            if diff > nf:
                nf = diff
            if restricted[pos] and restricted[c2] and diff > ns:
                ns = diff
        st = list(status)
        st[pos] = 1
        gin = list(group_in)
        for gi in cell_groups[pos]:
            gin[gi] += 1
        run(pos + 1, st, gin, list(group_avail), included + [pos], nf, ns)
        # exclude branch
        st = list(status)
        st[pos] = -1
        gav = list(group_avail)
        for gi in cell_groups[pos]:
            gav[gi] -= 1
        run(pos + 1, st, list(group_in), gav, list(included), s_full, s_sub)

    run(
        0,
        [0] * ncells,
        [0] * len(groups),
        [len(m) for m in groups],
        [],
        0,
        0,
    )
    cells = best_value[1]
    pairs = tuple(divmod(c, ny) for c in cells)
    return pairs


def _profile(space: FiniteMetricSpace, i: int) -> tuple:
    return tuple(sorted(space.dist[i]))


def _profile_cost(pa, pb) -> Scalar:
    la, lb = len(pa), len(pb)
    n = max(la, lb)
    worst: Scalar = 0
    for t in range(n):
        va = pa[t] if t < la else pa[-1]
        vb = pb[t] if t < lb else pb[-1]
        diff = va - vb
        if diff < 0:
            diff = -diff
        if diff > worst:
            worst = diff
    return worst


def _heuristic_start(left: MetricPair, right: MetricPair) -> set:
    """Union of profile-nearest maps in all four required directions."""
    sx, sy = left.space, right.space
    ax, by = left.subset, right.subset
    sub_x, sub_y = left.subset_space, right.subset_space
    cells = set()
    prof_x = [_profile(sx, i) for i in range(sx.n)]
    prof_y = [_profile(sy, j) for j in range(sy.n)]
    for i in range(sx.n):
        j = min(range(sy.n), key=lambda j: (_profile_cost(prof_x[i], prof_y[j]), j))
        cells.add((i, j))
    for j in range(sy.n):
        i = min(range(sx.n), key=lambda i: (_profile_cost(prof_x[i], prof_y[j]), i))
        cells.add((i, j))
    prof_a = [_profile(sub_x, t) for t in range(sub_x.n)]
    prof_b = [_profile(sub_y, t) for t in range(sub_y.n)]
    for t, i in enumerate(ax):
        u = min(range(len(by)), key=lambda u: (_profile_cost(prof_a[t], prof_b[u]), u))
        cells.add((i, by[u]))
    for u, j in enumerate(by):
        t = min(range(len(ax)), key=lambda t: (_profile_cost(prof_a[t], prof_b[u]), t))
        cells.add((ax[t], j))
    return cells


def _relation_value(cells, left, right, objective):
    corr = PairCorrespondence(left, right, tuple(cells))
    br = distortion(corr)
    if objective == "sup_full":
        return br.sup_full, br
    return br.value, br


def _is_valid_relation(cells, left, right) -> bool:
    return isinstance(validate_correspondence(cells, left, right), PairCorrespondence)


def _local_search(left: MetricPair, right: MetricPair, objective):
    cells = set(_heuristic_start(left, right))
    value, _ = _relation_value(cells, left, right, objective)
    all_cells = [(i, j) for i in range(left.space.n) for j in range(right.space.n)]
    for _ in range(_LOCAL_ITERATIONS):
        improved = False
        for cell in all_cells:
            if cell in cells:
                if len(cells) == 1:
                    continue
                trial = cells - {cell}
                if not _is_valid_relation(trial, left, right):
                    continue
            else:
                trial = cells | {cell}
            trial_value, _ = _relation_value(trial, left, right, objective)
            if trial_value < value:
                cells, value = trial, trial_value
                improved = True
                break
        if not improved:
            break
    return tuple(sorted(cells))


def min_distortion(
    left: MetricPair,
    right: MetricPair,
    objective: str = "distortion",
) -> MinDistortionResult:
    """Minimize distortion (or the full sup) over all pair correspondences.

    Exhaustive branch-and-bound when |X|*|Y| is at most _EXHAUSTIVE_CELLS
    (ties broken toward the lexicographically smallest relation),
    profile-matching plus add/remove local search beyond it (optimal flag
    False).
    """
    if objective not in ("distortion", "sup_full"):
        raise ValueError(f"unknown objective {objective!r}")
    ncells = left.space.n * right.space.n
    if ncells <= _EXHAUSTIVE_CELLS:
        pairs = _search_exhaustive(left, right, objective)
        optimal = True
    else:
        pairs = _local_search(left, right, objective)
        optimal = False
    corr = validate_correspondence(pairs, left, right)
    if not isinstance(corr, PairCorrespondence):  # pragma: no cover - search invariant
        raise RuntimeError("search produced an invalid correspondence")
    return MinDistortionResult(corr, distortion(corr), optimal)


def brute_force_min_distortion(left: MetricPair, right: MetricPair, objective="distortion"):
    """Oracle: enumerate every relation subset.  Only for tiny grids."""
    nx, ny = left.space.n, right.space.n
    ncells = nx * ny
    if ncells > 20:
        raise ValueError("brute force limited to 20 cells")
    all_cells = [(i, j) for i in range(nx) for j in range(ny)]
    best = None
    for mask in range(1, 1 << ncells):
        cells = [all_cells[c] for c in range(ncells) if mask >> c & 1]
        corr = validate_correspondence(cells, left, right)
        if not isinstance(corr, PairCorrespondence):
            continue
        br = distortion(corr)
        value = br.sup_full if objective == "sup_full" else br.value
        key = (value, tuple(sorted(cells)))
        if best is None or key < best[0]:
            best = (key, corr, br)
    return MinDistortionResult(best[1], best[2], True)


# ---------------------------------------------------------------------------
# gluing constructions


@dataclass(frozen=True)
class GlueReport:
    """A candidate cross metric, its violations, and the pair sum if valid."""

    cross: CrossMetric
    violations: tuple
    valid: bool
    pair_sum: Optional[Scalar]


def _min_through(pairs, dx_row, dy_col):
    return min(dx_row[i] + dy_col[j] for i, j in pairs)


def tight_glue(corr: PairCorrespondence, r: Scalar) -> GlueReport:
    """Cross metric delta(x,y) = r/2 + min over R of dX(x,x') + dY(y',y).

    The shift r/2 aims at half the distortion radius; nothing guarantees
    the mixed triangle inequalities, so validity is checked and reported
    rather than assumed.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    sx, sy = corr.left.space, corr.right.space
    shift = _half(r)
    rows = tuple(
        tuple(
            shift + _min_through(corr.pairs, sx.dist[x], sy.dist[y])
            for y in range(sy.n)
        )
        for x in range(sx.n)
    )
    cross = CrossMetric(sx, sy, rows)
    violations = tuple(cross.check())
    valid = not violations
    total = pair_hausdorff(cross, corr.left, corr.right) if valid else None
    return GlueReport(cross, violations, valid, total)


@dataclass(frozen=True)
class ClassicalGlue:
    cross: CrossMetric
    eta: Scalar


def default_glue_shift(corr: PairCorrespondence) -> Scalar:
    """Smallest usable eta: half the full sup, or a tiny positive fallback."""
    s = distortion(corr).sup_full
    if s > 0:
        return _half(s)
    floor = Fraction(1, 2**20)
    mp = []
    for sp in (corr.left.space, corr.right.space):
        v = sp.min_positive()
        if v is not None:
            mp.append(v)
    if mp:
        small = min(mp)
        return small * floor if is_exact(small) else float(small) * float(floor)
    return floor


def classical_glue(corr: PairCorrespondence, eta: Optional[Scalar] = None) -> ClassicalGlue:
    """Standard gluing delta(x,y) = min over R of dX(x,x') + eta + dY(y',y).

    Requires eta > 0 and 2*eta >= sup_full; the result always satisfies the
    cross-metric conditions and pair_hausdorff is at most 2*eta.
    """
    s = distortion(corr).sup_full
    if eta is None:
        eta = default_glue_shift(corr)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if 2 * eta < s:
        raise ValueError("eta must be at least half the full sup")
    sx, sy = corr.left.space, corr.right.space
    rows = tuple(
        tuple(
            eta + _min_through(corr.pairs, sx.dist[x], sy.dist[y])
            for y in range(sy.n)
        )
        for x in range(sx.n)
    )
    return ClassicalGlue(CrossMetric(sx, sy, rows), eta)


# ---------------------------------------------------------------------------
# stability of distortion under Hausdorff perturbation of the relation


@dataclass(frozen=True)
class StabilityReport:
    """|dis R - dis S| against Hausdorff distances in the max product metric."""

    lhs: Scalar
    hausdorff_full: Scalar
    hausdorff_restricted: Scalar

    @property
    def bound4(self) -> Scalar:
        return 4 * (self.hausdorff_full + self.hausdorff_restricted)

    @property
    def holds_factor4(self) -> bool:
        return self.lhs <= self.bound4

    @property
    def holds_constant1(self) -> bool:
        return self.lhs <= self.hausdorff_full


def distortion_stability(r: PairCorrespondence, s: PairCorrespondence) -> StabilityReport:
    if r.left != s.left or r.right != s.right:
        raise ValueError("correspondences must share the same pair contexts")
    product = product_max_metric(r.left.space, r.right.space)
    flat_r = [product.index(i, j) for i, j in r.pairs]
    flat_s = [product.index(i, j) for i, j in s.pairs]
    full = hausdorff(product.space, flat_r, flat_s)
    flat_r_sub = [product.index(i, j) for i, j in r.restricted()]
    flat_s_sub = [product.index(i, j) for i, j in s.restricted()]
    sub = hausdorff(product.space, flat_r_sub, flat_s_sub)
    da, db = distortion(r).value, distortion(s).value
    lhs = da - db if da >= db else db - da
    return StabilityReport(lhs, full, sub)
