"""Correspondences between metric pairs/tuples and their distortion.

A pair is a tuple with one subset level.  A correspondence projects onto
both spaces and, restricted to each pair of levels, onto both of those as
well; the types check this coverage when they are built.  Its distortion
averages the sup |dX - dY| over the levels, the full spaces first.
``min_distortion`` runs the witness search of ``oracle`` on grids of at
most ``_EXHAUSTIVE_CELLS`` cells, over the unions of four maps that every
covering relation contains, and falls back to a local search beyond them.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .scalars import (
    Scalar,
    as_index,
    check_positive,
    format_scalar,
    half,
    left_sum,
    quotient,
    value_class,
    zero_for,
)
from .spaces import (
    CrossMetric,
    MetricPair,
    MetricTuple,
    _glue_block,
    _level_pairs,
    _sup_abs_diff,
    hausdorff,
    pair_hausdorff,
    product_max_metric,
)

_EXHAUSTIVE_CELLS = 16


@value_class
class CorrespondenceViolations:
    """Which surjectivity conditions fail, with the uncovered witnesses.

    A pair lists the uncovered subset points; a tuple lists them as
    (chain level, point).
    """

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


class UncoveredRelationError(ValueError):
    """A relation misses a point of some level; carries the coverage report."""

    def __init__(self, report: CorrespondenceViolations):
        super().__init__(report)
        self.report = report

    def __str__(self) -> str:
        # formatted when shown, not on each validate_* call that catches it
        return f"relation does not cover the pairs: {self.report.as_dict()}"


def _normalize_pairs(pairs, nx, ny):
    seen = sorted(set((as_index(i, "pairs"), as_index(j, "pairs")) for i, j in pairs))
    if not seen:
        raise ValueError("relation must be nonempty")
    for i, j in seen:
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"relation pair ({i}, {j}) out of range")
    return tuple(seen)


def _restricted(pairs, a, b) -> tuple:
    """The cells of ``pairs`` with left index in ``a`` and right index in ``b``."""
    a, b = set(a), set(b)
    return tuple((i, j) for i, j in pairs if i in a and j in b)


def _cell_mask(cells, ny: int) -> int:
    """Distinct cells (i, j) as one int over the flat index i * ny + j."""
    return sum(1 << i * ny + j for i, j in cells)


def _cover_masks(left, right) -> list:
    """(level, side, point, mask) per point of each level pair, outermost
    level first and its left points (side 0) before its right ones.  The
    mask holds the point's row (column) cells within the level; a relation
    covers every level exactly when its own cell mask meets every mask."""
    ny = right.space.n
    masks = []
    for lvl, (ll, lr) in enumerate(_level_pairs(left, right)):
        row, col = sum(1 << j for j in lr), sum(1 << i * ny for i in ll)
        masks += [(lvl, 0, i, row << i * ny) for i in ll] + [(lvl, 1, j, col << j) for j in lr]
    return masks


def _coverage(pairs, left, right, tagged: bool) -> CorrespondenceViolations:
    """The points whose cover mask misses ``pairs``, outermost level first;
    the subset levels' misses carry their chain level when ``tagged``."""
    rel = _cell_mask(pairs, right.space.n)
    missed = [(lvl, side, p) for lvl, side, p, m in _cover_masks(left, right) if not m & rel]
    full_l, full_r = (tuple(p for lvl, s, p in missed if not lvl and s == side) for side in (0, 1))
    sub_l, sub_r = (
        tuple((lvl - 1, p) if tagged else p for lvl, s, p in missed if lvl and s == side)
        for side in (0, 1)
    )
    return CorrespondenceViolations(full_l, full_r, sub_l, sub_r)


def _cover(corr, tagged: bool) -> None:
    """Normalize ``corr.pairs`` in place and raise UncoveredRelationError
    unless the relation covers every level on both sides."""
    pairs = _normalize_pairs(corr.pairs, corr.left.space.n, corr.right.space.n)
    object.__setattr__(corr, "pairs", pairs)
    report = _coverage(pairs, corr.left, corr.right, tagged)
    if not report.ok:
        raise UncoveredRelationError(report)


@value_class
class PairCorrespondence:
    left: MetricPair
    right: MetricPair
    pairs: tuple

    def __post_init__(self):
        _cover(self, tagged=False)

    def restricted(self) -> tuple:
        return _restricted(self.pairs, self.left.subset, self.right.subset)


@value_class
class TupleCorrespondence:
    left: MetricTuple
    right: MetricTuple
    pairs: tuple

    def __post_init__(self):
        if self.left.k != self.right.k:
            raise ValueError("tuples have different chain lengths")
        _cover(self, tagged=True)

    def restricted(self, level: int) -> tuple:
        return _restricted(self.pairs, self.left.chain[level], self.right.chain[level])


def validate_correspondence(pairs, left: MetricPair, right: MetricPair):
    """Return the correspondence or a report of failed coverage conditions."""
    try:
        return PairCorrespondence(left, right, pairs)
    except UncoveredRelationError as exc:
        return exc.report


def validate_tuple_correspondence(pairs, left: MetricTuple, right: MetricTuple):
    """Return the correspondence or a report of failed coverage conditions;
    chains of different lengths raise ValueError."""
    try:
        return TupleCorrespondence(left, right, pairs)
    except UncoveredRelationError as exc:
        return exc.report


@value_class
class DistortionBreakdown:
    sup_full: Scalar
    sup_levels: tuple
    value: Scalar

    def as_dict(self) -> dict:
        return {
            "sup_full": format_scalar(self.sup_full),
            "sup_levels": [format_scalar(v) for v in self.sup_levels],
            "value": format_scalar(self.value),
        }


def distortion(corr) -> DistortionBreakdown:
    """Distortion breakdown: full sup, per-level sups, averaged value."""
    dx, dy = corr.left.space.dist, corr.right.space.dist
    zero = zero_for(*dx, *dy)
    full, *levels = sups = [
        _sup_abs_diff(_restricted(corr.pairs, ll, lr), dx, dy, zero)
        for ll, lr in _level_pairs(corr.left, corr.right)
    ]
    return DistortionBreakdown(full, tuple(levels), quotient(left_sum(sups), len(sups)))


@value_class
class MinDistortionResult:
    correspondence: PairCorrespondence
    breakdown: DistortionBreakdown
    optimal: bool


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
    """Union of profile-nearest maps both ways on every level, each point
    profiled by its sorted distances within the level."""
    dx, dy = left.space.dist, right.space.dist
    cells = set()
    for ll, lr in _level_pairs(left, right):
        prof_x = [tuple(sorted(dx[i][k] for k in ll)) for i in ll]
        prof_y = [tuple(sorted(dy[j][k] for k in lr)) for j in lr]
        for t, i in enumerate(ll):
            u = min(range(len(lr)), key=lambda u: (_profile_cost(prof_x[t], prof_y[u]), u))
            cells.add((i, lr[u]))
        for u, j in enumerate(lr):
            t = min(range(len(ll)), key=lambda t: (_profile_cost(prof_x[t], prof_y[u]), t))
            cells.add((ll[t], j))
    return cells


def _local_search(left: MetricPair, right: MetricPair, objective):
    """Remove one cell at a time while the objective strictly drops: the
    first cell in sorted order whose removal keeps every level covered
    and lowers the objective goes, then the scan starts over, until no
    removal lowers it.  Adding a cell never lowers either sup, so no cell
    is ever added."""
    dx, dy = left.space.dist, right.space.dist
    zero = zero_for(*dx, *dy)
    ny = right.space.n
    groups = [m for *_, m in _cover_masks(left, right)]

    def price(cells):
        pairs = sorted(cells)
        s_full = _sup_abs_diff(pairs, dx, dy, zero)
        if objective == "sup_full":
            return s_full
        # doubled distortion, as the witness search prices it
        restricted = _restricted(pairs, left.subset, right.subset)
        return s_full + _sup_abs_diff(restricted, dx, dy, zero)

    cells = _heuristic_start(left, right)
    value = price(cells)
    while True:
        rel = _cell_mask(cells, ny)
        for cell in sorted(cells):
            rest = rel & ~_cell_mask((cell,), ny)
            if not all(g & rest for g in groups):
                continue
            trial = cells - {cell}
            trial_value = price(trial)
            if trial_value < value:
                cells, value = trial, trial_value
                break
        else:
            break
    return tuple(sorted(cells))


def _exhaustive(left: MetricPair, right: MetricPair) -> bool:
    """Whether ``min_distortion`` searches every relation of the pair."""
    return left.space.n * right.space.n <= _EXHAUSTIVE_CELLS


def min_distortion(
    left: MetricPair,
    right: MetricPair,
    objective: str = "distortion",
) -> MinDistortionResult:
    """Minimize distortion (or the full sup) over all pair correspondences.

    When |X|*|Y| is at most _EXHAUSTIVE_CELLS, the witness search
    (``oracle._least_union``, with no budget) finds the least over the
    unions of maps X -> Y, Y -> X, A -> B and B -> A, which is the least
    over all relations, as each contains such a union and both sups only
    grow with the relation; its map-union variant of the objective's name
    prices each union.  The relation returned is the union of the
    entries of the first optimal witness, so ties resolve in the search's
    order (subset-level slots first, each filled by the child of least
    value, then least target index), not lexicographically as in
    ``brute_force_min_distortion``.  Beyond that size, profile-matching
    plus greedy cell removal (optimal flag False).
    """
    if objective not in ("distortion", "sup_full"):
        raise ValueError(f"unknown objective {objective!r}")
    if _exhaustive(left, right):
        from .oracle import _least_union  # here, so larger grids never load oracle and lp

        pairs = _least_union(left, right, objective)
        optimal = True
    else:
        pairs = _local_search(left, right, objective)
        optimal = False
    corr = PairCorrespondence(left, right, pairs)
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


@value_class
class GlueReport:
    """A candidate cross metric, its violations, and the pair sum if valid."""

    cross: CrossMetric
    violations: tuple
    valid: bool
    pair_sum: Optional[Scalar]


def _glued(corr: PairCorrespondence, shift: Scalar) -> CrossMetric:
    """Cross block shift + min over R of dX(x,x') + dY(y,y'), glued through
    R's cells at weight 0.  The kernel builds the transposed block, the
    least over y' first, so ties resolve in R's sorted order, scalar types
    included, as a flat scan over R would."""
    sx, sy = corr.left.space, corr.right.space
    block = _glue_block(sy.dist, [(j, i, 0) for i, j in corr.pairs], tuple(zip(*sx.dist)))
    return CrossMetric(sx, sy, [[shift + v for v in col] for col in zip(*block)])


def tight_glue(corr: PairCorrespondence, r: Scalar) -> GlueReport:
    """Cross metric delta(x,y) = r/2 + min over R of dX(x,x') + dY(y',y).

    The shift r/2 aims at half the distortion radius; nothing guarantees
    the mixed triangle inequalities, so validity is checked and reported
    rather than assumed.
    """
    check_positive(r, "r")
    cross = _glued(corr, half(r))
    violations = tuple(cross.check())
    valid = not violations
    total = pair_hausdorff(cross, corr.left, corr.right) if valid else None
    return GlueReport(cross, violations, valid, total)


@value_class
class ClassicalGlue:
    cross: CrossMetric
    eta: Scalar


def default_glue_shift(corr: PairCorrespondence) -> Scalar:
    """Smallest usable eta: half the full sup, or a tiny positive fallback."""
    s = distortion(corr).sup_full
    if s > 0:
        return half(s)
    floor = Fraction(1, 2**20)
    mp = []
    for sp in (corr.left.space, corr.right.space):
        v = sp.min_positive()
        if v is not None:
            mp.append(v)
    if mp:
        return min(mp) * floor  # a float times a Fraction is a float
    # adding the operands' zero makes the fallback float in float mode
    return floor + zero_for(*corr.left.space.dist, *corr.right.space.dist)


def classical_glue(corr: PairCorrespondence, eta: Optional[Scalar] = None) -> ClassicalGlue:
    """Standard gluing delta(x,y) = min over R of dX(x,x') + eta + dY(y',y).

    Requires eta > 0 and 2*eta >= sup_full; the result always satisfies the
    cross-metric conditions and pair_hausdorff is exactly 2*eta.  Only a
    given eta is checked: the default shift meets both conditions.
    """
    if eta is None:
        eta = default_glue_shift(corr)
    else:
        check_positive(eta, "eta")
        if 2 * eta < distortion(corr).sup_full:
            raise ValueError("eta must be at least half the full sup")
    return ClassicalGlue(_glued(corr, eta), eta)


# ---------------------------------------------------------------------------
# stability of distortion under Hausdorff perturbation of the relation


@value_class
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
    full, sub = (
        hausdorff(
            product.space,
            [product.index(i, j) for i, j in _restricted(r.pairs, ll, lr)],
            [product.index(i, j) for i, j in _restricted(s.pairs, ll, lr)],
        )
        for ll, lr in _level_pairs(r.left, r.right)
    )
    da, db = distortion(r).value, distortion(s).value
    lhs = da - db if da >= db else db - da
    return StabilityReport(lhs, full, sub)
