"""Acceptance gate: one test per numbered criterion.

Each test gathers every violation before asserting, then prints a single
summary line of the form "[criterion N] PASS/FAIL (...)" directly to the
terminal so the whole gate can be read at a glance.  Tolerances are
stated inline; exact-arithmetic checks use no tolerance at all.
"""

import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from metricpairs import (
    ApproxParams,
    FiniteMetricSpace,
    MetricPair,
    MetricTuple,
    PairCorrespondence,
    approximation_bound,
    approximation_pipeline,
    build_complex,
    circle_space,
    classical_glue,
    diagonal_distortion,
    distortion,
    distortion_stability,
    endpoint_distortion,
    enumerate_family,
    exact_pair_gh,
    exact_pair_gh_max,
    exact_tuple_gh,
    family_iso_classes,
    graph_metric,
    hypernet_distortion,
    interpolate,
    min_distortion,
    pair_hausdorff,
    pairs_isometric,
    random_correspondence,
    random_pair,
    rational_densify,
    rational_densify_pair,
    tight_glue,
    validate_correspondence,
    validate_metric,
    variant_sandwich,
)
from metricpairs.cli import main as cli_main
from metricpairs.scalars import half


def _report(capsys, num, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        sys.stdout.write(f"[criterion {num}] {'PASS' if ok else 'FAIL'}{tail}\n")


def _doubled(value) -> int:
    f = Fraction(value)
    two = f * 2
    assert two.denominator == 1, f"value {f} is not a half-integer"
    return int(two)


@pytest.fixture(scope="module")
def family():
    return enumerate_family()


@pytest.fixture(scope="module")
def doubled_sum(family):
    """Doubled summed-variant distances for every ordered family pair."""
    n = len(family)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            mat[i, j] = _doubled(exact_pair_gh(family[i], family[j]).value)
    return mat


@pytest.fixture(scope="module")
def doubled_max(family):
    """Doubled max-variant distances for every unordered family pair."""
    n = len(family)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            mat[i, j] = mat[j, i] = _doubled(
                exact_pair_gh_max(family[i], family[j]).value
            )
    return mat


# ---------------------------------------------------------------------------
# criterion 1: the exact oracle behaves like a distance on the full family


def test_criterion_01_oracle_self_consistency(family, doubled_sum, capsys):
    """Symmetry, zero-iff-isomorphic, and the triangle inequality over the
    exhaustive family of pairs with at most 3 points and distances in
    {1, 2, 3}.  Exact arithmetic, zero tolerance."""
    problems = []
    n = len(family)
    d = doubled_sum
    if not np.array_equal(d, d.T):
        problems.append("oracle is not symmetric")
    for i in range(n):
        for j in range(i, n):
            iso = pairs_isometric(family[i], family[j])
            if (d[i, j] == 0) != iso:
                problems.append(f"zero/isomorphism disagreement at ({i},{j})")
    for k in range(n):
        via = d[:, k : k + 1] + d[k : k + 1, :]
        if (d > via).any():
            problems.append(f"triangle inequality fails through index {k}")
            break
    ok = not problems
    _report(capsys, 1, ok, f"{n} instances, {n * n} ordered evaluations")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 2: distortion sandwich with a constructive upper certificate


def test_criterion_02_sandwich_with_constructive_upper(family, doubled_sum, capsys):
    """Half the minimal averaged distortion bounds the exact value from
    below; the minimal classical sup bounds it from above, certified by
    the standard gluing whose cross metric is validated outright and
    whose Hausdorff sum stays within twice the shift.  Zero tolerance."""
    problems = []
    n = len(family)
    checked = 0
    for i in range(n):
        for j in range(i, n):
            a, b = family[i], family[j]
            v = Fraction(int(doubled_sum[i, j]), 2)
            md = min_distortion(a, b, objective="distortion")
            ms = min_distortion(a, b, objective="sup_full")
            if not (md.optimal and ms.optimal):
                problems.append(f"search not exhaustive at ({i},{j})")
                continue
            lower = half(md.breakdown.value)
            s = ms.breakdown.sup_full
            if lower > v:
                problems.append(f"lower bound fails at ({i},{j}): {lower} > {v}")
            if s == 0:
                if v != 0:
                    problems.append(f"upper bound fails at ({i},{j}): {v} > 0")
                checked += 1
                continue
            if v > s:
                problems.append(f"upper bound fails at ({i},{j}): {v} > {s}")
            glue = classical_glue(ms.correspondence, eta=half(s))
            union = validate_metric(glue.cross.assemble().dist)
            if not isinstance(union, FiniteMetricSpace):
                problems.append(f"glued metric invalid at ({i},{j})")
            elif pair_hausdorff(glue.cross, a, b) > 2 * glue.eta:
                problems.append(f"glued Hausdorff sum too large at ({i},{j})")
            checked += 1
    ok = not problems
    _report(capsys, 2, ok, f"{checked} unordered pairs certified")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 3: the two documented discrepancies must be reproduced


def test_criterion_03_documented_discrepancies(capsys):
    """Two behaviors that are flagged, on purpose, as discrepancies with
    the idealized equalities: the exact value can sit strictly above half
    the minimal distortion, and the tight gluing can break the mixed
    triangle inequalities.  Both are reported, neither is an error."""
    problems = []

    two = FiniteMetricSpace.from_matrix([[0, 2], [2, 0]])
    left = MetricPair(two, (0,))
    right = MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,))
    value = exact_pair_gh(left, right).value
    lower = half(min_distortion(left, right, objective="distortion").breakdown.value)
    if value != 2:
        problems.append(f"probe value is {value}, expected 2")
    if lower != Fraction(1, 2):
        problems.append(f"probe lower bound is {lower}, expected 1/2")
    if value == 2 * lower:
        problems.append("expected a strict gap between value and half-distortion")

    one = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    pair = MetricPair(one, (0, 1))
    full = PairCorrespondence(pair, pair, ((0, 0), (0, 1), (1, 0), (1, 1)))
    glue = tight_glue(full, Fraction(1, 2))
    if glue.valid:
        problems.append("tight glue unexpectedly valid on the self-pair probe")
    kinds = {v[0] for v in glue.violations}
    if not any(k.endswith("lower") for k in kinds):
        problems.append(f"no mixed triangle violation reported, kinds were {kinds}")

    ok = not problems
    _report(capsys, 3, ok, "strict gap and invalid tight glue both reproduced")
    assert ok, "; ".join(problems)


# ---------------------------------------------------------------------------
# criterion 4: geodesic scaling identities in exact arithmetic


def test_criterion_04_geodesic_identities(capsys):
    """dis between interpolants at s and t equals |t-s| times dis(R);
    against the endpoints it scales by t and 1-t; every interpolant on an
    11-point rational grid is a valid metric.  100 random triples, zero
    tolerance."""
    rng = random.Random(401)
    problems = []
    grid = [Fraction(k, 10) for k in range(11)]
    for trial in range(100):
        lpair = random_pair(rng, (1, 3), (1, 2, 3))
        rpair = random_pair(rng, (1, 3), (1, 2, 3))
        corr = random_correspondence(rng, lpair, rpair)
        den = rng.choice((4, 5, 6, 8, 10, 12))
        s = Fraction(rng.randint(0, den), den)
        t = Fraction(rng.randint(0, den), den)
        base = distortion(corr)
        gap = t - s if t >= s else s - t
        diag = diagonal_distortion(corr, s, t)
        if diag.value != gap * base.value or diag.sup_full != gap * base.sup_full:
            problems.append(f"diagonal scaling fails on trial {trial}")
        left_end = endpoint_distortion(corr, t, side="left")
        right_end = endpoint_distortion(corr, t, side="right")
        if left_end.value != t * base.value:
            problems.append(f"left endpoint scaling fails on trial {trial}")
        if right_end.value != (1 - t) * base.value:
            problems.append(f"right endpoint scaling fails on trial {trial}")
        for u in grid:
            interp = interpolate(corr, u)
            if not isinstance(validate_metric(interp.space.dist), FiniteMetricSpace):
                problems.append(f"interpolant at {u} invalid on trial {trial}")
                break
    ok = not problems
    _report(capsys, 4, ok, "100 triples, 11-point grid each")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 5: distortion stability under relation perturbation


def test_criterion_05_distortion_stability(capsys):
    """|dis(R) - dis(S)| is at most 4 times the sum of the two Hausdorff
    gaps between the relations; 1000 random pairs over spaces with at
    most 4 points, zero violations, with a tally of how often the
    constant-1 form held as well."""
    rng = random.Random(5)
    problems = []
    constant1 = 0
    for trial in range(1000):
        lpair = random_pair(rng, (1, 4), (1, 2, 3))
        rpair = random_pair(rng, (1, 4), (1, 2, 3))
        r = random_correspondence(rng, lpair, rpair)
        s = random_correspondence(rng, lpair, rpair)
        report = distortion_stability(r, s)
        if not report.holds_factor4:
            problems.append(
                f"factor-4 bound fails on trial {trial}: "
                f"{report.lhs} > {report.bound4}"
            )
        if report.holds_constant1:
            constant1 += 1
    ok = not problems
    _report(capsys, 5, ok, f"constant-1 form held on {constant1}/1000")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 6: one-complex approximation pipeline on the sampled circle


def test_criterion_06_circle_pipeline(capsys):
    """64 evenly spaced points on a circumference-1 circle with a quarter
    arc distinguished: graph distances never undercut the base metric,
    the matched-net estimate shrinks from scale 2 to scale 3, and the
    reported coarse bound matches its closed form to 1e-12."""
    problems = []
    circle = circle_space(64, circumference=1)
    pair = MetricPair(circle, tuple(range(17)))
    result = approximation_pipeline(pair, levels=(2, 3))
    rows = {row.n: row for row in result.rows}
    if sorted(rows) != [2, 3]:
        problems.append(f"expected scales 2 and 3, got {sorted(rows)}")
    diam = float(circle.diameter())
    for n, row in sorted(rows.items()):
        params = ApproxParams(n)
        closed = (2**params.mu - 1) * diam + float(params.theta)
        if abs(row.gh_bound - closed) > 1e-12:
            problems.append(f"closed form mismatch at scale {n}")
        if abs(approximation_bound(params, circle.diameter()) - closed) > 1e-12:
            problems.append(f"bound helper disagrees at scale {n}")
        cx = build_complex(pair, params, theta=row.theta_eff)
        graph = graph_metric(cx)
        for i in range(len(cx.vertices)):
            for j in range(i + 1, len(cx.vertices)):
                if graph.dist[i][j] < circle.dist[cx.vertices[i]][cx.vertices[j]]:
                    problems.append(f"graph undercuts base at scale {n}")
                    break
            else:
                continue
            break
    mu2 = rows[2].mu if 2 in rows else None
    if mu2 is not None and abs(mu2 - (1 + 2**-20)) > 1e-15:
        problems.append(f"scale-2 exponent is {mu2}, expected 1 + 2^-20")
    if 2 in rows and 3 in rows:
        if rows[2].net_estimate <= 0 or rows[3].net_estimate <= 0:
            problems.append("estimates must be positive and finite")
        if rows[3].net_estimate > rows[2].net_estimate:
            problems.append("estimate increased from scale 2 to scale 3")
    ok = not problems
    detail = ""
    if 2 in rows and 3 in rows:
        detail = f"estimates {rows[2].net_estimate} -> {rows[3].net_estimate}"
    _report(capsys, 6, ok, detail)
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 7: induced-relation and variant inequalities


def _valid_masks(nl, subl, nr, subr):
    """All valid pair correspondences on an (nl, nr) cell grid, as lists
    of flat cell ids plus the sub-level cell ids, by exhaustive mask
    enumeration."""
    ncells = nl * nr
    out = []
    subl_set, subr_set = set(subl), set(subr)
    for mask in range(1, 1 << ncells):
        rows = set()
        cols = set()
        sub_rows = set()
        sub_cols = set()
        cells = []
        subcells = []
        for c in range(ncells):
            if not mask >> c & 1:
                continue
            i, j = divmod(c, nr)
            cells.append(c)
            rows.add(i)
            cols.add(j)
            if i in subl_set and j in subr_set:
                subcells.append(c)
                sub_rows.add(i)
                sub_cols.add(j)
        if (
            len(rows) == nl
            and len(cols) == nr
            and sub_rows == subl_set
            and sub_cols == subr_set
        ):
            out.append((cells, subcells))
    return out


def _span(table, cells):
    """Max and min of the difference table over distinct cell pairs."""
    if len(cells) < 2:
        return None, None
    hi = lo = None
    m = len(cells)
    for s in range(m):
        row = table[cells[s]]
        for t in range(s + 1, m):
            v = row[cells[t]]
            if hi is None or v > hi:
                hi = v
            if lo is None or v < lo:
                lo = v
    return hi, lo


def test_criterion_07_induced_and_variant_inequalities(
    family, doubled_sum, doubled_max, capsys
):
    """Part one: the induced product-space relation never distorts more
    than the pair correspondence, checked over every correspondence for
    every unordered pair of isomorphism-class representatives (both
    quantities are relabeling-invariant, so the representatives cover the
    whole family); a deterministic subsample is cross-checked against
    hypernet_distortion.  Part two: the max variant sits within a factor
    2 below the summed variant on the entire family, with the factor
    attained.  Zero tolerance throughout."""
    problems = []

    classes = family_iso_classes(family)
    reps = [family[c[0]] for c in classes]
    mask_cache = {}
    corr_count = 0
    tied = 0
    for ia in range(len(reps)):
        for ib in range(ia, len(reps)):
            a, b = reps[ia], reps[ib]
            nl, nr = a.space.n, b.space.n
            key = (nl, a.subset, nr, b.subset)
            if key not in mask_cache:
                mask_cache[key] = _valid_masks(nl, a.subset, nr, b.subset)
            dl, dr = a.space.dist, b.space.dist
            ncells = nl * nr
            table = [
                [
                    dl[c1 // nr][c2 // nr] - dr[c1 % nr][c2 % nr]
                    for c2 in range(ncells)
                ]
                for c1 in range(ncells)
            ]
            for cells, subcells in mask_cache[key]:
                su_hi, su_lo = _span(table, cells)
                sw_hi, sw_lo = _span(table, subcells)
                cands = []
                if su_hi is not None:
                    cands += [su_hi, -su_lo]
                if sw_hi is not None:
                    cands += [sw_hi, -sw_lo]
                if su_hi is not None and sw_hi is not None:
                    cands += [su_hi + sw_hi, -(su_lo + sw_lo)]
                net2 = max(cands) if cands else 0
                full2 = max(su_hi, -su_lo, 0) if su_hi is not None else 0
                sub2 = max(sw_hi, -sw_lo, 0) if sw_hi is not None else 0
                if net2 > full2 + sub2:
                    problems.append(
                        f"induced distortion exceeds pair distortion "
                        f"for reps ({ia},{ib})"
                    )
                if corr_count % 53 == 0:
                    corr = validate_correspondence(
                        [divmod(c, nr) for c in cells], a, b
                    )
                    if not isinstance(corr, PairCorrespondence):
                        problems.append(f"mask enumeration invalid at ({ia},{ib})")
                    else:
                        rep = hypernet_distortion(corr)
                        if (
                            not rep.holds
                            or 2 * rep.net_distortion != net2
                            or 2 * rep.pair_distortion != full2 + sub2
                        ):
                            problems.append(
                                f"hypernet cross-check fails at ({ia},{ib})"
                            )
                        tied += 1
                corr_count += 1

    ds, dm = doubled_sum, doubled_max
    n = len(family)
    upper = np.triu_indices(n)
    if (dm[upper] > ds[upper]).any():
        problems.append("max variant exceeds summed variant somewhere")
    if (ds[upper] > 2 * dm[upper]).any():
        problems.append("summed variant exceeds twice the max variant somewhere")
    attained = int(((ds[upper] == 2 * dm[upper]) & (dm[upper] > 0)).sum())
    if attained == 0:
        problems.append("factor 2 never attained on the family")
    probe = variant_sandwich(
        MetricPair(FiniteMetricSpace.from_matrix([[0, 2], [2, 0]]), (0,)),
        MetricPair(FiniteMetricSpace.from_matrix([[0]]), (0,)),
    )
    if probe.ratio != 2:
        problems.append(f"designated probe ratio is {probe.ratio}, expected 2")

    ok = not problems
    _report(
        capsys,
        7,
        ok,
        f"{corr_count} correspondences, {tied} tied to hypernet, "
        f"ratio 2 attained {attained} times",
    )
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 8: tuples agree with pairs and with the degenerate chain law


def test_criterion_08_tuple_consistency(capsys):
    """Chains of length one reproduce the pair distance on 50 random
    instances in both variants; fully degenerate chains on two-point
    spaces obey the (k+1)-fold scaling of the classical distance.  Zero
    tolerance."""
    rng = random.Random(88)
    problems = []
    for trial in range(50):
        lpair = random_pair(rng, (1, 3), (1, 2, 3))
        rpair = random_pair(rng, (1, 3), (1, 2, 3))
        lt = MetricTuple(lpair.space, (lpair.subset,))
        rt = MetricTuple(rpair.space, (rpair.subset,))
        if exact_tuple_gh(lt, rt).value != exact_pair_gh(lpair, rpair).value:
            problems.append(f"sum-variant tuple/pair mismatch on trial {trial}")
        if (
            exact_tuple_gh(lt, rt, variant="max").value
            != exact_pair_gh_max(lpair, rpair).value
        ):
            problems.append(f"max-variant tuple/pair mismatch on trial {trial}")
    for dx in (1, 2, 3):
        for dy in (1, 2, 3):
            x = FiniteMetricSpace.from_matrix([[0, dx], [dx, 0]])
            y = FiniteMetricSpace.from_matrix([[0, dy], [dy, 0]])
            classical = half(exact_pair_gh(MetricPair(x, (0, 1)), MetricPair(y, (0, 1))).value)
            for k in (1, 2, 3):
                chain = tuple((0, 1) for _ in range(k))
                tv = exact_tuple_gh(MetricTuple(x, chain), MetricTuple(y, chain)).value
                if tv != (k + 1) * classical:
                    problems.append(f"degenerate chain law fails at ({dx},{dy},{k})")
    ok = not problems
    _report(capsys, 8, ok, "50 random chains, 27 degenerate probes")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 9: densification validity and its oracle-confirmed certificate


def test_criterion_09_densification(capsys):
    """Rounding distances onto a 1/q grid keeps them a metric on 200
    random float inputs, and on every family instance the exact distance
    between a pair and its densification stays within the 4/q
    certificate."""
    rng = random.Random(909)
    problems = []
    for trial in range(200):
        npts = rng.randint(2, 6)
        rows = [[0.0] * npts for _ in range(npts)]
        for i in range(npts):
            for j in range(i + 1, npts):
                rows[i][j] = rows[j][i] = rng.uniform(1.0, 2.0)
        space = FiniteMetricSpace.from_matrix(rows)
        q = rng.randint(3, 12)
        res = rational_densify(space, q)
        if not isinstance(validate_metric(res.space.dist), FiniteMetricSpace):
            problems.append(f"densified space invalid on trial {trial}")
        if res.bound > Fraction(4, q):
            problems.append(f"certificate exceeds 4/q on trial {trial}")
    q = 5
    confirmed = 0
    for idx, member in enumerate(enumerate_family()):
        dense, bound = rational_densify_pair(member, q)
        value = exact_pair_gh(member, dense).value
        if bound > Fraction(4, q):
            problems.append(f"family certificate exceeds 4/q at {idx}")
        if value > bound:
            problems.append(f"oracle exceeds certificate at {idx}: {value} > {bound}")
        confirmed += 1
    ok = not problems
    _report(capsys, 9, ok, f"200 float inputs, {confirmed} oracle confirmations")
    assert ok, "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reports across seeds and repeated runs


def test_criterion_10_determinism(tmp_path, capsys):
    """Identical seeds and inputs give byte-identical command output
    across repeated runs."""
    problems = []

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    pair_doc = {"distances": [["0", "2"], ["2", "0"]], "subset": [0, 1]}
    corr_doc = {
        "left": pair_doc,
        "right": pair_doc,
        "pairs": [[0, 0], [1, 1]],
    }
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(pair_doc))
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps(corr_doc))
    point_doc = {"distances": [["0"]], "subset": [0]}
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps(point_doc))

    outputs = set()
    for _ in range(3):
        code, out = run(["sample", "pair", "--seed", "11"])
        if code != 0:
            problems.append("sample command failed")
        outputs.add(out)
    if len(outputs) != 1:
        problems.append("seeded sampling not byte-identical")

    outputs = set()
    for _ in range(3):
        code, out = run(["gh", "exact", "--input", str(pair_path), str(point_path)])
        if code != 0:
            problems.append("gh exact command failed")
        outputs.add(out)
    if len(outputs) != 1:
        problems.append("exact distance report not byte-identical")

    outputs = set()
    for _ in range(6):
        code, out = run(["geodesic", "audit", "--input", str(corr_path)])
        if code != 0:
            problems.append("geodesic audit command failed")
        outputs.add(out)
    if len(outputs) != 1:
        problems.append("audit report not byte-identical")

    circle_doc = {
        "distances": [
            [str(min(abs(i - j), 12 - abs(i - j))) for j in range(12)]
            for i in range(12)
        ],
        "subset": list(range(4)),
    }
    circle_path = tmp_path / "circle.json"
    circle_path.write_text(json.dumps(circle_doc))
    outputs = set()
    for _ in range(2):
        code, out = run(["cassorla", "run", "--input", str(circle_path), "--levels", "2"])
        if code != 0:
            problems.append("pipeline command failed")
        outputs.add(out)
    if len(outputs) != 1:
        problems.append("pipeline report not byte-identical")

    ok = not problems
    _report(capsys, 10, ok, "sample, exact, audit, pipeline")
    assert ok, "; ".join(problems)
