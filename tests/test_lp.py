from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricpairs.lp import Constraint, LinearProgram, LPResult, solve_lp


def _lp(objective, rows):
    prog = LinearProgram(tuple(Fraction(c) for c in objective))
    for coeffs, sense, rhs in rows:
        prog.add([Fraction(c) for c in coeffs], sense, Fraction(rhs))
    return prog


def test_textbook_minimum():
    # min x + y  s.t.  x + 2y >= 4,  3x + y >= 6,  x,y >= 0
    prog = _lp((1, 1), [((1, 2), ">=", 4), ((3, 1), ">=", 6)])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == Fraction(14, 5)
    x, y = result.solution
    assert x + 2 * y >= 4 and 3 * x + y >= 6


def test_equality_constraint():
    # min 2x + 3y  s.t.  x + y == 5,  y - x >= 1
    prog = _lp((2, 3), [((1, 1), "==", 5), ((-1, 1), ">=", 1)])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == 13
    assert result.solution == (Fraction(2), Fraction(3))


def test_upper_bounds_only():
    # min -x - y  s.t.  x <= 2, y <= 3  (maximize x + y on a box)
    prog = _lp((-1, -1), [((1, 0), "<=", 2), ((0, 1), "<=", 3)])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == -5


def test_infeasible_detected():
    prog = _lp((1,), [((1,), ">=", 3), ((1,), "<=", 1)])
    assert solve_lp(prog).status == "infeasible"


def test_unbounded_detected():
    prog = _lp((-1,), [((1,), ">=", 0)])
    assert solve_lp(prog).status == "unbounded"


def test_negative_rhs_normalization():
    # x >= -1 is inactive for x >= 0; minimum of x is 0.
    prog = _lp((1,), [((1,), ">=", -1)])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == 0


def test_redundant_equalities():
    prog = _lp((1, 1), [((1, 1), "==", 2), ((2, 2), "==", 4)])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == 2


def test_rejects_bad_sense():
    prog = _lp((1,), [])
    with pytest.raises(ValueError):
        prog.add([Fraction(1)], "<", Fraction(0))


def test_solution_is_exact_rational():
    prog = _lp((1, 1, 1), [((1, 1, 0), ">=", Fraction(1, 3)),
                           ((0, 1, 1), ">=", Fraction(1, 7)),
                           ((1, 0, 1), ">=", Fraction(2, 5))])
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert all(isinstance(v, Fraction) for v in result.solution)
    assert isinstance(result.value, Fraction)


def test_matches_scipy_on_random_covers():
    """Random covering programs, checked against the float solver."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(41)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        nrows = rng.randint(2, 6)
        objective = [Fraction(rng.randint(1, 5)) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [Fraction(rng.randint(0, 3)) for _ in range(nvars)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(nvars)] = Fraction(1)
            rows.append((coeffs, ">=", Fraction(rng.randint(1, 8))))
        prog = LinearProgram(tuple(objective))
        for coeffs, sense, rhs in rows:
            prog.add(coeffs, sense, rhs)
        result = solve_lp(prog)
        assert result.status == "optimal"

        a_ub = [[-float(c) for c in coeffs] for coeffs, _, _ in rows]
        b_ub = [-float(rhs) for _, _, rhs in rows]
        ref = scipy_opt.linprog(
            [float(c) for c in objective], A_ub=a_ub, b_ub=b_ub, method="highs"
        )
        assert ref.status == 0
        assert abs(float(result.value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))


def test_degenerate_cycling_guard():
    """A classic degenerate instance; Bland's rule must terminate."""
    prog = _lp(
        (Fraction(-3, 4), 150, Fraction(-1, 50), 6),
        [
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), "<=", 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
    )
    result = solve_lp(prog)
    assert result.status == "optimal"
    assert result.value == Fraction(-1, 20)


# ---------------------------------------------------------------------------
# the fraction-free tableau against a reference copy of the Fraction one

_BOUNDED = settings(settings.get_profile("bounded"), max_examples=400)


def _reference_pivot(tableau, basis, row, col):
    inv = 1 / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    prow = tableau[row]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, prow)]
    basis[row] = col


def _reference_simplex(tableau, basis, ncols):
    m = len(tableau) - 1
    while True:
        cost = tableau[m]
        col = next((j for j in range(ncols) if cost[j] < 0), -1)
        if col < 0:
            return "optimal"
        row, best = -1, None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row < 0:
            return "unbounded"
        _reference_pivot(tableau, basis, row, col)


def _reference_solve(lp):
    """The two-phase Bland simplex with every tableau entry a Fraction."""
    n = lp.n
    rows, senses = [], []
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    for con in lp.constraints:
        if con.rhs < 0:
            rows.append(([-c for c in con.coeffs], -con.rhs))
            senses.append(flip[con.sense])
        else:
            rows.append((list(con.coeffs), con.rhs))
            senses.append(con.sense)
    m = len(rows)
    nslack = sum(1 for s in senses if s != "==")
    nart = sum(1 for s in senses if s != "<=")
    total = n + nslack + nart
    tableau, basis, art_cols = [], [0] * m, []
    si, ai = n, n + nslack
    for i, ((coeffs, rhs), sense) in enumerate(zip(rows, senses)):
        line = list(coeffs) + [Fraction(0)] * (nslack + nart) + [rhs]
        if sense == "<=":
            line[si], basis[i] = Fraction(1), si
            si += 1
            tableau.append(line)
            continue
        if sense == ">=":
            line[si] = Fraction(-1)
            si += 1
        line[ai], basis[i] = Fraction(1), ai
        art_cols.append(ai)
        ai += 1
        tableau.append(line)
    art_set = set(art_cols)
    cost = [Fraction(0)] * (total + 1)
    for j in art_cols:
        cost[j] = Fraction(1)
    for i in range(m):
        if basis[i] in art_set:
            cost = [a - b for a, b in zip(cost, tableau[i])]
    tableau.append(cost)
    _reference_simplex(tableau, basis, total)
    if -tableau[m][-1] > 0:
        return LPResult("infeasible", None, None)
    drop = []
    for i in range(m):
        if basis[i] in art_set:
            col = next((j for j in range(n + nslack) if tableau[i][j] != 0), -1)
            if col >= 0:
                _reference_pivot(tableau, basis, i, col)
            else:
                drop.append(i)
    tableau = [line for i, line in enumerate(tableau[:m]) if i not in drop] + [tableau[m]]
    basis = [b for i, b in enumerate(basis) if i not in drop]
    m = len(basis)
    keep = [j for j in range(total) if j not in art_set]
    tableau = [[line[j] for j in keep] + [line[-1]] for line in tableau[:m]]
    cost = [lp.objective[col] if col < n else Fraction(0) for col in keep] + [Fraction(0)]
    remap = {col: j for j, col in enumerate(keep)}
    basis = [remap[b] for b in basis]
    for i in range(m):
        cj = cost[basis[i]]
        if cj != 0:
            cost = [a - cj * b for a, b in zip(cost, tableau[i])]
    tableau.append(cost)
    if _reference_simplex(tableau, basis, len(keep)) == "unbounded":
        return LPResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for i in range(m):
        if keep[basis[i]] < n:
            solution[keep[basis[i]]] = tableau[i][-1]
    value = sum((c * x for c, x in zip(lp.objective, solution)), Fraction(0))
    return LPResult("optimal", value, tuple(solution))


# small numerators over a few denominators: many ties, so many degenerate
# pivots, and zero rows that make equalities redundant
_COEFF = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from((1, 1, 1, 2, 3, 7))
)


@st.composite
def _programs(draw):
    """Programs over <=, >= and == rows; a row may repeat an earlier one
    scaled by a positive factor, which ties ratio tests (and so tests
    Bland's tie-break) or makes an equality redundant."""
    n = draw(st.integers(min_value=1, max_value=4))
    prog = LinearProgram(tuple(draw(st.lists(_COEFF, min_size=n, max_size=n))))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if prog.constraints and draw(st.booleans()):
            base = draw(st.sampled_from(prog.constraints))
            factor = draw(st.sampled_from((Fraction(1, 2), 1, 2, Fraction(3, 7))))
            prog.add([factor * c for c in base.coeffs], base.sense, factor * base.rhs)
            continue
        prog.add(
            draw(st.lists(_COEFF, min_size=n, max_size=n)),
            draw(st.sampled_from(("<=", ">=", "=="))),
            draw(_COEFF),
        )
    return prog


@_BOUNDED
@given(_programs())
def test_matches_the_fraction_tableau(prog):
    got = solve_lp(prog)
    assert got == _reference_solve(prog)
    if got.status == "optimal":
        assert all(type(v) is Fraction for v in got.solution)
        assert type(got.value) is Fraction


def test_every_status_matches_the_reference():
    """One program per outcome, an infeasible, an unbounded, a redundant
    and a negative right-hand side one, whatever the draws above reach."""
    programs = [
        _lp((1,), [((1,), ">=", 3), ((1,), "<=", 1)]),
        _lp((-1,), [((1,), ">=", 0)]),
        _lp((1, 1), [((1, 1), "==", 2), ((2, 2), "==", 4)]),
        _lp((1, -1), [((1, -1), "==", -1), ((Fraction(1, 3), 0), ">=", Fraction(-2, 7))]),
    ]
    statuses = [solve_lp(p).status for p in programs]
    assert statuses == ["infeasible", "unbounded", "optimal", "optimal"]
    for p in programs:
        assert solve_lp(p) == _reference_solve(p)


def test_ratio_ties_follow_blands_rule():
    """Rows 0, 1 and 4 are one row scaled, so ratio tests tie; only the
    least basic index wins a tie, and a different choice here ends on
    another optimal vertex, (5/4, 2)."""
    prog = _lp(
        (0, -1),
        [
            ((1, -1), "<=", Fraction(-3, 7)),
            ((Fraction(1, 2), Fraction(-1, 2)), "<=", Fraction(-3, 14)),
            ((4, -3), ">=", -1),
            ((0, Fraction(-1, 2)), ">=", -1),
            ((Fraction(1, 3), Fraction(-1, 3)), "<=", Fraction(-1, 7)),
        ],
    )
    result = solve_lp(prog)
    assert result == _reference_solve(prog)
    assert result.solution == (Fraction(11, 7), Fraction(2))
    assert result.value == -2


def test_rejects_a_constraint_of_another_length():
    with pytest.raises(ValueError, match="^coefficient length mismatch$"):
        LinearProgram((1, 1)).add([1], "<=", 1)
