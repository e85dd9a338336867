"""Small exact linear programming over rationals.

Dense two-phase simplex with Bland's rule on a fraction-free tableau:
the constraint data is scaled to integers by one common multiple, and
the tableau holds integers over one common denominator, the last pivot,
so every pivot is an exact integer division (integer-preserving
elimination, Edmonds 1967, Bareiss 1968).  Only the answer is built in
Fraction.  Intended for the small programs that arise from witness
reductions; no attempt is made at sparse or revised formulations.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .scalars import value_class


@value_class
class Constraint:
    coeffs: tuple
    sense: str  # "<=", ">=" or "=="
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))


class LinearProgram:
    """Minimize objective . x subject to constraints, x >= 0 componentwise."""

    def __init__(self, objective: Sequence):
        self.objective = tuple(Fraction(c) for c in objective)
        self.constraints = []

    @property
    def n(self) -> int:
        return len(self.objective)

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise ValueError("coefficient length mismatch")
        self.constraints.append(Constraint(coeffs, sense, rhs))


@value_class
class LPResult:
    status: str  # "optimal", "infeasible" or "unbounded"
    value: Fraction | None
    solution: tuple | None


_ZERO = Fraction(0)


def _pivot(tableau, basis, den, row, col):
    """Pivot on (row, col) and return the new common denominator.

    ``tableau`` holds integers whose true values are each entry over
    ``den``, the previous pivot (1 at the start).  Every entry is a minor
    of the starting integer tableau, so each division is exact (Edmonds,
    Bareiss); the pivot row keeps its integers and the new denominator
    is its pivot entry.
    """
    prow = tableau[row]
    piv = prow[col]
    for r, line in enumerate(tableau):
        if r == row:
            continue
        factor = line[col]
        tableau[r] = [(piv * a - factor * b) // den for a, b in zip(line, prow)]
    basis[row] = col
    return piv


def _simplex(tableau, basis, den, ncols):
    """Run Bland-rule pivots until optimal or unbounded.

    The last tableau row holds reduced costs; the last column holds the
    right-hand sides (and, in the cost row, minus the objective value).
    Signs are read on the true values: an entry's sign flips when ``den``
    is negative.  Two ratios of entries with one sign compare as their
    cross products.  Returns the status and the final denominator.
    """
    m = len(tableau) - 1
    while True:
        cost = tableau[m]
        col = -1
        for j in range(ncols):
            if cost[j] * den < 0:
                col = j
                break
        if col < 0:
            return "optimal", den
        row = -1
        for i in range(m):
            a = tableau[i][col]
            if a * den > 0:
                if row < 0:
                    row = i
                    continue
                lhs = tableau[i][-1] * tableau[row][col]
                rhs = tableau[row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row < 0:
            return "unbounded", den
        den = _pivot(tableau, basis, den, row, col)


def solve_lp(lp: LinearProgram) -> LPResult:
    n = lp.n
    rows = []
    senses = []
    for con in lp.constraints:
        coeffs = list(con.coeffs)
        rhs = con.rhs
        sense = con.sense
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        rows.append((coeffs, rhs))
        senses.append(sense)
    # One common multiple clears every denominator of the constraint data.
    # It scales the slack and artificial variables, not x, and Bland's
    # rule reads only signs and ratio order, so the pivots are the same.
    scale = math.lcm(*(v.denominator for coeffs, rhs in rows for v in (*coeffs, rhs)))
    m = len(rows)
    nslack = sum(1 for s in senses if s in ("<=", ">="))
    nart = sum(1 for s in senses if s in (">=", "=="))
    total = n + nslack + nart
    tableau = []
    basis = [0] * m
    art_cols = []
    si = n
    ai = n + nslack
    for i, ((coeffs, rhs), sense) in enumerate(zip(rows, senses)):
        line = [c.numerator * (scale // c.denominator) for c in coeffs]
        line += [0] * (nslack + nart) + [rhs.numerator * (scale // rhs.denominator)]
        if sense == "<=":
            line[si] = 1
            basis[i] = si
            si += 1
        elif sense == ">=":
            line[si] = -1
            si += 1
            line[ai] = 1
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
        else:
            line[ai] = 1
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
        tableau.append(line)

    # phase 1: minimize the artificial sum
    art_set = set(art_cols)
    cost = [0] * (total + 1)
    for j in art_cols:
        cost[j] = 1
    tableau.append(cost)
    for i in range(m):
        if basis[i] in art_set:
            line = tableau[i]
            tableau[m] = [a - b for a, b in zip(tableau[m], line)]
    status, den = _simplex(tableau, basis, 1, total)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        return LPResult("infeasible", None, None)
    if tableau[m][-1] * den < 0:
        return LPResult("infeasible", None, None)
    # drive leftover artificials out of the basis where possible
    drop_rows = []
    for i in range(m):
        if basis[i] in art_set:
            col = -1
            for j in range(n + nslack):
                if tableau[i][j] != 0:
                    col = j
                    break
            if col >= 0:
                den = _pivot(tableau, basis, den, i, col)
            else:
                drop_rows.append(i)
    if drop_rows:
        tableau = [line for i, line in enumerate(tableau[:m]) if i not in drop_rows] + [tableau[m]]
        basis = [b for i, b in enumerate(basis) if i not in drop_rows]
        m = len(basis)

    # phase 2: real costs, artificial columns disabled; the cost row is
    # kept over cost_scale * den, so it starts on integers
    keep = [j for j in range(total) if j not in art_set]
    tableau = [[line[j] for j in keep] + [line[-1]] for line in tableau[:m]]
    cost_scale = math.lcm(*(c.denominator for c in lp.objective))
    cost = [0] * (len(keep) + 1)
    for j, col in enumerate(keep):
        if col < n:
            c = lp.objective[col]
            cost[j] = c.numerator * (cost_scale // c.denominator) * den
    tableau.append(cost)
    remap = {col: j for j, col in enumerate(keep)}
    basis = [remap[b] for b in basis]
    for i in range(m):
        cj = tableau[m][basis[i]]
        if cj != 0:
            # cj is cost_scale * den * c, a multiple of den
            factor = cj // den
            tableau[m] = [a - factor * b for a, b in zip(tableau[m], tableau[i])]
    status, den = _simplex(tableau, basis, den, len(keep))
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    solution = [_ZERO] * n
    for i in range(m):
        col = keep[basis[i]]
        if col < n:
            solution[col] = Fraction(tableau[i][-1], den)
    value = sum((c * x for c, x in zip(lp.objective, solution)), _ZERO)
    return LPResult("optimal", value, tuple(solution))
