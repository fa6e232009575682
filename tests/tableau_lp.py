"""Test-only second reference: the fraction-free two-phase tableau select.

This is the dense (k+1)-row simplex tableau that ``select`` used before the
m-by-m dual simplex replaced it, kept verbatim as an exact oracle.  It runs
one phase 1 and then a lexicographic pass per coordinate over an integer
tableau with Bareiss pivots, so it shares no code with the engine under
test, yet unlike the m-solve ``reference_lp`` it stays fast at 40-60 rows.
It reads each integer row (a, b) as the Fraction row a/b of <c, x> >= 1
and scales that back to integers by its own lcm.
"""

import math
from fractions import Fraction
from typing import Optional

from unanimity.core import Lottery
from unanimity.feasibility import ConstraintSet


def _pivot(rows, obj, basis, d, r, c) -> int:
    """Bareiss pivot on (r, c) of the tableau ``rows/d``; returns the new d.
    Exact by Sylvester's identity; a negative pivot row is negated first."""
    if rows[r][c] < 0:
        rows[r] = [-v for v in rows[r]]
    prow = rows[r]
    p = prow[c]
    for row in rows + [obj]:
        if row is not prow:
            f = row[c]
            row[:] = [(a * p - f * b) // d for a, b in zip(row, prow)]
    basis[r] = c
    return p


def _simplex_max(rows, obj, basis, d, allowed) -> int:
    """Pivot to optimality, entering only columns in ``allowed`` (ascending),
    and return the final d.  Bland's rule: least-index entering column,
    least-index leaving basic variable on ratio ties.  Every LP here lives
    inside the simplex, so an unbounded ray is a bug.
    """
    while True:
        enter = next((j for j in allowed if obj[j] > 0), None)
        if enter is None:
            return d
        candidates = [r for r, row in enumerate(rows) if row[enter] > 0]
        if not candidates:
            raise ArithmeticError("objective unbounded on a subset of the simplex")
        leave = candidates[0]
        for r in candidates[1:]:
            # Ratios rhs/coef compared by cross-multiplying; both coefs > 0.
            cross = rows[r][-1] * rows[leave][enter] - rows[leave][-1] * rows[r][enter]
            if cross < 0 or (cross == 0 and basis[r] < basis[leave]):
                leave = r
        d = _pivot(rows, obj, basis, d, leave, enter)


def select(C: ConstraintSet) -> Optional[Lottery]:
    """Lexicographically maximum lottery satisfying every row, or None.

    One tableau over x_1..x_m and a surplus s_i per row: sum(x) = 1 and
    <c_i, x> - s_i = 1.  Phase 1 finds a feasible basis, then x_1, x_2, ...
    are maximized in turn, each from the previous optimal basis.  A column
    whose reduced cost is negative at a pass's optimum is zero on that
    pass's whole optimal face, so it may never enter again.  x_m needs no
    pass: sum(x) = 1 fixes it.  Issues zero oracle queries.
    """
    m, k = C.m, len(C.rows)
    nvars = m + k
    # Integer tableau rows/d: each row scaled once by its lcm L of
    # denominators.  Its surplus column stays -1 (the surplus is L s_i):
    # scaling a column by L > 0 keeps the pivot path and keeps L out of d.
    rows = [[1] * m + [0] * k + [1]]
    for idx, (_, (a, b)) in enumerate(C.rows):
        coeffs = [Fraction(v, b) for v in a]  # <a, x> >= b read as <c, x> >= 1
        L = math.lcm(*(c.denominator for c in coeffs))
        rows.append([c.numerator * (L // c.denominator) for c in coeffs]
                    + [-1 if s == idx else 0 for s in range(k)] + [L])

    # Phase 1: row r starts on an artificial variable, marked nvars + r in
    # the basis.  Artificials never re-enter, so they need no columns; the
    # reduced costs of min sum(artificials) are the column sums.
    basis = [nvars + r for r in range(len(rows))]
    obj = [sum(col) for col in zip(*rows)]
    d = _simplex_max(rows, obj, basis, 1, range(nvars))
    if any(b >= nvars and rows[r][-1] != 0 for r, b in enumerate(basis)):
        return None
    # Pivot zero-valued artificials out.  A row with no real entry is
    # redundant: it stays zero on every real column and never leaves.
    for r in range(len(rows)):
        if basis[r] >= nvars:
            enter = next((j for j in range(nvars) if rows[r][j] != 0), None)
            if enter is not None:
                d = _pivot(rows, obj, basis, d, r, enter)

    allowed = list(range(nvars))
    for j in range(m - 1):
        # Reduced costs of max x_j, scaled by d like the rows.
        obj = [0] * (nvars + 1)
        obj[j] = d
        if j in basis:
            obj = [a - v for a, v in zip(obj, rows[basis.index(j)])]
        d = _simplex_max(rows, obj, basis, d, allowed)
        allowed = [c for c in allowed if obj[c] == 0]

    x = [0] * m
    for r, b in enumerate(basis):
        if b < m:
            x[b] = Fraction(rows[r][-1], d)
    return Lottery(x)
