"""Test-only reference LP: lexicographic selection by m separate solves.

This is the original dense-tableau engine, kept as the exact oracle the
production ``select`` and ``helly_witness`` are checked against.  It
maximizes x_1 with a fresh two-phase simplex, pins x_1 as an equality
row, maximizes x_2 from scratch, and so on: m phase-1 solves per answer.
Slow, but each pass is an independent textbook LP, so it shares no
lexicographic bookkeeping with the code under test.
"""

from fractions import Fraction
from typing import Optional

from unanimity.core import Lottery
from unanimity.feasibility import ConstraintSet

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(rows, obj, basis, r, c) -> None:
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for idx in range(len(rows)):
        if idx != r and rows[idx][c] != 0:
            f = rows[idx][c]
            rows[idx] = [a - f * b for a, b in zip(rows[idx], rows[r])]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [a - f * b for a, b in zip(obj, rows[r])]
    basis[r] = c


def _simplex_max(rows, obj, basis) -> bool:
    """Run pivots to optimality; False means unbounded.  Bland's rule."""
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return True
        leave = None
        best = None
        for r in range(len(rows)):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            return False
        _pivot(rows, obj, basis, leave, enter)


def _solve_lp_max(objective, A, b):
    """Maximize <objective, x> subject to A x = b, x >= 0, exactly.

    Returns (feasible, x) where x attains the maximum.
    """
    nvars = len(objective)
    nrows = len(A)
    rows = []
    for arow, rhs in zip(A, b):
        row = [Fraction(v) for v in arow] + [Fraction(rhs)]
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)

    # Phase 1: artificial basis, drive the artificials to zero.
    for r in range(nrows):
        rows[r] = rows[r][:-1] + [ONE if k == r else ZERO for k in range(nrows)] + [rows[r][-1]]
    basis = [nvars + r for r in range(nrows)]
    obj = [ZERO] * nvars + [-ONE] * nrows + [ZERO]
    for r in range(nrows):
        obj = [a + v for a, v in zip(obj, rows[r])]
    _simplex_max(rows, obj, basis)
    if any(basis[r] >= nvars and rows[r][-1] != 0 for r in range(nrows)):
        return False, None

    # Evict zero-valued artificials from the basis; drop redundant rows.
    keep = []
    for r in range(nrows):
        if basis[r] >= nvars:
            enter = next((j for j in range(nvars) if rows[r][j] != 0), None)
            if enter is None:
                continue
            _pivot(rows, obj, basis, r, enter)
        keep.append(r)
    rows = [rows[r][:nvars] + [rows[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2: the real objective over the feasible basis.
    obj = [Fraction(v) for v in objective] + [ZERO]
    for r, bcol in enumerate(basis):
        if obj[bcol] != 0:
            f = obj[bcol]
            obj = [a - f * v for a, v in zip(obj, rows[r])]
    if not _simplex_max(rows, obj, basis):
        raise ArithmeticError("objective unbounded on a subset of the simplex")
    x = [ZERO] * nvars
    for r, bcol in enumerate(basis):
        x[bcol] = rows[r][-1]
    return True, x


def _standard_form(C: ConstraintSet):
    """Equality embedding: m coordinates plus one surplus slack per row."""
    m, k = C.m, len(C.rows)
    nvars = m + k
    A = [[ONE] * m + [ZERO] * k]
    b = [ONE]
    for idx, (_, coeffs) in enumerate(C.rows):
        row = list(coeffs) + [ZERO] * k
        row[m + idx] = -ONE
        A.append(row)
        b.append(ONE)
    return nvars, A, b


def select_reference(C: ConstraintSet) -> Optional[Lottery]:
    """Lex-max feasible lottery by m pinned solves, or None if infeasible."""
    m = C.m
    nvars, A, b = _standard_form(C)
    pinned: list[Fraction] = []
    for j in range(m):
        objective = [ZERO] * nvars
        objective[j] = ONE
        feasible, x = _solve_lp_max(objective, A, b)
        if not feasible:
            return None
        pinned.append(x[j])
        row = [ZERO] * nvars
        row[j] = ONE
        A.append(row)
        b.append(x[j])
    return Lottery(pinned)


def helly_witness_reference(C: ConstraintSet) -> frozenset[int]:
    """The ascending-owner deletion filter over ``select_reference``."""
    assert select_reference(C) is None
    kept = sorted(C.owners())
    for owner in sorted(C.owners()):
        trial = [o for o in kept if o != owner]
        if select_reference(C.restrict(trial)) is None:
            kept = trial
    return frozenset(kept)
