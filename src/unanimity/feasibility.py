"""Exact feasibility over learned constraints: Select, witnesses, brute force.

Constraints have the normalized form <c, x> >= 1 over the probability
simplex.  ``select`` returns the lexicographically maximum feasible lottery,
or None when the rows are infeasible; ``helly_witness`` shrinks an
infeasible set to a minimal infeasible subset of at most m owners; and
``feasible_full`` decides a known instance without any oracle queries.

The LP engine is one fraction-free simplex tableau per ``select``: Python
ints over one positive common denominator, updated by Bareiss pivots with
no per-entry gcd.  A single phase 1 is followed by one pass per coordinate,
each from the previous optimal basis (lexicographic simplex), with Bland's
least-index anti-cycling rule.  Only the returned lottery holds Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from unanimity.core import AgentSpec, Instance, Lottery


@dataclass(frozen=True)
class ConstraintSet:
    """Halfspace rows <c, x> >= 1 over the m-simplex, one row per owner."""

    m: int
    rows: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def __init__(self, m: int, rows: Sequence[tuple[int, Sequence]]) -> None:
        if m < 1:
            raise ValueError("need at least one alternative")
        packed = []
        seen: set[int] = set()
        for owner, coeffs in rows:
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != m:
                raise ValueError(f"row for agent {owner} has {len(coeffs)} coefficients, expected {m}")
            if owner in seen:
                raise ValueError(f"agent {owner} owns more than one row")
            if all(c == 0 for c in coeffs):
                # <0, x> >= 1 is RejectAll in disguise; solvers must surface
                # that as a Null outcome before ever building an LP.
                raise ValueError(f"agent {owner}: all-zero constraint row")
            seen.add(owner)
            packed.append((owner, coeffs))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", tuple(packed))

    def owners(self) -> tuple[int, ...]:
        return tuple(owner for owner, _ in self.rows)

    def restrict(self, owners) -> "ConstraintSet":
        keep = set(owners)
        return ConstraintSet(self.m, [row for row in self.rows if row[0] in keep])


@dataclass(frozen=True)
class HellyWitness:
    """A minimal set of agents whose rows are jointly infeasible; size <= m."""

    agents: frozenset[int]


# --- exact lexicographic simplex ---------------------------------------------


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


# --- public operations -------------------------------------------------------


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
    for idx, (_, coeffs) in enumerate(C.rows):
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


def helly_witness(C: ConstraintSet) -> HellyWitness:
    """Shrink an infeasible constraint set to a minimal infeasible owner set.

    Deletion filter in ascending owner order: drop each row and keep it
    dropped iff the remainder is still infeasible.  The result is minimal,
    hence of size at most m.
    """
    if select(C) is not None:
        raise ValueError("helly_witness requires an infeasible constraint set")
    kept = sorted(C.owners())
    for owner in sorted(C.owners()):
        trial = [o for o in kept if o != owner]
        if select(C.restrict(trial)) is None:
            kept = trial
    assert len(kept) <= C.m
    return HellyWitness(agents=frozenset(kept))


def normalized_row(agent: AgentSpec) -> Optional[tuple[Fraction, ...]]:
    """The agent's halfspace as c_j = (u_j - u_r)/(tau - u_r), r = first
    rejected vertex; None when the agent accepts every pure lottery."""
    reject = [j for j, u in enumerate(agent.utilities) if u < agent.threshold]
    if not reject:
        return None
    r = reject[0]
    u_r = agent.utilities[r]
    return tuple((u - u_r) / (agent.threshold - u_r) for u in agent.utilities)


def feasible_full(inst: Instance) -> Optional[Lottery]:
    """Zero-query ground truth: decide the instance from its hidden data.

    Skips agents that accept everything, short-circuits None on an
    agent that rejects every pure lottery, and otherwise runs select over
    the normalized rows.
    """
    rows = []
    for idx, agent in enumerate(inst.agents, start=1):
        if max(agent.utilities) < agent.threshold:
            return None
        row = normalized_row(agent)
        if row is not None:
            rows.append((idx, row))
    return select(ConstraintSet(inst.m, rows))
