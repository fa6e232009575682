"""Exact feasibility over learned constraints: Select, witnesses, brute force.

Constraints have the normalized form <c, x> >= 1 over the probability
simplex.  ``select`` returns the lexicographically maximum feasible lottery
(or None when the rows are infeasible), ``helly_witness`` shrinks an infeasible set to a minimal
infeasible subset of at most m owners, and ``feasible_full`` answers the
same question directly from a known instance without any oracle queries.

The LP engine is one exact simplex tableau over ``fractions.Fraction`` per
``select``: a single phase 1, then one pass per coordinate, each starting
from the previous optimal basis (lexicographic simplex), with Bland's
least-index anti-cycling rule.  Problem sizes here are tiny (m
coordinates plus one surplus per learned agent), so clarity wins over
sparse-matrix machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from unanimity.core import AgentSpec, Instance, Lottery

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _simplex_max(rows, obj, basis, allowed) -> None:
    """Pivot to optimality, entering only columns in ``allowed`` (ascending).

    Bland's rule: least-index entering column, least-index leaving basic
    variable on ratio ties.  Every LP here lives inside the simplex, so an
    unbounded ray is a bug.
    """
    while True:
        enter = next((j for j in allowed if obj[j] > 0), None)
        if enter is None:
            return
        leave = None
        best = None
        for r in range(len(rows)):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            raise ArithmeticError("objective unbounded on a subset of the simplex")
        _pivot(rows, obj, basis, leave, enter)


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
    rows = [[ONE] * m + [ZERO] * k + [ONE]]
    for idx, (_, coeffs) in enumerate(C.rows):
        rows.append(list(coeffs) + [-ONE if s == idx else ZERO for s in range(k)] + [ONE])

    # Phase 1: row r starts on an artificial variable, marked nvars + r in
    # the basis.  Artificials never re-enter, so they need no columns; the
    # reduced costs of min sum(artificials) are the column sums.
    basis = [nvars + r for r in range(len(rows))]
    obj = [sum(col) for col in zip(*rows)]
    _simplex_max(rows, obj, basis, range(nvars))
    if any(b >= nvars and rows[r][-1] != 0 for r, b in enumerate(basis)):
        return None
    # Pivot zero-valued artificials out; a row with no real entry is redundant.
    for r in reversed(range(len(rows))):
        if basis[r] >= nvars:
            enter = next((j for j in range(nvars) if rows[r][j] != 0), None)
            if enter is None:
                del rows[r], basis[r]
            else:
                _pivot(rows, obj, basis, r, enter)

    allowed = list(range(nvars))
    for j in range(m - 1):
        obj = [ZERO] * (nvars + 1)
        obj[j] = ONE
        if j in basis:
            obj = [a - v for a, v in zip(obj, rows[basis.index(j)])]
        _simplex_max(rows, obj, basis, allowed)
        allowed = [c for c in allowed if obj[c] == 0]

    x = [ZERO] * m
    for r, b in enumerate(basis):
        if b < m:
            x[b] = rows[r][-1]
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
