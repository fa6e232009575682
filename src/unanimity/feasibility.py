"""Exact feasibility over learned constraints: Select, witnesses, brute force.

A constraint is an integer row (a, b) meaning <a, x> >= b over the
probability simplex, in the form ``learn_hyperplane`` returns and
``feasible_full`` reads off an instance's grid.  ``select`` returns the
lexicographically maximum feasible lottery, or None when the rows are
infeasible; ``helly_witness`` shrinks an infeasible set to a minimal
infeasible subset of at most m owners; and ``feasible_full`` decides a
known instance without any oracle queries.

The LP engine is the dual simplex of Seidel (1991) over one m-by-m basis,
with the integer pivoting of Avis's lrs: Python ints for the basis inverse
times its determinant, updated by exact Bareiss division.  A pivot costs
O(m^2), and finding a violated constraint O(k*m) over k rows.  Only the
returned lottery holds Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from unanimity.core import Instance, Lottery


@dataclass(frozen=True)
class ConstraintSet:
    """Integer halfspace rows (a, b), <a, x> >= b over the m-simplex, one
    row per owner."""

    m: int
    rows: tuple[tuple[int, tuple[tuple[int, ...], int]], ...]

    def __init__(self, m: int, rows: Sequence[tuple[int, tuple[Sequence[int], int]]]) -> None:
        if m < 1:
            raise ValueError("need at least one alternative")
        packed = []
        seen: set[int] = set()
        for owner, (a, b) in rows:
            a = tuple(a)
            if len(a) != m:
                raise ValueError(f"row for agent {owner} has {len(a)} coefficients, expected {m}")
            if owner in seen:
                raise ValueError(f"agent {owner} owns more than one row")
            # Plain ints only: select's Bareiss // would silently floor a
            # Fraction, and a fixed-width integer could overflow.
            if {type(b), *map(type, a)} != {int}:
                raise ValueError(f"agent {owner}: constraint row entries must be ints")
            if not any(a):
                # <0, x> >= b > 0 is RejectAll in disguise; solvers must surface
                # that as a Null outcome before ever building an LP.
                raise ValueError(f"agent {owner}: all-zero constraint row")
            seen.add(owner)
            packed.append((owner, (a, b)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", tuple(packed))

    def owners(self) -> tuple[int, ...]:
        return tuple(owner for owner, _ in self.rows)

    def restrict(self, owners) -> "ConstraintSet":
        """The rows owned by ``owners``, in this set's order.  They were
        checked when this set was built, so they are not checked again."""
        keep = set(owners)
        sub = object.__new__(ConstraintSet)
        object.__setattr__(sub, "m", self.m)
        object.__setattr__(sub, "rows", tuple(row for row in self.rows if row[0] in keep))
        return sub


@dataclass(frozen=True)
class HellyWitness:
    """A minimal set of agents whose rows are jointly infeasible; size <= m."""

    agents: frozenset[int]


def select(C: ConstraintSet) -> Optional[Lottery]:
    """Lexicographically maximum lottery satisfying every row, or None.

    A dual simplex in x-space.  The basis is sum(x) = 1 plus m - 1 tight
    constraints, each a bound x_j >= 0 or a row.  cols[0] / det is its
    vertex; for s >= 1, cols[s] / det is the edge along which the s-th tight
    constraint loosens at unit rate while the others stay tight.  Every edge
    is kept lexicographically negative, so the vertex is the lex-max of its
    tight constraints, and it is the answer once nothing is violated.
    Issues zero oracle queries.
    """
    m = C.m
    # Every constraint <a, x> >= b: the bounds x_j >= 0, then the rows.
    cons = [([int(i == j) for i in range(m)], 0) for j in range(m)]
    cons += [row for _, row in C.rows]
    # Start at e_1 with x_2..x_m >= 0 tight, whose edges are e_j - e_1.
    cols = [[1] + [0] * (m - 1)] + [[-1] + [int(i == j) for i in range(1, m)] for j in range(1, m)]
    det = 1
    while True:
        violated = next(((a, b) for a, b in cons if _dot(a, cols[0]) < b * det), None)
        if violated is None:
            return Lottery([Fraction(v, det) for v in cols[0]])
        a, b = violated
        g = [_dot(a, col) for col in cols]
        g[0] -= b * det
        # Any feasible x is the vertex plus a nonnegative mix of the edges,
        # so if no edge raises <a, x> the constraint can never be met.
        up = [s for s in range(1, m) if g[s] > 0]
        if not up:
            return None
        # Walk edge t until <a, x> = b.  Edge s becomes cols[s] - (g_s/g_t)
        # cols[t], lex-negative for every s exactly when cols[t]/g_t is the
        # lex-largest cols[s]/g_s.  The edges are independent, so no ties.
        t = up[0]
        for s in up[1:]:
            if [v * g[t] for v in cols[s]] > [v * g[s] for v in cols[t]]:
                t = s
        # Bareiss update: det' = g_t is the new basis determinant, and
        # column t, now the edge that loosens a, is unchanged.
        cols = [col if s == t else [(g[t] * u - g[s] * v) // det for u, v in zip(col, cols[t])]
                for s, col in enumerate(cols)]
        det = g[t]


def _dot(a, b) -> int:
    return sum(u * v for u, v in zip(a, b))


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


def feasible_full(inst: Instance) -> Optional[Lottery]:
    """Zero-query ground truth: decide the instance from its hidden data.

    Skips agents that accept everything, short-circuits None on an
    agent that rejects every pure lottery, and otherwise runs select over
    the grid rows (U - U_r, T - U_r), r the agent's first rejected vertex.
    On the simplex <U - U_r, x> = <U, x> - U_r, so each row accepts exactly
    its agent's lotteries.
    """
    rows = []
    for idx, (U, T) in enumerate(inst.grid_rows, start=1):
        if max(U) < T:
            return None
        U_r = next((u for u in U if u < T), None)
        if U_r is not None:
            rows.append((idx, (tuple(u - U_r for u in U), T - U_r)))
    return select(ConstraintSet(inst.m, rows))
