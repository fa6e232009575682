"""Single-agent elicitation: turning-point search and halfspace recovery.

An agent's acceptable set is a halfspace intersected with the simplex.  On
any edge from a rejected vertex e_k to an accepted vertex e_k' the agent's
answer flips exactly once, at a turning point whose reduced denominator is
bounded by 1/epsilon.  Bisection brackets the turning point inside an
interval too narrow to contain two such rationals, after which rational
reconstruction recovers it exactly with zero further queries: the
continued-fraction best approximation of the bracket's midpoint
(``Fraction.limit_denominator``), O(log 1/epsilon) steps.

``learn_hyperplane`` stitches m - 1 turning points into a normalized
coefficient vector c with acceptance test <c, x> >= 1, or reports the
degenerate AcceptAll / RejectAll outcomes.  A warm-start lottery, when
supplied, seeds every turning-point search with its pairwise projection
onto the edge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from unanimity.core import (
    EdgePoint,
    Lottery,
    edge_lottery,
    pairwise_projection,
)
from unanimity.oracle import Oracle, QueryCategory

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class HalfspaceKind(enum.Enum):
    ACCEPT_ALL = "AcceptAll"
    REJECT_ALL = "RejectAll"
    COEFFS = "Coeffs"


@dataclass(frozen=True)
class LearnedHalfspace:
    """Outcome of eliciting one agent: trivial verdict or coefficients."""

    kind: HalfspaceKind
    coeffs: Optional[tuple[Fraction, ...]] = None

    def accepts(self, x: Lottery) -> bool:
        if self.kind is HalfspaceKind.ACCEPT_ALL:
            return True
        if self.kind is HalfspaceKind.REJECT_ALL:
            return False
        assert self.coeffs is not None
        return sum((c * p for c, p in zip(self.coeffs, x.probs)), ZERO) >= ONE

    @staticmethod
    def accept_all() -> "LearnedHalfspace":
        return LearnedHalfspace(HalfspaceKind.ACCEPT_ALL)

    @staticmethod
    def reject_all() -> "LearnedHalfspace":
        return LearnedHalfspace(HalfspaceKind.REJECT_ALL)

    @staticmethod
    def from_coeffs(coeffs) -> "LearnedHalfspace":
        return LearnedHalfspace(HalfspaceKind.COEFFS, tuple(Fraction(c) for c in coeffs))


@dataclass(frozen=True)
class ProjectionError:
    """Per-edge distance between a warm start and the true turning point."""

    per_edge: dict[tuple[int, int], Fraction]
    max: Fraction


def bisection_budget(inv_epsilon: int) -> int:
    """Max ThresholdSearch queries per turning point: ceil(log2(2/eps^2))."""
    return math.ceil(math.log2(2 * inv_epsilon * inv_epsilon))


def rational_reconstruct(lower: Fraction, upper: Fraction, Q: int) -> Fraction:
    """Recover the unique rational in [lower, upper] with denominator <= Q.

    The caller guarantees the bracket is at most 1/(2 Q^2) wide.  Two such
    rationals are at least 1/Q^2 apart, so the one inside the bracket, if
    any, is the closest to its midpoint: the midpoint's continued-fraction
    best approximation with denominator <= Q.
    """
    lower, upper = Fraction(lower), Fraction(upper)
    cand = ((lower + upper) / 2).limit_denominator(Q)
    if not lower <= cand <= upper:
        raise ArithmeticError(
            f"no rational with denominator <= {Q} in [{lower}, {upper}]; "
            "bracket precondition violated"
        )
    return cand


def _edge_query(o: Oracle, i: int, k: int, kprime: int, alpha: Fraction) -> bool:
    x = edge_lottery(EdgePoint(k, kprime, alpha), o.m)
    return o.query(i, x, QueryCategory.THRESHOLD_SEARCH)


def _finish_bracket(
    o: Oracle, i: int, k: int, kprime: int, lower: Fraction, upper: Fraction
) -> Fraction:
    """Bisect an answer-bracketing interval down to the uniqueness width."""
    Q = int(1 / o.epsilon)
    gap = Fraction(1, 2 * Q * Q)  # eps^2 / 2
    while upper - lower > gap:
        mid = (lower + upper) / 2
        if _edge_query(o, i, k, kprime, mid):
            upper = mid
        else:
            lower = mid
    alpha = rational_reconstruct(lower, upper, Q)
    if not ZERO < alpha <= ONE:
        raise ArithmeticError("turning-point bracket broke; endpoint contract violated")
    return alpha


def exact_threshold(o: Oracle, i: int, k: int, kprime: int) -> Fraction:
    """Find the turning point on edge (e_k, e_k') by plain bisection.

    The caller must already know Query(i, e_k) = False and
    Query(i, e_k') = True; the endpoints are not re-queried.  Issues at
    most ``bisection_budget(1/eps)`` ThresholdSearch queries, then
    reconstructs the exact rational with no further queries.
    """
    return _finish_bracket(o, i, k, kprime, ZERO, ONE)


def exact_threshold_pred(
    o: Oracle, i: int, k: int, kprime: int, alpha_hat: Fraction
) -> Fraction:
    """Warm-started turning-point search (same answer as exact_threshold).

    Starting from the predicted coordinate, geometrically growing steps
    bracket the turning point in O(1 + log(1 + |alpha_hat - alpha*|/eps^2))
    queries before the usual bisection/reconstruction finish.
    """
    alpha_hat = Fraction(alpha_hat)
    if not (ZERO <= alpha_hat <= ONE):
        raise ValueError("alpha_hat must lie in [0, 1]")
    eps = Fraction(o.epsilon)
    step = eps * eps / 2
    if _edge_query(o, i, k, kprime, alpha_hat):
        # alpha_hat >= alpha*: walk left until the answer flips or we clip at 0.
        upper = alpha_hat
        while upper - step > 0 and _edge_query(o, i, k, kprime, upper - step):
            upper -= step
            step *= 2
        lower = max(ZERO, upper - step)
    else:
        # alpha_hat < alpha*: walk right until the answer flips or we clip at 1.
        lower = alpha_hat
        while lower + step < 1 and not _edge_query(o, i, k, kprime, lower + step):
            lower += step
            step *= 2
        upper = min(ONE, lower + step)
    return _finish_bracket(o, i, k, kprime, lower, upper)


def learn_hyperplane(
    o: Oracle, i: int, warm: Optional[Lottery] = None
) -> tuple[LearnedHalfspace, Optional[ProjectionError]]:
    """Elicit agent i's acceptable halfspace with membership queries only.

    Queries all m pure lotteries first (PureVertex), then locates m - 1
    turning points: one per accepted vertex from a fixed rejected pivot r,
    and, unless every such turning point sits at 1, one per remaining
    rejected vertex toward a fixed interior-crossing accepted vertex a.
    Pivots are the smallest admissible indices, for deterministic traces.

    With ``warm`` given, every turning-point search is seeded with the
    warm lottery's pairwise projection onto the edge and the realized
    per-edge projection errors are reported.
    """
    m = o.m
    accepted: list[int] = []
    rejected: list[int] = []
    for j in range(1, m + 1):
        if o.query(i, Lottery.pure(j, m), QueryCategory.PURE_VERTEX):
            accepted.append(j)
        else:
            rejected.append(j)

    if not rejected:
        return LearnedHalfspace.accept_all(), None
    if not accepted:
        return LearnedHalfspace.reject_all(), None

    per_edge: dict[tuple[int, int], Fraction] = {}

    def turning(k: int, kprime: int) -> Fraction:
        if warm is None:
            return exact_threshold(o, i, k, kprime)
        hat = pairwise_projection(warm, k, kprime)
        alpha = exact_threshold_pred(o, i, k, kprime, hat)
        per_edge[(k, kprime)] = abs(hat - alpha)
        return alpha

    r = rejected[0]
    alpha_r = {j: turning(r, j) for j in accepted}

    coeffs = [ZERO] * m
    if all(alpha == ONE for alpha in alpha_r.values()):
        # Boundary passes through every accepted vertex: the acceptable set
        # is exactly the face spanned by the accepted alternatives.
        for j in accepted:
            coeffs[j - 1] = ONE
    else:
        a = next(j for j in accepted if alpha_r[j] < ONE)
        for j in accepted:
            coeffs[j - 1] = 1 / alpha_r[j]
        c_a = coeffs[a - 1]
        for k in rejected:
            if k == r:
                continue
            alpha_ka = turning(k, a)
            coeffs[k - 1] = (1 - alpha_ka * c_a) / (1 - alpha_ka)

    halfspace = LearnedHalfspace.from_coeffs(coeffs)
    if warm is None:
        return halfspace, None
    err_max = max(per_edge.values(), default=ZERO)
    return halfspace, ProjectionError(per_edge=per_edge, max=err_max)
