"""Single-agent elicitation: turning-point search and halfspace recovery.

An agent's acceptable set is a halfspace intersected with the simplex.  On
any edge from a rejected vertex e_k to an accepted vertex e_k' the agent's
answer flips exactly once, at a turning point whose reduced denominator is
bounded by 1/epsilon.  Each search keeps one bracket on it from its first
query to its last: int numerators lo < hi over one int denominator D.  The
cold search starts from (0, 1, 1); the warm walk from a predicted point
runs over D = lcm(its denominator, 2Q^2), Q = 1/eps, so its first step,
eps^2/2, and every doubling of it are ints too.  Bisection then halves the
bracket until it is eps^2/2 wide, too narrow to contain two such rationals;
the width alone fixes how many halvings that takes, counted once in
integers, exactly ceil(log2(2/eps^2)) from [0, 1].  Rational
reconstruction then recovers the turning point exactly with zero further
queries: the continued-fraction best approximation of the bracket's
midpoint (what ``Fraction.limit_denominator`` returns), O(log 1/eps) int
steps.

``learn_hyperplane`` stitches m - 1 turning points into an integer row
(a, b) with acceptance test <a, x> >= b, the form the LP layer pivots on.
The degenerate outcomes keep that form: None for AcceptAll (no constraint),
((0, ..., 0), 1) for RejectAll (no lottery passes).  A warm-start lottery,
when supplied, seeds every turning-point search with its pairwise
projection onto the edge.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from unanimity.core import Lottery, _as_fraction, edge_lottery, pairwise_projection
from unanimity.oracle import Oracle, QueryCategory


def rational_reconstruct(lo: int, hi: int, D: int, Q: int) -> Fraction:
    """Recover the unique rational in [lo/D, hi/D] with denominator <= Q.

    The caller guarantees D > 0 and a bracket at most 1/(2 Q^2) wide.  Two
    such rationals are at least 1/Q^2 apart, so at most one lies inside.
    If p/q does, it is within 1/(4 Q^2) < 1/(2 q^2) of the midpoint
    (lo + hi)/2D, so by Legendre's theorem it is a convergent of the
    midpoint's continued fraction, and the last convergent with denominator
    <= Q, which is no farther from the midpoint, is p/q itself: the value
    ``Fraction.limit_denominator(Q)`` returns.  The walk runs in ints and
    the result is checked by cross-multiplication.
    """
    n, d = lo + hi, 2 * D  # the midpoint, not reduced: the walk is scale-free
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        a = n // d
        if q0 + a * q1 > Q:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    if not lo * q1 <= p1 * D <= hi * q1:
        raise ArithmeticError(
            f"no rational with denominator <= {Q} in "
            f"[{Fraction(lo, D)}, {Fraction(hi, D)}]; bracket precondition violated"
        )
    return Fraction(p1, q1)


def _finish_bracket(
    o: Oracle, i: int, k: int, kprime: int, lo: int, hi: int, D: int
) -> Fraction:
    """Bisect the answer-bracketing interval [lo/D, hi/D] down to the
    uniqueness width.

    Each halving doubles D, asks at the midpoint lo + hi over the doubled
    D, and keeps it as one end while doubling the other.  The width
    w = (hi - lo)/D fixes the number of halvings: the least s >= 0 with
    w / 2^s <= eps^2/2, that is w * 2Q^2 <= 2^s with Q = 1/eps, the bit
    length of ceil(2Q^2 w) - 1.  Exactly ceil(log2(2Q^2)) queries
    for [0, 1], none for a bracket already eps^2/2 wide.
    """
    Q = o.inv_epsilon
    # ceil as -(-a // b); at least 1, so an empty bracket is never halved.
    steps = (max(-(-2 * Q * Q * (hi - lo) // D), 1) - 1).bit_length()
    m, query, cat = o.m, o.query, QueryCategory.THRESHOLD_SEARCH
    for _ in range(steps):
        mid = lo + hi
        D += D
        if query(i, edge_lottery(k, kprime, Fraction(mid, D), m), cat):
            lo, hi = lo + lo, mid
        else:
            lo, hi = mid, hi + hi
    alpha = rational_reconstruct(lo, hi, D, Q)
    if not 0 < alpha.numerator <= alpha.denominator:
        raise ArithmeticError("turning-point bracket broke; endpoint contract violated")
    return alpha


def exact_threshold(o: Oracle, i: int, k: int, kprime: int) -> Fraction:
    """Find the turning point on edge (e_k, e_k') by plain bisection.

    The caller must already know Query(i, e_k) = False and
    Query(i, e_k') = True; the endpoints are not re-queried.  Issues
    exactly ceil(log2(2/eps^2)) ThresholdSearch queries, then
    reconstructs the exact rational with no further queries.
    """
    return _finish_bracket(o, i, k, kprime, 0, 1, 1)


def exact_threshold_pred(
    o: Oracle, i: int, k: int, kprime: int, alpha_hat: Fraction
) -> Fraction:
    """Warm-started turning-point search (same answer as exact_threshold).

    Starting from the predicted coordinate, geometrically growing steps
    bracket the turning point in O(1 + log(1 + |alpha_hat - alpha*|/eps^2))
    queries before the same counted bisection and reconstruction finish.
    """
    alpha_hat = _as_fraction(alpha_hat)
    if not 0 <= alpha_hat <= 1:
        raise ValueError("alpha_hat must lie in [0, 1]")
    inv_gap = 2 * o.inv_epsilon * o.inv_epsilon  # 1 / (eps^2 / 2)
    D = math.lcm(alpha_hat.denominator, inv_gap)
    step = D // inv_gap
    m, query, cat = o.m, o.query, QueryCategory.THRESHOLD_SEARCH

    def ask(t: int) -> bool:
        return query(i, edge_lottery(k, kprime, Fraction(t, D), m), cat)

    lo = hi = alpha_hat.numerator * (D // alpha_hat.denominator)
    if ask(hi):
        # alpha_hat >= alpha*: walk left until the answer flips or we clip at 0.
        while (lo := hi - step) > 0 and ask(lo):
            hi, step = lo, step + step
        lo = max(lo, 0)
    else:
        # alpha_hat < alpha*: walk right until the answer flips or we clip at 1.
        while (hi := lo + step) < D and not ask(hi):
            lo, step = hi, step + step
        hi = min(hi, D)
    return _finish_bracket(o, i, k, kprime, lo, hi, D)


def learn_hyperplane(
    o: Oracle, i: int, warm: Optional[Lottery] = None
) -> Optional[tuple[tuple[int, ...], int]]:
    """Elicit agent i's acceptable halfspace with membership queries only.

    Returns the integer row (a, b) with acceptance test <a, x> >= b, in
    lowest terms: the rational row c of <c, x> >= 1 scaled by the lcm L of
    its denominators, so a = L c and b = L.  None when the agent accepts
    every pure lottery (AcceptAll), and ((0, ..., 0), 1), which no lottery
    satisfies, when it rejects every one (RejectAll).

    Queries all m pure lotteries first (PureVertex), then locates m - 1
    turning points: one per accepted vertex from a fixed rejected pivot r,
    and, unless every such turning point sits at 1, one per remaining
    rejected vertex toward a fixed interior-crossing accepted vertex a.
    Pivots are the smallest admissible indices, for deterministic traces.

    With ``warm`` given, every turning-point search is seeded with the
    warm lottery's pairwise projection onto the edge; a warm lottery of
    another dimension than the instance's is a ValueError.
    """
    m = o.m
    if warm is not None and warm.m != m:
        raise ValueError(f"dimension mismatch: instance has {m}, warm lottery {warm.m}")
    accepted: list[int] = []
    rejected: list[int] = []
    query, cat = o.query, QueryCategory.PURE_VERTEX
    for j in range(1, m + 1):
        if query(i, Lottery.pure(j, m), cat):
            accepted.append(j)
        else:
            rejected.append(j)

    if not rejected:
        return None
    if not accepted:
        return (0,) * m, 1

    def turning(k: int, kprime: int) -> Fraction:
        if warm is None:
            return exact_threshold(o, i, k, kprime)
        return exact_threshold_pred(o, i, k, kprime, pairwise_projection(warm, k, kprime))

    alpha_r = {j: turning(rejected[0], j) for j in accepted}
    # With every turning point at 1 the acceptable set is the face spanned by
    # the accepted vertices: 1 / alpha = 1 on each, 0 on every rejected one.
    coeffs = [0] * m
    for j in accepted:
        coeffs[j - 1] = 1 / alpha_r[j]
    a = next((j for j in accepted if alpha_r[j] < 1), None)
    if a is not None:
        c_a = coeffs[a - 1]
        for k in rejected[1:]:
            alpha_ka = turning(k, a)
            coeffs[k - 1] = (1 - alpha_ka * c_a) / (1 - alpha_ka)
    L = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (L // c.denominator) for c in coeffs), L
