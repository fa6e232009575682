"""Test-only reference for the turning-point search: the bisection loop over
Fraction endpoints, as it was before the number of halvings was counted from
the bracket's width, and the Fraction rational reconstruction.

``finish_bracket`` halves while ``upper - lower > gap``, testing a Fraction
width at every step, and the warm walk computes each candidate twice, once
to test it and once to keep it.  Only the grid is read from the oracle as
the int ``inv_epsilon`` instead of the Fraction ``epsilon``.  The queries
these functions ask, in order, and the turning points they return are what
``unanimity.geometry.exact_threshold`` and ``exact_threshold_pred`` must
reproduce.  ``rational_reconstruct`` takes the Fraction midpoint's
``limit_denominator``; ``unanimity.geometry.rational_reconstruct`` must
return the same value, or raise the same ``ArithmeticError``, from the
bracket's int numerators.  ``bisection_budget`` counts the ThresholdSearch
queries of a cold turning point, ceil(log2(2/eps^2)) as
``unanimity.geometry`` states it.
"""

from fractions import Fraction

from unanimity.core import _as_fraction, edge_lottery
from unanimity.oracle import QueryCategory

ZERO = Fraction(0)
ONE = Fraction(1)


def bisection_budget(inv_epsilon):
    """ThresholdSearch queries per cold turning point: ceil(log2(2/eps^2)),
    in integers: ceil(log2 N) is the bit length of N - 1."""
    return (2 * inv_epsilon * inv_epsilon - 1).bit_length()


def rational_reconstruct(lower, upper, Q):
    lower, upper = Fraction(lower), Fraction(upper)
    cand = ((lower + upper) / 2).limit_denominator(Q)
    if not lower <= cand <= upper:
        raise ArithmeticError(
            f"no rational with denominator <= {Q} in [{lower}, {upper}]; "
            "bracket precondition violated"
        )
    return cand


def _edge_query(o, i, k, kprime, alpha):
    x = edge_lottery(k, kprime, alpha, o.m)
    return o.query(i, x, QueryCategory.THRESHOLD_SEARCH)


def finish_bracket(o, i, k, kprime, lower, upper):
    Q = o.inv_epsilon
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


def exact_threshold(o, i, k, kprime):
    return finish_bracket(o, i, k, kprime, ZERO, ONE)


def exact_threshold_pred(o, i, k, kprime, alpha_hat):
    alpha_hat = _as_fraction(alpha_hat)
    if not (ZERO <= alpha_hat <= ONE):
        raise ValueError("alpha_hat must lie in [0, 1]")
    Q = o.inv_epsilon
    step = Fraction(1, 2 * Q * Q)
    if _edge_query(o, i, k, kprime, alpha_hat):
        upper = alpha_hat
        while upper - step > 0 and _edge_query(o, i, k, kprime, upper - step):
            upper -= step
            step *= 2
        lower = max(ZERO, upper - step)
    else:
        lower = alpha_hat
        while lower + step < 1 and not _edge_query(o, i, k, kprime, lower + step):
            lower += step
            step *= 2
        upper = min(ONE, lower + step)
    return finish_bracket(o, i, k, kprime, lower, upper)
