"""Exact rational primitives: lotteries, agents, instances, simplex edges.

Every quantity in the model is a rational number, held exactly: as a
``fractions.Fraction`` (always reduced, with a positive denominator) or as
Python ints over a known denominator.  All types here are immutable after
construction and validate their invariants eagerly.

An instance stores its agents as integer rows and nothing else: every
utility and threshold is a multiple of epsilon, so in units of epsilon
they are ints.  A lottery carries its coordinates over one common
denominator, so the membership test ``<u_i, x> >= tau_i``
(:meth:`unanimity.oracle.Oracle.query`) compares exact integers and builds
no Fraction per query; this module has no Fraction inner product beside
it.  ``AgentSpec`` is the rational form of an agent: instances can be
built from it, and ``Instance.agents`` gives it back as a view; the file
reader, ``quantize`` and every generator build the integer rows directly,
and ``_grid_units`` is the one rational-to-units conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


# The largest decimal exponent parse_rational accepts.  It is CPython's
# default limit on the digits of an int string, which already caps a
# spelled-out decimal like "0.000...1" at the same size.
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a terminating decimal like ``"0.65"`` exactly.

    Anything but a string (a JSON number, say) is a ValueError, and so is
    an exponent beyond +-MAX_EXPONENT: ``Fraction`` computes ``10**exp``
    before any range check, so ``"1e-999999999"`` would never return.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    try:
        _, e, exp = text.lower().rpartition("e")
        if not (e and abs(int(exp)) > MAX_EXPONENT):
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    raise ValueError(f"not a rational number: {text!r} (exponent beyond +-{MAX_EXPONENT})")


def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` rendering (``"3"`` stays ``"3"``)."""
    return str(Fraction(value))


def _as_fraction(value) -> Fraction:
    """``value`` as a Fraction; a string goes through ``parse_rational``, so
    its exponent is bounded there.  A float or a bool is a ValueError: the
    float 0.1 is not the rational it reads as, and True is no number."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"not an exact rational: {value!r}")
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def _as_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(_as_fraction, values))


def _grid_units(value: Fraction, Q: int) -> int:
    """``value`` as a count of epsilon-units, epsilon = 1/Q.  A ValueError
    says why ``value`` is off the grid; the caller says where it came from."""
    if not 0 <= value <= 1:
        raise ValueError("lies outside [0, 1]")
    # In lowest terms, p/q is a multiple of 1/Q iff q divides Q, and then
    # it is p * (Q // q) units.
    scale, off = divmod(Q, value.denominator)
    if off:
        raise ValueError(f"is not a multiple of epsilon=1/{Q}")
    return value.numerator * scale


@dataclass(frozen=True)
class Lottery:
    """A probability vector over the m alternatives, with exact coordinates.

    ``scaled`` is the same vector over a common denominator: ``(P, D)`` with
    ``probs[j] == P[j] / D`` and D the least common denominator.
    """

    probs: tuple[Fraction, ...]
    scaled: tuple[tuple[int, ...], int] = field(repr=False, compare=False)

    def __init__(self, probs: Sequence) -> None:
        probs = _as_fractions(probs)
        D = math.lcm(*(p.denominator for p in probs))
        P = tuple(p.numerator * (D // p.denominator) for p in probs)
        if any(c < 0 for c in P):
            raise ValueError("lottery has a negative coordinate")
        if sum(P) != D:
            raise ValueError("lottery coordinates must sum to exactly 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "scaled", (P, D))

    @property
    def m(self) -> int:
        return len(self.probs)

    @staticmethod
    @cache
    def pure(j: int, m: int) -> "Lottery":
        """The lottery placing unit mass on alternative ``j`` (1-based).

        Built once per (j, m) and shared: a Lottery is immutable.
        """
        if not 1 <= j <= m:
            raise ValueError(f"alternative index {j} out of range 1..{m}")
        return Lottery([ONE if k == j else ZERO for k in range(1, m + 1)])

    def __getitem__(self, idx: int) -> Fraction:
        return self.probs[idx]

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(p) for p in self.probs) + ")"


@dataclass(frozen=True)
class AgentSpec:
    """An agent's hidden utility vector and acceptance threshold.

    Utilities live in [0, 1]; the threshold in (0, 1].  Quantization against
    the owning instance's grid is checked by :class:`Instance`.
    """

    utilities: tuple[Fraction, ...]
    threshold: Fraction

    def __init__(self, utilities: Sequence, threshold) -> None:
        object.__setattr__(self, "utilities", _as_fractions(utilities))
        object.__setattr__(self, "threshold", _as_fraction(threshold))
        # Denominators are positive: 0 <= p/q <= 1 iff 0 <= p <= q.
        if any(not 0 <= u.numerator <= u.denominator for u in self.utilities):
            raise ValueError("utilities must lie in [0, 1]")
        if not 0 < self.threshold.numerator <= self.threshold.denominator:
            raise ValueError("threshold must lie in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.utilities)


@dataclass(frozen=True)
class Instance:
    """A hidden problem instance: menu size, quantization grid, agents.

    Every utility and threshold is a multiple of ``epsilon``, so the
    instance holds them as integers in units of epsilon: ``grid_rows[i - 1]``
    is agent i's ``(U, T)`` with ``U_j = u_j / epsilon`` in 0..1/epsilon and
    ``T = tau_i / epsilon`` in 1..1/epsilon.  These rows are all it stores;
    the oracle decides membership on them, and ``agents`` is an
    :class:`AgentSpec` view built on first access.
    """

    m: int
    epsilon: Fraction
    grid_rows: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, m: int, epsilon, agents: Sequence[AgentSpec]) -> None:
        epsilon = _as_fraction(epsilon)
        # bool is an int subclass.
        if type(m) is not int:
            raise ValueError(f"m must be an integer (got {m!r})")
        if m < 1:
            raise ValueError("need at least one alternative")
        # In lowest terms, 1/epsilon is an integer >= 2 iff epsilon = 1/Q, Q >= 2.
        if epsilon.numerator != 1 or epsilon.denominator < 2:
            raise ValueError("1/epsilon must be an integer >= 2")
        Q = epsilon.denominator
        rows = []
        for idx, agent in enumerate(agents, start=1):
            if agent.m != m:
                raise ValueError(f"agent {idx}: expected {m} utilities, got {agent.m}")
            units = []
            for j, value in enumerate(agent.utilities + (agent.threshold,), start=1):
                try:
                    units.append(_grid_units(value, Q))
                except ValueError as exc:
                    where = f"utility for alternative {j}" if j <= m else "threshold"
                    raise ValueError(f"agent {idx}: {where} {exc}") from None
            rows.append((tuple(units[:-1]), units[-1]))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "grid_rows", tuple(rows))

    @classmethod
    def _from_grid_rows(cls, m: int, inv_epsilon: int, rows: tuple) -> "Instance":
        """An instance over rows its caller has already checked: m >= 1,
        1/epsilon >= 2, and per agent m ints U_j in 0..1/epsilon and an int
        T in 1..1/epsilon, as a tuple of ``(U, T)`` with U a tuple.  For
        the file reader and ``quantize``, which validate as they convert,
        and for generators that build their rows on the grid."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "m", m)
        object.__setattr__(inst, "epsilon", Fraction(1, inv_epsilon))
        object.__setattr__(inst, "grid_rows", rows)
        return inst

    @cached_property
    def agents(self) -> tuple[AgentSpec, ...]:
        """The agents as exact rationals, built from ``grid_rows`` once."""
        Q = self.inv_epsilon
        return tuple(AgentSpec([Fraction(u, Q) for u in U], Fraction(T, Q))
                     for U, T in self.grid_rows)

    @property
    def n(self) -> int:
        return len(self.grid_rows)

    @property
    def inv_epsilon(self) -> int:
        return self.epsilon.denominator


def _check_edge(k: int, kprime: int, m: int) -> None:
    """Refuse a (k, k') that is not an edge of the m-simplex (1-based)."""
    if k == kprime:
        raise ValueError("edge endpoints must be distinct")
    if not (1 <= k <= m and 1 <= kprime <= m):
        raise ValueError("edge endpoints out of range")


def edge_lottery(k: int, kprime: int, alpha, m: int) -> Lottery:
    """The lottery with mass ``alpha`` on k' and ``1 - alpha`` on k, the
    point of the simplex edge from vertex k to vertex k' (1-based) over m
    alternatives.  ``alpha`` is a Fraction, an int or a rational string; a
    float or a bool is a ValueError, as is an alpha outside [0, 1]."""
    _check_edge(k, kprime, m)
    alpha = _as_fraction(alpha)
    probs = [ZERO] * m
    probs[k - 1] = ONE - alpha
    probs[kprime - 1] = alpha
    return Lottery(probs)


def pairwise_projection(x: Lottery, k: int, kprime: int) -> Fraction:
    """Relative mass of x on k' after renormalizing to the (k, k') edge.

    Returns x_{k'} / (x_k + x_{k'}) when that pair carries positive mass,
    and 1/2 otherwise.  An x that is not a Lottery is a ValueError.
    """
    if not isinstance(x, Lottery):
        raise ValueError(f"projected point must be a Lottery, got {type(x).__name__}")
    _check_edge(k, kprime, x.m)
    xk, xkp = x[k - 1], x[kprime - 1]
    if xk + xkp == 0:
        return Fraction(1, 2)
    return xkp / (xk + xkp)
