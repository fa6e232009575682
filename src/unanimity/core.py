"""Exact rational primitives: lotteries, agents, instances, simplex edges.

Every quantity in the model is a rational number; ``fractions.Fraction``
(arbitrary-precision, always stored reduced with a positive denominator)
is used as the universal number type.  All types here are immutable after
construction and validate their invariants eagerly.

The membership test ``<u_i, x> >= tau_i`` is decided over Python ints
(:meth:`Instance.accepts`): every utility and threshold is a multiple of
epsilon, so scaling by 1/epsilon makes them integers, and a lottery carries
its coordinates over one common denominator.  Both sides of the test are
then exact integers and no Fraction is built per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a terminating decimal like ``"0.65"`` exactly.

    Anything but a string (a JSON number, say) is a ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` rendering (``"3"`` stays ``"3"``)."""
    return str(Fraction(value))


def _as_fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _as_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(_as_fraction, values))


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

    def __len__(self) -> int:
        return len(self.probs)

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

    Every utility and threshold is a multiple of ``epsilon``, which is what
    lets :meth:`accepts` decide membership over integers exactly.
    """

    m: int
    epsilon: Fraction
    agents: tuple[AgentSpec, ...]

    def __init__(self, m: int, epsilon, agents: Sequence[AgentSpec]) -> None:
        epsilon = Fraction(epsilon)
        if m < 1:
            raise ValueError("need at least one alternative")
        # In lowest terms, 1/epsilon is an integer >= 2 iff epsilon = 1/Q, Q >= 2.
        if epsilon.numerator != 1 or epsilon.denominator < 2:
            raise ValueError("1/epsilon must be an integer >= 2")
        Q = epsilon.denominator
        agents = tuple(agents)
        for idx, agent in enumerate(agents, start=1):
            if agent.m != m:
                raise ValueError(f"agent {idx}: expected {m} utilities, got {agent.m}")
            # In lowest terms, p/q is a multiple of 1/Q iff q divides Q.
            for j, u in enumerate(agent.utilities, start=1):
                if Q % u.denominator:
                    raise ValueError(
                        f"agent {idx}: utility for alternative {j} is not a "
                        f"multiple of epsilon={epsilon}"
                    )
            if Q % agent.threshold.denominator:
                raise ValueError(
                    f"agent {idx}: threshold is not a multiple of epsilon={epsilon}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "agents", agents)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def inv_epsilon(self) -> int:
        return self.epsilon.denominator

    @cached_property
    def _grid_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per agent, utilities and threshold in units of epsilon, as ints.

        Built on the first membership test, not in ``__init__``: most
        instances that are only generated, written or held never need them.
        """
        Q = self.inv_epsilon
        return tuple(
            (tuple(u.numerator * (Q // u.denominator) for u in a.utilities),
             a.threshold.numerator * (Q // a.threshold.denominator))
            for a in self.agents
        )

    def accepts(self, i: int, x: Lottery) -> bool:
        """Does agent ``i`` (1-based) accept ``x``, i.e. <u_i, x> >= tau_i?

        With U = u_i/epsilon, T = tau_i/epsilon and x = P/D, the test is
        sum_j U_j P_j >= T D, decided exactly over Python ints.
        ``expected_utility`` is the Fraction reference for the same test.
        """
        rows = self._grid_rows
        if not 1 <= i <= len(rows):
            raise IndexError(f"agent index {i} out of range 1..{len(rows)}")
        U, T = rows[i - 1]
        P, D = x.scaled
        if len(P) != len(U):
            raise ValueError(f"dimension mismatch: agent has {len(U)}, lottery {len(P)}")
        return sum(map(mul, U, P)) >= T * D


def expected_utility(agent: AgentSpec, x: Lottery) -> Fraction:
    """Exact inner product of the agent's utilities with the lottery."""
    if agent.m != x.m:
        raise ValueError(f"dimension mismatch: agent has {agent.m}, lottery {x.m}")
    return sum((u * p for u, p in zip(agent.utilities, x.probs)), ZERO)


def edge_lottery(k: int, kprime: int, alpha, m: int) -> Lottery:
    """The lottery with mass ``alpha`` on k' and ``1 - alpha`` on k, the
    point of the simplex edge from vertex k to vertex k' (1-based) over m
    alternatives; ``Lottery`` rejects an alpha outside [0, 1]."""
    if k == kprime:
        raise ValueError("edge endpoints must be distinct")
    if not (1 <= k <= m and 1 <= kprime <= m):
        raise ValueError("edge endpoints out of range")
    probs = [ZERO] * m
    probs[k - 1] = ONE - alpha
    probs[kprime - 1] = alpha
    return Lottery(probs)


def pairwise_projection(x: Lottery, k: int, kprime: int) -> Fraction:
    """Relative mass of x on k' after renormalizing to the (k, k') edge.

    Returns x_{k'} / (x_k + x_{k'}) when that pair carries positive mass,
    and 1/2 otherwise.
    """
    if k == kprime:
        raise ValueError("edge endpoints must be distinct")
    xk, xkp = x[k - 1], x[kprime - 1]
    if xk + xkp == 0:
        return Fraction(1, 2)
    return xkp / (xk + xkp)
