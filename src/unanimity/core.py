"""Exact rational primitives: lotteries, agents, instances, edge points.

Every quantity in the model is a rational number; ``fractions.Fraction``
(arbitrary-precision, always stored reduced with a positive denominator)
is used as the universal number type.  All types here are immutable after
construction and validate their invariants eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _as_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Lottery:
    """A probability vector over the m alternatives, with exact coordinates."""

    probs: tuple[Fraction, ...]

    def __init__(self, probs: Sequence) -> None:
        object.__setattr__(self, "probs", _as_fractions(probs))
        if any(p < 0 for p in self.probs):
            raise ValueError("lottery has a negative coordinate")
        if sum(self.probs, ZERO) != ONE:
            raise ValueError("lottery coordinates must sum to exactly 1")

    @property
    def m(self) -> int:
        return len(self.probs)

    @staticmethod
    def pure(j: int, m: int) -> "Lottery":
        """The lottery placing unit mass on alternative ``j`` (1-based)."""
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
        object.__setattr__(self, "threshold", Fraction(threshold))
        if any(not (ZERO <= u <= ONE) for u in self.utilities):
            raise ValueError("utilities must lie in [0, 1]")
        if not (ZERO < self.threshold <= ONE):
            raise ValueError("threshold must lie in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.utilities)


@dataclass(frozen=True)
class Instance:
    """A hidden problem instance: menu size, quantization grid, agents."""

    m: int
    epsilon: Fraction
    agents: tuple[AgentSpec, ...]

    def __init__(self, m: int, epsilon, agents: Sequence[AgentSpec]) -> None:
        epsilon = Fraction(epsilon)
        if m < 1:
            raise ValueError("need at least one alternative")
        inv = 1 / epsilon
        if inv.denominator != 1 or inv < 2:
            raise ValueError("1/epsilon must be an integer >= 2")
        agents = tuple(agents)
        for idx, agent in enumerate(agents, start=1):
            if agent.m != m:
                raise ValueError(f"agent {idx}: expected {m} utilities, got {agent.m}")
            for j, u in enumerate(agent.utilities, start=1):
                if (u / epsilon).denominator != 1:
                    raise ValueError(
                        f"agent {idx}: utility for alternative {j} is not a "
                        f"multiple of epsilon={epsilon}"
                    )
            if (agent.threshold / epsilon).denominator != 1:
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
        return int(1 / self.epsilon)


@dataclass(frozen=True)
class EdgePoint:
    """A point on the simplex edge from rejected vertex k to accepted k'.

    Denotes the lottery with mass ``alpha`` on k' and ``1 - alpha`` on k.
    Indices are 1-based.
    """

    k: int
    kprime: int
    alpha: Fraction

    def __init__(self, k: int, kprime: int, alpha) -> None:
        alpha = Fraction(alpha)
        if k == kprime:
            raise ValueError("edge endpoints must be distinct")
        if not (ZERO <= alpha <= ONE):
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kprime", kprime)
        object.__setattr__(self, "alpha", alpha)


def expected_utility(agent: AgentSpec, x: Lottery) -> Fraction:
    """Exact inner product of the agent's utilities with the lottery."""
    if agent.m != x.m:
        raise ValueError(f"dimension mismatch: agent has {agent.m}, lottery {x.m}")
    return sum((u * p for u, p in zip(agent.utilities, x.probs)), ZERO)


def edge_lottery(p: EdgePoint, m: int) -> Lottery:
    """Materialize an edge point as a full lottery over m alternatives."""
    if not (1 <= p.k <= m and 1 <= p.kprime <= m):
        raise ValueError("edge endpoints out of range")
    probs = [ZERO] * m
    probs[p.k - 1] = ONE - p.alpha
    probs[p.kprime - 1] = p.alpha
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
