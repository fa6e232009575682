"""End-to-end solvers: baseline, adaptive deterministic, randomized, advised.

All solvers answer the same question -- find a lottery every agent accepts,
or certify that none exists -- differing only in how many membership
queries they spend:

* ``solve_baseline`` learns every agent's halfspace, then solves once.
* ``solve_deterministic`` alternates candidate selection with a scan for a
  violating agent, learning only the agents that force a change of
  candidate ("record agents").
* ``solve_randomized`` samples a small weighted subset of agents, solves
  the subproblem, and doubles the weight of every violator, so binding
  agents are found after few rounds without learning most of the others.

Advice plugs in orthogonally: a predicted agent ordering drives the scan
order (deterministic) or the initial sampling weights (randomized), and a
predicted lottery is verified up front and warm-starts every turning-point
search.  Bad advice costs extra queries, never correctness.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, filterfalse
from typing import Optional

from unanimity.core import Lottery, format_rational
from unanimity.feasibility import (
    ConstraintSet,
    HellyWitness,
    helly_witness,
    select,
)
from unanimity.geometry import learn_hyperplane
from unanimity.oracle import Oracle, QueryCategory, QueryLedger


@dataclass(frozen=True)
class Advice:
    """Optional side information: a scan order and/or a predicted lottery."""

    order: Optional[tuple[int, ...]] = None
    x_hat: Optional[Lottery] = None

    def __init__(self, order=None, x_hat: Optional[Lottery] = None) -> None:
        if x_hat is not None and not isinstance(x_hat, Lottery):
            raise ValueError(f"lottery hint must be a Lottery, got {type(x_hat).__name__}")
        if order is not None:
            order = tuple(order)
            # bool is an int subclass; True must not pass for agent 1.
            if (not all(type(i) is int for i in order)
                    or sorted(order) != list(range(1, len(order) + 1))):
                raise ValueError("order must be a permutation of 1..n")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "x_hat", x_hat)

    def check(self, n: int, m: int) -> None:
        """Refuse advice that does not fit n agents over m alternatives."""
        if self.order is not None and len(self.order) != n:
            raise ValueError(f"order covers {len(self.order)} agents, instance has {n}")
        if self.x_hat is not None and self.x_hat.m != m:
            raise ValueError(f"dimension mismatch: instance has {m}, lottery hint {self.x_hat.m}")

    @property
    def kind(self) -> str:
        if self.order is not None and self.x_hat is not None:
            return "Both"
        if self.order is not None:
            return "Permutation"
        if self.x_hat is not None:
            return "LotteryHint"
        return "None"


@dataclass(frozen=True)
class SolveReport:
    """Outcome (one of lottery, witness, reject_all_agent) and accounting of one run."""

    ledger: QueryLedger
    learned_agents: frozenset[int]
    iterations: int
    lottery: Optional[Lottery] = None
    witness: Optional[HellyWitness] = None
    reject_all_agent: Optional[int] = None
    rng_seed: Optional[int] = None

    @property
    def accepted(self) -> bool:
        return self.lottery is not None

    @property
    def record_count(self) -> int:
        return len(self.learned_agents)

    @property
    def rng_algorithm(self) -> Optional[str]:
        return None if self.rng_seed is None else "mt19937"

    @property
    def outcome_kind(self) -> str:
        return "Accepted" if self.accepted else "Null"

    def to_json_dict(self) -> dict:
        if self.accepted:
            outcome = {
                "kind": "Accepted",
                "lottery": [format_rational(p) for p in self.lottery.probs],
            }
        else:
            outcome = {"kind": "Null"}
            if self.witness is not None:
                outcome["witness"] = {"helly": sorted(self.witness.agents)}
            elif self.reject_all_agent is not None:
                outcome["witness"] = {"reject_all": self.reject_all_agent}
        doc = {
            "outcome": outcome,
            "queries": {
                "total": self.ledger.total,
                "per_agent": {str(i): c for i, c in enumerate(self.ledger.agent_counts) if c},
                "per_category": {cat.value: c for cat, c in self.ledger.per_category.items()},
            },
            "learned_agents": sorted(self.learned_agents),
            "record_count": self.record_count,
            "iterations": self.iterations,
        }
        if self.rng_seed is not None:
            doc["rng"] = {"seed": self.rng_seed, "algorithm": self.rng_algorithm}
        return doc


def _report(o: Oracle, learned, iterations, seed=None, **outcome) -> SolveReport:
    """Report a finished run; ``outcome`` names its one outcome field."""
    return SolveReport(o.ledger, frozenset(learned), iterations, rng_seed=seed, **outcome)


def _learn(o: Oracle, learned: dict[int, Optional[tuple]], agents, warm=None) -> Optional[int]:
    """Learn each agent of ``agents`` not yet in ``learned``, in order, and
    return the first that rejects every pure lottery (an all-zero row, the
    one-agent Helly witness), or None when none does."""
    for i in agents:
        if i not in learned:
            row = learned[i] = learn_hyperplane(o, i, warm=warm)
            if row is not None and not any(row[0]):
                return i
    return None


def _rows(learned: dict[int, Optional[tuple]], restrict=None) -> list:
    """Constraint rows of learned agents; AcceptAll agents (None) give none."""
    return [(i, learned[i]) for i in sorted(learned)
            if learned[i] is not None and (restrict is None or i in restrict)]


def _check_hint(o: Oracle, x_hat: Optional[Lottery]) -> bool:
    """Ask every agent about the hint (no short-circuit): exactly n queries,
    none for no hint (None)."""
    return x_hat is not None and not o.rejecters(
        x_hat, range(1, o.n + 1), QueryCategory.ADVICE_CHECK)


def solve_baseline(o: Oracle) -> SolveReport:
    """Learn every agent's halfspace, then decide with a single selection.

    Queries grow linearly in n regardless of instance structure; this is
    the reference point the adaptive solvers are measured against.
    """
    learned: dict[int, Optional[tuple]] = {}
    if (i := _learn(o, learned, range(1, o.n + 1))) is not None:
        return _report(o, learned, 0, reject_all_agent=i)
    C = ConstraintSet(o.m, _rows(learned))
    x = select(C)
    if x is None:
        return _report(o, learned, 0, witness=helly_witness(C))
    return _report(o, learned, 0, lottery=x)


def solve_deterministic(o: Oracle, advice: Advice = Advice()) -> SolveReport:
    """Candidate / first-violator loop, learning only record agents.

    Each round selects the lex-max lottery consistent with everything
    learned so far, then scans the not-yet-learned agents in the given
    order; the first rejecting agent is learned in full and the loop
    restarts.  Learned agents satisfy the candidate by construction and
    are never re-queried.
    """
    advice.check(o.n, o.m)
    order = advice.order or range(1, o.n + 1)
    warm = advice.x_hat
    learned: dict[int, Optional[tuple]] = {}
    iterations = 0

    if _check_hint(o, warm):
        return _report(o, learned, iterations, lottery=warm)

    while True:
        iterations += 1
        C = ConstraintSet(o.m, _rows(learned))
        x = select(C)
        if x is None:
            return _report(o, learned, iterations, witness=helly_witness(C))
        violators = o.rejecters(x, filterfalse(learned.__contains__, order),
                                QueryCategory.VERIFICATION, first=True)
        if not violators:
            return _report(o, learned, iterations, lottery=x)
        if (i := _learn(o, learned, violators, warm)) is not None:
            return _report(o, learned, iterations, reject_all_agent=i)


def weighted_sample(weights: list[int], r_prime: int, rng: random.Random) -> dict[int, int]:
    """Draw r' copies without replacement from the weighted agent multiset.

    Sequential draws proportional to remaining copy counts -- an exact
    hypergeometric chain -- so the multiset (which can be astronomically
    large) is never materialized.  Returns sampled-copy counts per agent.

    ``weights[k - 1]`` is agent k's weight, an int >= 1.  A value ``t`` from
    ``rng.randrange(remaining)`` picks the same agent as a running-sum scan
    of the remaining counts in agent order: the first agent k whose
    remaining cumulative count ``prefix[k] - drawn(<= k)`` exceeds ``t``.
    That is the fixed point of ``k = bisect_right(prefix, t + drawn(<= k))``,
    where ``drawn`` is the sorted list of this call's earlier draws;
    iterating from ``drawn(<= k) = 0`` climbs to it without passing it.
    """
    if min(weights, default=1) < 1:
        raise ValueError("all weights must be >= 1")
    prefix = list(accumulate(weights, initial=0))
    total = prefix[-1]
    if not 0 <= r_prime <= total:
        raise ValueError(f"cannot draw {r_prime} copies from a multiset of {total}")
    drawn: list[int] = []
    counts: dict[int, int] = {}
    for remaining in range(total, total - r_prime, -1):
        t = rng.randrange(remaining)
        k = bisect_right(prefix, t)
        while (nxt := bisect_right(prefix, t + bisect_right(drawn, k))) != k:
            k = nxt
        insort(drawn, k)
        counts[k] = counts.get(k, 0) + 1
    return counts


def solve_randomized(o: Oracle, advice: Advice = Advice(), seed: int = 0) -> SolveReport:
    """Weighted constraint sampling with multiplicative weight doubling.

    Each round samples r = 16(m-1)^2 agent copies (one when m = 1), learns
    any sampled agents not yet known, solves the sampled subproblem, and
    verifies the candidate against all n agents; every violator's weight
    doubles.  The outcome is correct for every seed and every n >= 0 --
    randomness affects only the query count.  A predicted ordering biases
    the initial weights toward early-ranked agents; a predicted lottery is
    verified up front and warm-starts elicitation.
    """
    n, m = o.n, o.m
    advice.check(n, m)
    rng = random.Random(seed)
    r = max(1, 16 * (m - 1) ** 2)
    weights = [1] * n
    for rank, agent in enumerate(advice.order or (), start=1):
        weights[agent - 1] = -(-n // rank)
    total = sum(weights)
    warm = advice.x_hat
    learned: dict[int, Optional[tuple]] = {}
    iterations = 0

    if _check_hint(o, warm):
        return _report(o, learned, iterations, lottery=warm, seed=seed)

    while True:
        iterations += 1
        r_prime = min(r, total)
        sampled = weighted_sample(weights, r_prime, rng)
        if (i := _learn(o, learned, sorted(sampled), warm)) is not None:
            return _report(o, learned, iterations, seed, reject_all_agent=i)
        C = ConstraintSet(o.m, _rows(learned, restrict=sampled))
        x = select(C)
        if x is None:
            return _report(o, learned, iterations, witness=helly_witness(C), seed=seed)
        violators = o.rejecters(x, range(1, n + 1), QueryCategory.VERIFICATION)
        if not violators:
            return _report(o, learned, iterations, lottery=x, seed=seed)
        for i in violators:
            total += weights[i - 1]
            weights[i - 1] *= 2

