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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from unanimity.core import Lottery, format_rational
from unanimity.feasibility import (
    ConstraintSet,
    HellyWitness,
    helly_witness,
    select,
)
from unanimity.geometry import HalfspaceKind, LearnedHalfspace, learn_hyperplane
from unanimity.oracle import Oracle, QueryCategory, QueryLedger

RNG_ALGORITHM = "mt19937"


@dataclass(frozen=True)
class Advice:
    """Optional side information: a scan order and/or a predicted lottery."""

    order: Optional[tuple[int, ...]] = None
    x_hat: Optional[Lottery] = None

    def __init__(self, order=None, x_hat: Optional[Lottery] = None) -> None:
        if order is not None:
            order = tuple(int(i) for i in order)
            if sorted(order) != list(range(1, len(order) + 1)):
                raise ValueError("order must be a permutation of 1..n")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "x_hat", x_hat)

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
class WeightVector:
    """Exact integer sampling weights, one per agent, all >= 1."""

    weights: dict[int, int]

    def __init__(self, weights: dict[int, int]) -> None:
        weights = {int(i): int(w) for i, w in weights.items()}
        if any(w < 1 for w in weights.values()):
            raise ValueError("all weights must be >= 1")
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> int:
        return sum(self.weights.values())

    def doubled(self, agents) -> "WeightVector":
        out = dict(self.weights)
        for i in agents:
            out[i] *= 2
        return WeightVector(out)


@dataclass(frozen=True)
class SolveReport:
    """Outcome plus full accounting for one solver run."""

    accepted: bool
    lottery: Optional[Lottery]
    witness: Optional[HellyWitness]
    reject_all_agent: Optional[int]
    ledger: QueryLedger
    learned_agents: frozenset[int]
    record_count: int
    iterations: int
    rng_seed: Optional[int] = None
    rng_algorithm: Optional[str] = None

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
                "per_agent": {str(i): c for i, c in sorted(self.ledger.per_agent.items())},
                "per_category": {cat.value: c for cat, c in self.ledger.per_category.items()},
            },
            "learned_agents": sorted(self.learned_agents),
            "record_count": self.record_count,
            "iterations": self.iterations,
        }
        if self.rng_seed is not None:
            doc["rng"] = {"seed": self.rng_seed, "algorithm": self.rng_algorithm}
        return doc


def _report(o: Oracle, learned, iterations, lottery=None, witness=None,
            reject_all=None, seed=None) -> SolveReport:
    """Snapshot a finished run: Accepted when ``lottery`` is given, else Null."""
    return SolveReport(
        accepted=lottery is not None,
        lottery=lottery,
        witness=witness,
        reject_all_agent=reject_all,
        ledger=o.snapshot_ledger(),
        learned_agents=frozenset(learned),
        record_count=len(learned),
        iterations=iterations,
        rng_seed=seed,
        rng_algorithm=None if seed is None else RNG_ALGORITHM,
    )


def _rows(learned: dict[int, LearnedHalfspace], restrict=None) -> list:
    """Constraint rows of learned agents; AcceptAll agents contribute none."""
    rows = []
    for i in sorted(learned):
        if restrict is not None and i not in restrict:
            continue
        hs = learned[i]
        if hs.kind is HalfspaceKind.COEFFS:
            rows.append((i, hs.coeffs))
    return rows


def _check_hint(o: Oracle, x_hat: Lottery) -> bool:
    """Ask every agent about the hint (no short-circuit): exactly n queries."""
    unanimous = True
    for i in range(1, o.n + 1):
        if not o.query(i, x_hat, QueryCategory.ADVICE_CHECK):
            unanimous = False
    return unanimous


def solve_baseline(o: Oracle) -> SolveReport:
    """Learn every agent's halfspace, then decide with a single selection.

    Queries grow linearly in n regardless of instance structure; this is
    the reference point the adaptive solvers are measured against.
    """
    learned: dict[int, LearnedHalfspace] = {}
    for i in range(1, o.n + 1):
        hs, _ = learn_hyperplane(o, i)
        learned[i] = hs
        if hs.kind is HalfspaceKind.REJECT_ALL:
            return _report(o, learned, 0, reject_all=i)
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
    n = o.n
    order = advice.order if advice.order is not None else tuple(range(1, n + 1))
    if len(order) != n:
        raise ValueError(f"order covers {len(order)} agents, instance has {n}")
    warm = advice.x_hat
    learned: dict[int, LearnedHalfspace] = {}
    iterations = 0

    if warm is not None:
        if _check_hint(o, warm):
            return _report(o, learned, iterations, lottery=warm)

    while True:
        iterations += 1
        C = ConstraintSet(o.m, _rows(learned))
        x = select(C)
        if x is None:
            return _report(o, learned, iterations, witness=helly_witness(C))
        violator = None
        for i in order:
            if i in learned:
                continue
            if not o.query(i, x, QueryCategory.VERIFICATION):
                violator = i
                break
        if violator is None:
            return _report(o, learned, iterations, lottery=x)
        hs, _ = learn_hyperplane(o, violator, warm=warm)
        learned[violator] = hs
        if hs.kind is HalfspaceKind.REJECT_ALL:
            return _report(o, learned, iterations, reject_all=violator)


def weighted_sample(w: WeightVector, r_prime: int, rng: random.Random) -> dict[int, int]:
    """Draw r' copies without replacement from the weighted agent multiset.

    Sequential draws proportional to remaining copy counts -- an exact
    hypergeometric chain -- so the multiset (which can be astronomically
    large) is never materialized.  Returns sampled-copy counts per agent.
    """
    remaining = dict(w.weights)
    total = sum(remaining.values())
    if r_prime > total:
        raise ValueError(f"cannot draw {r_prime} copies from a multiset of {total}")
    counts: dict[int, int] = {}
    for _ in range(r_prime):
        t = rng.randrange(total)
        for i in sorted(remaining):
            c = remaining[i]
            if t < c:
                counts[i] = counts.get(i, 0) + 1
                if c == 1:
                    del remaining[i]
                else:
                    remaining[i] = c - 1
                total -= 1
                break
            t -= c
    return counts


def solve_randomized(o: Oracle, advice: Advice = Advice(), seed: int = 0) -> SolveReport:
    """Weighted constraint sampling with multiplicative weight doubling.

    Each round samples r = 16(m-1)^2 agent copies, learns any sampled
    agents not yet known, solves the sampled subproblem, and verifies the
    candidate against all n agents; every violator's weight doubles.  The
    outcome is correct for every seed -- randomness affects only the query
    count.  A predicted ordering biases the initial weights toward
    early-ranked agents; a predicted lottery is verified up front and
    warm-starts elicitation.
    """
    n, m = o.n, o.m
    if n < 1 or m < 2:
        raise ValueError("randomized solver requires n >= 1 and m >= 2")
    rng = random.Random(seed)
    r = 16 * (m - 1) ** 2
    if advice.order is not None:
        if len(advice.order) != n:
            raise ValueError(f"order covers {len(advice.order)} agents, instance has {n}")
        rank = {agent: pos for pos, agent in enumerate(advice.order, start=1)}
        weights = WeightVector({i: -(-n // rank[i]) for i in range(1, n + 1)})
    else:
        weights = WeightVector({i: 1 for i in range(1, n + 1)})
    warm = advice.x_hat
    learned: dict[int, LearnedHalfspace] = {}
    iterations = 0

    if warm is not None:
        if _check_hint(o, warm):
            return _report(o, learned, iterations, lottery=warm, seed=seed)

    while True:
        iterations += 1
        r_prime = min(r, weights.total)
        sampled = weighted_sample(weights, r_prime, rng)
        for i in sorted(sampled):
            if i not in learned:
                hs, _ = learn_hyperplane(o, i, warm=warm)
                learned[i] = hs
                if hs.kind is HalfspaceKind.REJECT_ALL:
                    return _report(o, learned, iterations, reject_all=i, seed=seed)
        C = ConstraintSet(o.m, _rows(learned, restrict=set(sampled)))
        x = select(C)
        if x is None:
            return _report(o, learned, iterations, witness=helly_witness(C), seed=seed)
        violators = [
            i for i in range(1, n + 1)
            if not o.query(i, x, QueryCategory.VERIFICATION)
        ]
        if not violators:
            return _report(o, learned, iterations, lottery=x, seed=seed)
        weights = weights.doubled(violators)

