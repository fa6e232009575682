"""Test-only references for instances: the Fraction inner product, the
ledger invariant, and the Fraction-based generators, quantizer, reader and
writer.

``expected_utility`` is the oracle's stated reference: agent i accepts x
iff ``expected_utility(inst.agents[i - 1], x) >= inst.agents[i - 1].threshold``,
which ``Oracle.query`` decides over integers instead.  ``check_ledger``
asserts the invariant every ``QueryLedger`` keeps, ``per_agent`` reads
its per-agent counts as a map, and ``ReferenceLedger`` counts queries as a
plain map per (category, agent) for the ledger's derived views to match.

These are the generator families, ``quantize``, ``read_instance`` and
``write_instance`` as they were before instances were built and stored as
integer rows in units of epsilon, kept verbatim as an exact oracle.  The
generators draw a ``Fraction`` per utility and build an ``AgentSpec`` per
agent; ``quantize`` snaps each value to a Fraction multiple of epsilon and
builds an ``AgentSpec`` per agent; the writer formats every value from the
agents' Fractions and runs ``json.dump(doc, indent=2)``.  The reader builds
an ``AgentSpec`` and a ``Fraction`` per value and checks quantization with
its own copy of the loop ``Instance`` once ran, so that it shares no grid
check with the reader it is compared against.
"""

import json
import math
import random
import warnings
from fractions import Fraction
from typing import Sequence

from unanimity import oracle
from unanimity.core import (
    AgentSpec,
    Instance,
    Lottery,
    _as_fraction,
    format_rational,
    parse_rational,
)
from unanimity.instances import GroundTruth
from unanimity.solvers import Advice

ZERO = Fraction(0)
ONE = Fraction(1)


def expected_utility(agent: AgentSpec, x: Lottery) -> Fraction:
    """Exact inner product of the agent's utilities with the lottery."""
    if agent.m != x.m:
        raise ValueError(f"dimension mismatch: agent has {agent.m}, lottery {x.m}")
    return sum((u * p for u, p in zip(agent.utilities, x.probs)), ZERO)


def check_ledger(ledger) -> None:
    """Assert the ledger's consistency invariant: slot 0 is unused, and the
    per-category counts add up to the per-agent ones."""
    assert ledger.agent_counts[0] == 0
    assert ledger.total == sum(ledger.agent_counts)


def per_agent(ledger) -> dict[int, int]:
    """Query counts of the agents asked, in ascending agent order, as the
    report's ``"per_agent"`` map holds them with string keys."""
    return {i: c for i, c in enumerate(ledger.agent_counts) if c}


class ReferenceLedger:
    """The query ledger as one count per (category, agent) and a list of the
    categories in first-asked order; ``record`` takes a query that passed
    the oracle's checks, and the trace keeps the first ``oracle.TRACE_CAP``."""

    def __init__(self, n: int, capture_trace: bool) -> None:
        self.n = n
        self.counts: dict = {}
        self.categories: list = []
        self.trace = [] if capture_trace else None

    def record(self, i: int, cat, x: Lottery, answer: bool) -> None:
        if cat not in self.categories:
            self.categories.append(cat)
        self.counts[cat, i] = self.counts.get((cat, i), 0) + 1
        if self.trace is not None and len(self.trace) < oracle.TRACE_CAP:
            self.trace.append((i, cat, x, answer))

    @property
    def agent_counts(self) -> list[int]:
        return [sum(c for (_, j), c in self.counts.items() if j == i)
                for i in range(self.n + 1)]

    @property
    def per_category(self) -> dict:
        return {cat: sum(c for (k, _), c in self.counts.items() if k == cat)
                for cat in self.categories}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def trace_dropped(self) -> int:
        return 0 if self.trace is None else self.total - len(self.trace)


def _require(params: dict, *names: str) -> list:
    return [params[k] for k in names]


def _instance(m: int, epsilon, agents) -> Instance:
    """``Instance(m, epsilon, agents)`` with the checks and the loop its
    constructor ran when it converted each value with ``Q % q`` inline."""
    epsilon = _as_fraction(epsilon)
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
        # In lowest terms, p/q is a multiple of 1/Q iff q divides Q, and
        # then it is p * (Q // q) units of 1/Q.
        U = []
        for j, u in enumerate(agent.utilities, start=1):
            p, q = u.as_integer_ratio()
            if Q % q:
                raise ValueError(
                    f"agent {idx}: utility for alternative {j} is not a "
                    f"multiple of epsilon={epsilon}"
                )
            U.append(p * (Q // q))
        p, q = agent.threshold.as_integer_ratio()
        if Q % q:
            raise ValueError(
                f"agent {idx}: threshold is not a multiple of epsilon={epsilon}"
            )
        rows.append((tuple(U), p * (Q // q)))
    return Instance._from_grid_rows(m, Q, tuple(rows))


def write_instance(inst: Instance, path) -> None:
    """Serialize to the JSON instance format (conventionally *.instance.json)."""
    doc = {
        "m": inst.m,
        "inv_epsilon": inst.inv_epsilon,
        "agents": [
            {
                "u": [format_rational(u) for u in agent.utilities],
                "tau": format_rational(agent.threshold),
            }
            for agent in inst.agents
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Parse and validate an instance file; raises ValueError with the
    offending agent index on any quantization or range violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    try:
        m, Q, agents = doc["m"], doc["inv_epsilon"], doc["agents"]
        # bool is an int subclass, and a string "u" would iterate its characters.
        if not (type(m) is int and type(Q) is int and isinstance(agents, list)
                and all(isinstance(a, dict) and isinstance(a["u"], list) for a in agents)):
            raise TypeError('want integer "m" and "inv_epsilon" and a list of {"u": [...], "tau"}')
        # A grid holds at most 1/epsilon + 1 values: parse each string once.
        # Only strings reach the cache (parse_rational rejects the rest); an
        # unhashable value is a TypeError.
        parsed: dict[str, Fraction] = {}

        def rational(text) -> Fraction:
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
            return value

        agents = [AgentSpec([rational(u) for u in a["u"]], rational(a["tau"]))
                  for a in agents]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc
    if Q < 2:
        raise ValueError(f"malformed instance file {path}: inv_epsilon must be >= 2, got {Q}")
    return _instance(m, Fraction(1, Q), agents)


def _grid_lottery(rng: random.Random, m: int, Q: int) -> Lottery:
    """A uniformly random lottery with all coordinates positive multiples
    of 1/Q: a random composition of Q into m positive parts."""
    if Q < m:
        raise ValueError(f"positive grid lottery needs 1/epsilon >= m (got {Q} < {m})")
    cuts = sorted(rng.sample(range(1, Q), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [Q])]
    return Lottery([Fraction(p, Q) for p in parts])


def _random_agent(rng: random.Random, m: int, Q: int) -> AgentSpec:
    u = [Fraction(rng.randint(0, Q), Q) for _ in range(m)]
    tau = Fraction(rng.randint(1, Q), Q)
    return AgentSpec(u, tau)


def _gen_example_2_3(params, rng):
    inst = Instance(3, Fraction(1, 10), [
        AgentSpec(["1", "0.6", "0.2"], "0.6"),
        AgentSpec(["0.2", "1", "0.5"], "0.7"),
        AgentSpec(["0.2", "0.2", "1"], "0.3"),
    ])
    witness = Lottery(["0.25", "0.60", "0.15"])
    return inst, GroundTruth(True, witness), None


def _gen_example_2_1(params, rng):
    inst = Instance(2, Fraction(1, 10), [
        AgentSpec(["1", "0"], "0.6"),
        AgentSpec(["0", "1"], "0.6"),
    ])
    return inst, GroundTruth(False), None


def _singleton_core(m: int, Q: int, x: Lottery) -> list[AgentSpec]:
    """m agents pinning the feasible set to exactly {x}: agent i cares only
    about alternative i and demands x_i of it."""
    eps = Fraction(1, Q)
    if x.m != m:
        raise ValueError(f"grid point has {x.m} coordinates, expected {m}")
    for j, p in enumerate(x.probs, start=1):
        if p <= 0 or (p / eps).denominator != 1:
            raise ValueError(
                f"coordinate {j} of the planted point must be a positive multiple of 1/{Q}"
            )
    return [
        AgentSpec([ONE if j == i else ZERO for j in range(m)], x[i])
        for i in range(m)
    ]


def _gen_grid_singleton(params, rng):
    m, Q = _require(params, "m", "inv_epsilon")
    if Q < m:
        raise ValueError(f"grid-singleton needs 1/epsilon >= m (got {Q} < {m})")
    if m > math.isqrt(Q):
        warnings.warn(
            f"grid-singleton with m={m} > sqrt(1/epsilon)={math.isqrt(Q)}: outside "
            "the regime where the family's query lower bound applies",
            stacklevel=2,
        )
    x = params.get("x")
    x = Lottery(x) if x is not None else _grid_lottery(rng, m, Q)
    inst = Instance(m, Fraction(1, Q), _singleton_core(m, Q, x))
    return inst, GroundTruth(True, x, unique=True), None


def _gen_dummy_padded(params, rng):
    n, m, Q = _require(params, "n", "m", "inv_epsilon")
    if n < m:
        raise ValueError(f"dummy-padded needs n >= m (got n={n}, m={m})")
    x = params.get("x")
    x = Lottery(x) if x is not None else _grid_lottery(rng, m, Q)
    agents = _singleton_core(m, Q, x)
    # Padding: agents that accept every lottery (all utilities 1, tau 1).
    agents += [AgentSpec([ONE] * m, ONE) for _ in range(n - m)]
    inst = Instance(m, Fraction(1, Q), agents)
    return inst, GroundTruth(True, x, unique=True), None


def _gen_point_mass(params, rng):
    m, j = _require(params, "m", "j")
    if not 1 <= j <= m:
        raise ValueError(f"alternative index {j} out of range 1..{m}")
    Q = params.get("inv_epsilon", 2)
    agent = AgentSpec([ONE if k == j else ZERO for k in range(1, m + 1)], ONE)
    inst = Instance(m, Fraction(1, Q), [agent])
    return inst, GroundTruth(True, Lottery.pure(j, m), unique=True), None


def _gen_near_threshold(params, rng):
    Q, delta, t = _require(params, "inv_epsilon", "delta", "t")
    delta = _as_fraction(delta)
    if Q < 4:
        raise ValueError("near-threshold needs 1/epsilon >= 4")
    if delta <= 0:
        raise ValueError("delta must be positive")
    M = min(Q // 2, int(delta * Q * Q) + 1)
    if not 0 <= t < M:
        raise ValueError(f"t={t} out of range 0..{M - 1} for Q={Q}, delta={delta}")
    eps = Fraction(1, Q)
    q_t = Q - t
    alpha_t = Fraction(1, q_t)
    # Agent 1 accepts alpha <= alpha_t, agent 2 accepts alpha >= alpha_t:
    # the feasible set is the single edge point at alpha_t.
    inst = Instance(2, eps, [
        AgentSpec([q_t * eps, ZERO], (q_t - 1) * eps),
        AgentSpec([ZERO, q_t * eps], eps),
    ])
    truth = Lottery([1 - alpha_t, alpha_t])
    alpha_hat = (Fraction(1, Q) + Fraction(1, Q - M + 1)) / 2
    hint = Lottery([1 - alpha_hat, alpha_hat])
    return inst, GroundTruth(True, truth, unique=True), Advice(x_hat=hint)


def _gen_random_feasible(params, rng):
    n, m, Q = _require(params, "n", "m", "inv_epsilon")
    x = _grid_lottery(rng, m, Q)
    eps = Fraction(1, Q)
    agents = []
    for _ in range(n):
        while True:
            u = [Fraction(rng.randint(0, Q), Q) for _ in range(m)]
            value = sum((ui * p for ui, p in zip(u, x.probs)), ZERO)
            ceiling = int(value / eps)  # largest grid threshold still accepting x
            if ceiling >= 1:
                break
        tau = Fraction(rng.randint(1, ceiling), Q)
        agents.append(AgentSpec(u, tau))
    return Instance(m, eps, agents), GroundTruth(True, x), None


def _gen_random_infeasible(params, rng):
    n, m, Q = _require(params, "n", "m", "inv_epsilon")
    if n < 2 or m < 2:
        raise ValueError("random-infeasible needs n >= 2 and m >= 2")
    eps = Fraction(1, Q)
    tau0 = (Q // 2 + 1) * eps
    # Agents 1 and 2 demand x_1 >= tau0 and x_1 <= 1 - tau0 < tau0 respectively.
    agents = [
        AgentSpec([ONE] + [ZERO] * (m - 1), tau0),
        AgentSpec([ZERO] + [ONE] * (m - 1), tau0),
    ]
    agents += [_random_agent(rng, m, Q) for _ in range(n - 2)]
    return Instance(m, eps, agents), GroundTruth(False), None


_GENERATORS = {
    "example-2-3": _gen_example_2_3,
    "example-2-1": _gen_example_2_1,
    "grid-singleton": _gen_grid_singleton,
    "dummy-padded": _gen_dummy_padded,
    "point-mass": _gen_point_mass,
    "near-threshold": _gen_near_threshold,
    "random-feasible": _gen_random_feasible,
    "random-infeasible": _gen_random_infeasible,
}


def _snap(value: Fraction, eps: Fraction) -> Fraction:
    """Nearest multiple of eps, ties rounded up, computed exactly."""
    return math.floor(value / eps + Fraction(1, 2)) * eps


def quantize(utilities: Sequence[Sequence], thresholds: Sequence, epsilon) -> Instance:
    """Snap arbitrary rational utilities/thresholds onto the epsilon grid.

    Every value moves by at most epsilon; thresholds that would round to
    zero are clamped up to epsilon to stay positive (still within the
    epsilon sandwich, since the input threshold was positive).
    """
    eps = _as_fraction(epsilon)
    utilities = [[_as_fraction(u) for u in row] for row in utilities]
    thresholds = [_as_fraction(t) for t in thresholds]
    if len(utilities) != len(thresholds):
        raise ValueError("one threshold per utility row required")
    agents = []
    for idx, (row, tau) in enumerate(zip(utilities, thresholds), start=1):
        if any(not (ZERO <= u <= ONE) for u in row):
            raise ValueError(f"agent {idx}: utilities must lie in [0, 1]")
        if not (ZERO < tau <= ONE):
            raise ValueError(f"agent {idx}: threshold must lie in (0, 1]")
        agents.append(AgentSpec(
            [_snap(u, eps) for u in row],
            max(eps, _snap(tau, eps)),
        ))
    m = len(utilities[0]) if utilities else 0
    return Instance(m, eps, agents)


def generate(family: str, params: dict):
    """(instance, ground truth, advice) for valid parameters, from the same
    seeded ``random.Random`` stream as ``unanimity.instances.generate``."""
    return _GENERATORS[family](params, random.Random(params.get("seed", 0)))
