"""Instance construction: worked examples, random and adversarial families.

Each generator family emits an instance together with a ground-truth tag
(feasible witness lottery or infeasibility marker) computed from the
construction itself, never by running a solver -- tests compare solver
output against these tags without crossing the oracle boundary.  The
near-threshold family additionally emits the lottery hint its analysis
prescribes.

Also here: quantization of arbitrary rational instances onto the epsilon
grid, and a lossless JSON file format.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from unanimity.core import (
    AgentSpec,
    Instance,
    Lottery,
    format_rational,
    parse_rational,
)
from unanimity.solvers import Advice

ZERO = Fraction(0)
ONE = Fraction(1)

FAMILIES = (
    "example-2-3",
    "example-2-1",
    "random-feasible",
    "random-infeasible",
    "grid-singleton",
    "point-mass",
    "dummy-padded",
    "near-threshold",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """A family name plus its family-specific parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")


@dataclass(frozen=True)
class GroundTruth:
    """What the construction guarantees about the instance, for tests only."""

    feasible: bool
    lottery: Optional[Lottery] = None  # a known acceptable lottery, if any
    unique: bool = False  # True when the feasible set is exactly {lottery}

    def to_json_dict(self) -> dict:
        doc: dict = {"feasible": self.feasible, "unique": self.unique}
        if self.lottery is not None:
            doc["lottery"] = [format_rational(p) for p in self.lottery.probs]
        return doc


def _require(params: dict, *names: str) -> list:
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"missing generator parameters: {', '.join(missing)}")
    return [params[k] for k in names]


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
    delta = Fraction(delta)
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


def generate(spec: GeneratorSpec) -> tuple[Instance, GroundTruth, Optional[Advice]]:
    """Build an instance of the requested family.

    Returns (instance, ground truth, advice) where advice is None unless
    the family prescribes a hint (near-threshold).  Randomized families
    read an integer ``seed`` parameter (default 0).
    """
    rng = random.Random(spec.params.get("seed", 0))
    return _GENERATORS[spec.family](spec.params, rng)


def _snap(value: Fraction, eps: Fraction) -> Fraction:
    """Nearest multiple of eps, ties rounded up, computed exactly."""
    return math.floor(value / eps + Fraction(1, 2)) * eps


def quantize(utilities: Sequence[Sequence], thresholds: Sequence, epsilon) -> Instance:
    """Snap arbitrary rational utilities/thresholds onto the epsilon grid.

    Every value moves by at most epsilon; thresholds that would round to
    zero are clamped up to epsilon to stay positive (still within the
    epsilon sandwich, since the input threshold was positive).
    """
    eps = Fraction(epsilon)
    utilities = [[Fraction(u) for u in row] for row in utilities]
    thresholds = [Fraction(t) for t in thresholds]
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
        m = int(doc["m"])
        Q = int(doc["inv_epsilon"])
        agents = [
            AgentSpec([parse_rational(u) for u in a["u"]], parse_rational(a["tau"]))
            for a in doc["agents"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc
    if Q < 2:
        raise ValueError(f"malformed instance file {path}: inv_epsilon must be >= 2, got {Q}")
    return Instance(m, Fraction(1, Q), agents)
