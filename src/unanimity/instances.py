"""Instance construction: worked examples, random and adversarial families.

Each generator family emits an instance together with a ground-truth tag
(feasible witness lottery or infeasibility marker) computed from the
construction itself, never by running a solver -- tests compare solver
output against these tags without crossing the oracle boundary.  The
near-threshold family additionally emits the lottery hint its analysis
prescribes.

The random and padded families draw each agent straight into its integer
row ``(U, T)`` in units of epsilon, the form :class:`Instance` stores, so
they build no Fraction or ``AgentSpec`` per agent.

Also here: quantization of arbitrary rational instances onto the epsilon
grid, and a lossless JSON file format.  ``write_instance`` writes exactly
the bytes of ``json.dumps(doc, indent=2)``, from the JSON text of each
distinct value laid out per agent, without CPython's pure-Python indenting
encoder.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from unanimity.core import (
    AgentSpec,
    Instance,
    Lottery,
    _as_fraction,
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


def _singleton_rows(m: int, Q: int, x: Lottery) -> list[tuple[tuple[int, ...], int]]:
    """The grid rows of m agents pinning the feasible set to exactly {x}:
    agent i cares only about alternative i and demands x_i of it."""
    if x.m != m:
        raise ValueError(f"grid point has {x.m} coordinates, expected {m}")
    rows = []
    for j, p in enumerate(x.probs, start=1):
        # In lowest terms, p is a positive multiple of 1/Q iff p > 0 and its
        # denominator divides Q; it is then p * Q units.
        if p <= 0 or Q % p.denominator:
            raise ValueError(
                f"coordinate {j} of the planted point must be a positive multiple of 1/{Q}"
            )
        U = [0] * m
        U[j - 1] = Q
        rows.append((tuple(U), p.numerator * (Q // p.denominator)))
    return rows


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
    inst = Instance._from_grid_rows(m, Q, tuple(_singleton_rows(m, Q, x)))
    return inst, GroundTruth(True, x, unique=True), None


def _gen_dummy_padded(params, rng):
    n, m, Q = _require(params, "n", "m", "inv_epsilon")
    if n < m:
        raise ValueError(f"dummy-padded needs n >= m (got n={n}, m={m})")
    x = params.get("x")
    x = Lottery(x) if x is not None else _grid_lottery(rng, m, Q)
    # Padding: agents that accept every lottery (all utilities 1, tau 1).
    rows = _singleton_rows(m, Q, x) + [((Q,) * m, Q)] * (n - m)
    inst = Instance._from_grid_rows(m, Q, tuple(rows))
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
    P, D = x.scaled
    rows = []
    for _ in range(n):
        while True:
            U = tuple([rng.randint(0, Q) for _ in range(m)])
            # <U/Q, P/D> in units of 1/Q, rounded down: the largest grid
            # threshold that still accepts x.
            ceiling = sum(map(mul, U, P)) // D
            if ceiling >= 1:
                break
        rows.append((U, rng.randint(1, ceiling)))
    return Instance._from_grid_rows(m, Q, tuple(rows)), GroundTruth(True, x), None


def _gen_random_infeasible(params, rng):
    n, m, Q = _require(params, "n", "m", "inv_epsilon")
    if n < 2 or m < 2:
        raise ValueError("random-infeasible needs n >= 2 and m >= 2")
    T0 = Q // 2 + 1
    # Agents 1 and 2 demand x_1 >= T0/Q and x_1 <= 1 - T0/Q < T0/Q respectively.
    rows = [((Q,) + (0,) * (m - 1), T0), ((0,) + (Q,) * (m - 1), T0)]
    for _ in range(n - 2):
        U = tuple([rng.randint(0, Q) for _ in range(m)])
        rows.append((U, rng.randint(1, Q)))
    return Instance._from_grid_rows(m, Q, tuple(rows)), GroundTruth(False), None


# Each family's generator and the parameters it reads besides ``seed``.
_GENERATORS = {
    "example-2-3": (_gen_example_2_3, ()),
    "example-2-1": (_gen_example_2_1, ()),
    "grid-singleton": (_gen_grid_singleton, ("m", "inv_epsilon", "x")),
    "dummy-padded": (_gen_dummy_padded, ("n", "m", "inv_epsilon", "x")),
    "point-mass": (_gen_point_mass, ("m", "j", "inv_epsilon")),
    "near-threshold": (_gen_near_threshold, ("inv_epsilon", "delta", "t")),
    "random-feasible": (_gen_random_feasible, ("n", "m", "inv_epsilon")),
    "random-infeasible": (_gen_random_infeasible, ("n", "m", "inv_epsilon")),
}


def generate(spec: GeneratorSpec) -> tuple[Instance, GroundTruth, Optional[Advice]]:
    """Build an instance of the requested family.

    Returns (instance, ground truth, advice) where advice is None unless
    the family prescribes a hint (near-threshold).  Every family accepts an
    integer ``seed`` parameter (default 0), and a parameter the family does
    not read is rejected.  ``n``, ``m``, ``j``, ``t`` and ``seed`` must be
    ints (not bools), ``n`` >= 0 and ``m`` >= 1, and an ``inv_epsilon``
    parameter an integer >= 2; anything else is a ValueError.
    """
    gen, reads = _GENERATORS[spec.family]
    unread = sorted(set(spec.params) - set(reads) - {"seed"})
    if unread:
        raise ValueError(f"{spec.family} does not read parameter(s): {', '.join(unread)}")
    for name in ("n", "m", "j", "t", "seed"):
        # bool is an int subclass, and a float or string count would fail
        # later with a TypeError, or be used as it is.
        if name in spec.params and type(spec.params[name]) is not int:
            raise ValueError(f"parameter {name} must be an integer "
                             f"(got {spec.params[name]!r})")
    if spec.params.get("n", 0) < 0:
        raise ValueError(f"need n >= 0 agents (got {spec.params['n']})")
    if spec.params.get("m", 1) < 1:
        raise ValueError(f"need m >= 1 alternatives (got {spec.params['m']})")
    Q = spec.params.get("inv_epsilon")
    # bool is an int subclass; True must not pass for 1/epsilon = 1.
    if Q is not None and not (type(Q) is int and Q >= 2):
        raise ValueError("1/epsilon must be an integer >= 2")
    rng = random.Random(spec.params.get("seed", 0))
    return gen(spec.params, rng)


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


class _Memo(dict):
    """A dict that computes each missing key's value once, with ``make``."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def write_instance(inst: Instance, path) -> None:
    """Serialize to the JSON instance format (conventionally *.instance.json).

    The file holds exactly ``json.dumps(doc, indent=2)`` plus a newline, but
    CPython runs its pure-Python encoder whenever ``indent`` is set.  Here
    the C encoder makes the JSON text of each distinct value once, and each
    agent's text is that layout joined around it.
    """
    Q = inst.inv_epsilon
    text = _Memo(lambda units: json.dumps(format_rational(Fraction(units, Q))))
    value = text.__getitem__
    rows = ['{\n      "u": [\n        ' + ",\n        ".join(map(value, U))
            + '\n      ],\n      "tau": ' + value(T) + "\n    }"
            for U, T in inst.grid_rows]
    agents = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "m": {json.dumps(inst.m)},\n  "inv_epsilon": {json.dumps(Q)},'
                 f'\n  "agents": {agents}\n}}\n')


def _grid_units(text, Q: int) -> int:
    """The value of a rational string in [0, 1] in units of 1/Q.  A
    ValueError says why ``text`` is rejected; the caller says where."""
    try:
        value = parse_rational(text)
    except ValueError:
        raise ValueError("is not a rational string") from None
    if not 0 <= value <= 1:
        raise ValueError("lies outside [0, 1]")
    # In lowest terms, p/q is a multiple of 1/Q iff q divides Q.
    scale, off = divmod(Q, value.denominator)
    if off:
        raise ValueError(f"is not a multiple of epsilon=1/{Q}")
    return value.numerator * scale


def read_instance(path) -> Instance:
    """Parse and validate an instance file; raises ValueError naming the
    offending agent on any range, length or quantization violation.

    Each value goes straight from its string to an integer in units of
    epsilon; no AgentSpec or per-value Fraction is built.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"malformed instance file {path}: nested too deeply") from None
    try:
        m, Q, agents = doc["m"], doc["inv_epsilon"], doc["agents"]
        # bool is an int subclass.
        if not (type(m) is int and type(Q) is int and isinstance(agents, list)):
            raise TypeError('want integer "m" and "inv_epsilon" and a list of agents')
        if Q < 2 or m < 1:
            raise ValueError(f"malformed instance file {path}: want m >= 1 and "
                             f"inv_epsilon >= 2, got m={m}, inv_epsilon={Q}")
        # Each distinct string is parsed and checked once.  Only strings
        # become keys (parse_rational rejects the rest); an unhashable value
        # is a TypeError.
        units = _Memo(lambda text: _grid_units(text, Q))
        to_units = units.__getitem__
        rows = []
        for idx, a in enumerate(agents, start=1):
            # A string or an object "u" would iterate its characters or keys.
            # json.load builds plain dicts and lists, so exact type tests do.
            if not (type(a) is dict and type(u := a.get("u")) is list):
                raise TypeError(f'agent {idx}: want {{"u": [...], "tau": ...}}')
            tau = a["tau"]
            try:
                U = tuple(map(to_units, u))
                T = to_units(tau)
            except ValueError as exc:
                # The first value not in the table is the one that failed.
                where, text = next(((f"utility for alternative {j}", text)
                                    for j, text in enumerate(u, start=1) if text not in units),
                                   ("threshold", tau))
                raise ValueError(f"agent {idx}: {where} {text!r} {exc}") from None
            if len(U) != m:
                raise ValueError(f"agent {idx}: expected {m} utilities, got {len(U)}")
            if not T:
                raise ValueError(f"agent {idx}: threshold {tau!r} is not positive")
            rows.append((U, T))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc
    return Instance._from_grid_rows(m, Q, tuple(rows))
