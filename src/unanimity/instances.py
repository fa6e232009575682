"""Instance construction: worked examples, random and adversarial families.

Each generator family emits an instance together with a ground-truth tag
(feasible witness lottery or infeasibility marker) computed from the
construction itself, never by running a solver -- tests compare solver
output against these tags without crossing the oracle boundary.  The
near-threshold family additionally emits the hinted lottery its analysis
prescribes.

Also here: quantization of arbitrary rational instances onto the epsilon
grid, and a lossless JSON file format.  The generators, ``quantize`` and
``read_instance`` all build each agent straight into its integer row
``(U, T)`` in units of epsilon, the form :class:`Instance` stores, with
no ``AgentSpec`` per agent.  ``write_instance`` writes exactly the bytes
of ``json.dumps(doc, indent=2)``, from the JSON text of each distinct
value laid out per agent, without CPython's pure-Python indenting
encoder.  Both directions spell and read the file's ``"p/q"`` values with
int arithmetic, and ``read_instance`` builds its rows by passes over the
whole agent list.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Optional, Sequence

from unanimity.core import (
    MAX_EXPONENT,
    Instance,
    Lottery,
    _as_fraction,
    _grid_units,
    format_rational,
    parse_rational,
)
from unanimity.solvers import Advice


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


def _grid_lottery(rng: random.Random, m: int, Q: int) -> Lottery:
    """A uniformly random lottery with all coordinates positive multiples
    of 1/Q: a random composition of Q into m positive parts."""
    if Q < m:
        raise ValueError(f"positive grid lottery needs 1/epsilon >= m (got {Q} < {m})")
    cuts = sorted(rng.sample(range(1, Q), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [Q])]
    return Lottery([Fraction(p, Q) for p in parts])


def _gen_example_2_3(rng):
    # In units of epsilon = 1/10.
    inst = Instance._from_grid_rows(3, 10, (
        ((10, 6, 2), 6),
        ((2, 10, 5), 7),
        ((2, 2, 10), 3),
    ))
    witness = Lottery(["0.25", "0.60", "0.15"])
    return inst, GroundTruth(True, witness), None


def _gen_example_2_1(rng):
    inst = Instance._from_grid_rows(2, 10, (((10, 0), 6), ((0, 10), 6)))
    return inst, GroundTruth(False), None


def _singleton(rng, m: int, Q: int, x) -> tuple[Lottery, list]:
    """The planted point (``x``, or a random grid lottery if None) and the
    grid rows of m agents pinning the feasible set to exactly {x}: agent i
    cares only about alternative i and demands x_i of it."""
    x = Lottery(x) if x is not None else _grid_lottery(rng, m, Q)
    if x.m != m:
        raise ValueError(f"grid point has {x.m} coordinates, expected {m}")
    rows = []
    for j, p in enumerate(x.probs, start=1):
        # A lottery's coordinates lie in [0, 1]: only 0 and off-grid fail.
        try:
            T = _grid_units(p, Q)
        except ValueError:
            T = 0
        if not T:
            raise ValueError(
                f"coordinate {j} of the planted point must be a positive multiple of 1/{Q}"
            )
        rows.append((tuple(Q if k == j else 0 for k in range(1, m + 1)), T))
    return x, rows


def _gen_grid_singleton(rng, m, Q, x=None):
    if Q < m:
        raise ValueError(f"grid-singleton needs 1/epsilon >= m (got {Q} < {m})")
    if m > math.isqrt(Q):
        warnings.warn(
            f"grid-singleton with m={m} > sqrt(1/epsilon)={math.isqrt(Q)}: outside "
            "the regime where the family's query lower bound applies",
            stacklevel=2,
        )
    x, rows = _singleton(rng, m, Q, x)
    inst = Instance._from_grid_rows(m, Q, tuple(rows))
    return inst, GroundTruth(True, x, unique=True), None


def _gen_dummy_padded(rng, n, m, Q, x=None):
    if n < m:
        raise ValueError(f"dummy-padded needs n >= m (got n={n}, m={m})")
    x, rows = _singleton(rng, m, Q, x)
    # Padding: agents that accept every lottery (all utilities 1, tau 1).
    rows += [((Q,) * m, Q)] * (n - m)
    inst = Instance._from_grid_rows(m, Q, tuple(rows))
    return inst, GroundTruth(True, x, unique=True), None


def _gen_point_mass(rng, m, j, inv_epsilon=2):
    if not 1 <= j <= m:
        raise ValueError(f"alternative index {j} out of range 1..{m}")
    U = tuple(inv_epsilon if k == j else 0 for k in range(1, m + 1))
    inst = Instance._from_grid_rows(m, inv_epsilon, ((U, inv_epsilon),))
    return inst, GroundTruth(True, Lottery.pure(j, m), unique=True), None


def _gen_near_threshold(rng, Q, delta, t):
    delta = _as_fraction(delta)
    if Q < 4:
        raise ValueError("near-threshold needs 1/epsilon >= 4")
    if delta <= 0:
        raise ValueError("delta must be positive")
    M = min(Q // 2, int(delta * Q * Q) + 1)
    if not 0 <= t < M:
        raise ValueError(f"t={t} out of range 0..{M - 1} for Q={Q}, delta={delta}")
    q_t = Q - t
    alpha_t = Fraction(1, q_t)
    # Agent 1 accepts alpha <= alpha_t, agent 2 accepts alpha >= alpha_t:
    # the feasible set is the single edge point at alpha_t.
    inst = Instance._from_grid_rows(2, Q, (((q_t, 0), q_t - 1), ((0, q_t), 1)))
    truth = Lottery([1 - alpha_t, alpha_t])
    alpha_hat = (Fraction(1, Q) + Fraction(1, Q - M + 1)) / 2
    hint = Lottery([1 - alpha_hat, alpha_hat])
    return inst, GroundTruth(True, truth, unique=True), Advice(x_hat=hint)


def _gen_random_feasible(rng, n, m, Q):
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


def _gen_random_infeasible(rng, n, m, Q):
    if n < 2 or m < 2:
        raise ValueError("random-infeasible needs n >= 2 and m >= 2")
    T0 = Q // 2 + 1
    # Agents 1 and 2 demand x_1 >= T0/Q and x_1 <= 1 - T0/Q < T0/Q respectively.
    rows = [((Q,) + (0,) * (m - 1), T0), ((0,) + (Q,) * (m - 1), T0)]
    for _ in range(n - 2):
        U = tuple([rng.randint(0, Q) for _ in range(m)])
        rows.append((U, rng.randint(1, Q)))
    return Instance._from_grid_rows(m, Q, tuple(rows)), GroundTruth(False), None


# Each family's generator, the parameters it requires and those it may
# also read besides ``seed``.  A generator takes the seeded rng, the
# required parameters in this order and the optional ones by name.
_GENERATORS = {
    "example-2-3": (_gen_example_2_3, (), ()),
    "example-2-1": (_gen_example_2_1, (), ()),
    "random-feasible": (_gen_random_feasible, ("n", "m", "inv_epsilon"), ()),
    "random-infeasible": (_gen_random_infeasible, ("n", "m", "inv_epsilon"), ()),
    "grid-singleton": (_gen_grid_singleton, ("m", "inv_epsilon"), ("x",)),
    "point-mass": (_gen_point_mass, ("m", "j"), ("inv_epsilon",)),
    "dummy-padded": (_gen_dummy_padded, ("n", "m", "inv_epsilon"), ("x",)),
    "near-threshold": (_gen_near_threshold, ("inv_epsilon", "delta", "t"), ()),
}

FAMILIES = tuple(_GENERATORS)


def generate(spec: GeneratorSpec) -> tuple[Instance, GroundTruth, Optional[Advice]]:
    """Build an instance of the requested family.

    Returns (instance, ground truth, advice) where advice is None unless
    the family prescribes a hint (near-threshold).  Every family accepts an
    integer ``seed`` parameter (default 0), and a parameter the family does
    not read is rejected.  ``n``, ``m``, ``j``, ``t`` and ``seed`` must be
    ints (not bools), ``n`` >= 0 and ``m`` >= 1, and an ``inv_epsilon``
    parameter an integer >= 2; anything else is a ValueError.
    """
    gen, required, optional = _GENERATORS[spec.family]
    unread = sorted(set(spec.params) - set(required) - set(optional) - {"seed"})
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
    missing = [k for k in required if k not in spec.params]
    if missing:
        raise ValueError(f"missing generator parameters: {', '.join(missing)}")
    rng = random.Random(spec.params.get("seed", 0))
    given = {k: spec.params[k] for k in optional if k in spec.params}
    return gen(rng, *[spec.params[k] for k in required], **given)


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
    m = len(utilities[0]) if utilities else 0
    # An instance with no agents yet checks m >= 1 and epsilon = 1/Q, Q >= 2.
    Q = Instance(m, eps, ()).inv_epsilon
    rows = []
    for idx, (row, tau) in enumerate(zip(utilities, thresholds), start=1):
        if any(not (0 <= u <= 1) for u in row):
            raise ValueError(f"agent {idx}: utilities must lie in [0, 1]")
        if not (0 < tau <= 1):
            raise ValueError(f"agent {idx}: threshold must lie in (0, 1]")
        if len(row) != m:
            raise ValueError(f"agent {idx}: expected {m} utilities, got {len(row)}")
        # The nearest count of epsilon-units, ties rounded up, is
        # floor(v*Q + 1/2); a Fraction's // is an exact floor.
        U = tuple((2 * u * Q + 1) // 2 for u in row)
        rows.append((U, max(1, (2 * tau * Q + 1) // 2)))
    return Instance._from_grid_rows(m, Q, tuple(rows))


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
    the JSON text of each distinct value is made once, from ints, and each
    agent's text is that layout joined around it.
    """
    Q = inst.inv_epsilon

    def units_text(units: int) -> str:
        # format_rational(Fraction(units, Q)) as JSON, from ints: "p" or "p/q".
        g = math.gcd(units, Q)
        return f'"{units // g}"' if g == Q else f'"{units // g}/{Q // g}"'

    value = _Memo(units_text).__getitem__
    rows = ['{\n      "u": [\n        ' + ",\n        ".join(map(value, U))
            + '\n      ],\n      "tau": ' + value(T) + "\n    }"
            for U, T in inst.grid_rows]
    agents = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "m": {json.dumps(inst.m)},\n  "inv_epsilon": {json.dumps(Q)},'
                 f'\n  "agents": {agents}\n}}\n')


def _grid_rows(agents: list, m: int, to_units) -> tuple:
    """The rows of an agent list that is all well formed, built by passes
    over the whole list: every agent an object with a list ``"u"`` of m
    values and a ``"tau"``, every value on the grid and every threshold
    positive.  Anything else raises KeyError, TypeError or ValueError,
    without naming the agent."""
    # Of the values json.load builds, only an object takes a string key.
    us = list(map(itemgetter("u"), agents))
    if not ({list}.issuperset(map(type, us)) and {m}.issuperset(map(len, us))):
        raise TypeError
    T = list(map(to_units, map(itemgetter("tau"), agents)))
    if 0 in T:
        raise ValueError
    # Every "u" holds m values, so m at a time they regroup into the rows' U.
    return tuple(zip(zip(*[map(to_units, chain.from_iterable(us))] * m), T))


def _agent_rows(agents: list, m: int, units: _Memo) -> tuple:
    """The rows of an agent list, one agent at a time; a ValueError or a
    TypeError names the first bad agent."""
    to_units = units.__getitem__
    rows = []
    for idx, a in enumerate(agents, start=1):
        # A string or an object "u" would iterate its characters or keys.
        # json.load builds plain dicts and lists, so exact type tests do.
        # A missing "u" or "tau" is reported as a non-object agent is.
        try:
            if not (type(a) is dict and type(u := a.get("u")) is list):
                raise KeyError
            tau = a["tau"]
        except KeyError:
            raise TypeError(f'agent {idx}: want {{"u": [...], "tau": ...}}') from None
        try:
            U = tuple(map(to_units, u))
            T = to_units(tau)
        except (ValueError, TypeError) as exc:
            # The first value not in the table is the one that failed; a
            # list or an object is unhashable, so never in it.
            where, text = next(((f"utility for alternative {j}", text)
                                for j, text in enumerate(u, start=1)
                                if type(text) is not str or text not in units),
                               ("threshold", tau))
            reason = exc if isinstance(exc, ValueError) else "is not a rational string"
            raise ValueError(f"agent {idx}: {where} {text!r} {reason}") from None
        if len(U) != m:
            raise ValueError(f"agent {idx}: expected {m} utilities, got {len(U)}")
        if not T:
            raise ValueError(f"agent {idx}: threshold {tau!r} is not positive")
        rows.append((U, T))
    return tuple(rows)


def read_instance(path) -> Instance:
    """Parse and validate an instance file; raises ValueError naming the
    offending agent on any range, length or quantization violation.

    Each value goes straight from its string to an integer in units of
    epsilon, with int arithmetic for the writer's spelling ``"p"`` or
    ``"p/q"``; no AgentSpec is built, nor a Fraction for such a value.  The
    rows are built by passes over the whole agent list, and only a file
    that fails them is read again agent by agent, to name the first bad one.
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

        def text_units(text) -> int:
            # ASCII digits "p" or "p/q" with 0 <= p/q <= 1 on the grid are
            # p*Q/q units.  The length bound keeps each part within int()'s
            # digit limit.  Every other string, and every error, goes
            # through parse_rational and _grid_units.
            if type(text) is str and len(text) <= MAX_EXPONENT and text.isascii():
                num, slash, den = text.partition("/")
                if num.isdigit() and (den.isdigit() or not slash):
                    p, q = int(num), int(den) if slash else 1
                    if 0 < q and p <= q:
                        units, off = divmod(p * Q, q)
                        if not off:
                            return units
            try:
                value = parse_rational(text)
            except ValueError:
                raise ValueError("is not a rational string") from None
            return _grid_units(value, Q)

        # Each distinct string is parsed and checked once.  Only strings
        # become keys (parse_rational rejects the rest); an unhashable value
        # is a TypeError.
        units = _Memo(text_units)
        try:
            rows = _grid_rows(agents, m, units.__getitem__)
        except (KeyError, TypeError, ValueError):
            rows = _agent_rows(agents, m, units)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc
    return Instance._from_grid_rows(m, Q, rows)
