"""The benchmark's workloads: which decisions each one runs, built from a seed.

A decision is one instance file plus the solver command to run on it.  Every
workload is a fixed mix of *slots* (family, sizes, solver); the seed only
picks the generator seeds, the planted points and the solver seeds.  Slots
are interleaved round-robin, so every stretch of a pass has the same mix.

Why each workload exists (see README.md for the per-layer predictions):

* ``lp-grid``   -- small n, where exact arithmetic blocks every decision.
  Half the mix has m in {4, 5} at 1/eps = 20, so the exact LP (``select``,
  ``helly_witness``, ``feasible_full``) dominates; the other half has 1/eps
  in the thousands with at most 4 LP rows, so the 1/eps-linear
  ``rational_reconstruct`` dominates.  The two halves share one workload so
  that each run can last longer on a noisy machine; the traced run tells
  them apart.
* ``wide-cli``  -- n in the hundreds, m in {2, 3}, through files: the
  verification scan, ``weighted_sample`` and instance-file reads dominate.

Each workload also carries a few cheap decisions that touch the paths the
other stresses (a hinted near-threshold decision, an infeasible pair, a
randomized decision), so every per-layer timer is measured on every
workload and a "no change" prediction is checked against a real number.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import unanimity.instances as instances
from unanimity.core import format_rational

WORKLOADS = ("lp-grid", "wide-cli")
WIDE_N = 900


@dataclass(frozen=True)
class InstanceSpec:
    """One instance file: a generator family, its parameters, and options."""

    name: str
    family: str
    params: dict
    # Write the family's lottery hint next to the instance.
    hint: bool = False
    # Redraw until no agent rejects every pure lottery (see no_reject_all).
    witness_path: bool = False


@dataclass(frozen=True)
class Decision:
    """One solve + verify pair on an instance file."""

    id: str
    instance: str
    solver: str
    solver_seed: int = 0
    hint: bool = False


@dataclass
class Workload:
    name: str
    instances: list[InstanceSpec] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)


def no_reject_all(inst) -> bool:
    """True when every agent accepts some pure lottery.

    Decided from instance data alone.  On an infeasible instance this means
    the baseline solver cannot stop at a RejectAll agent: it ends in
    ``helly_witness``, and ``verify`` runs ``feasible_full`` over every row.
    """
    return all(max(agent.utilities) >= agent.threshold for agent in inst.agents)


def _interleave(groups: list[list]) -> list:
    """Round-robin merge of the slot groups, in slot order."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


class _Mix:
    def __init__(self, name: str, seed: int) -> None:
        self.rng = random.Random(f"{name}:{seed}")
        self.workload = Workload(name)
        self._groups: list[list[Decision]] = []

    def instance(self, family: str, params: dict, *, hint=False, witness_path=False) -> str:
        name = f"i{len(self.workload.instances):03d}"
        params = dict(params, seed=self.rng.randrange(2**31))
        self.workload.instances.append(
            InstanceSpec(name, family, params, hint=hint, witness_path=witness_path)
        )
        return name

    def _group(self, solver: str, names, hint: bool) -> None:
        self._groups.append([
            Decision("", name, solver,
                     self.rng.randrange(2**31) if solver == "randomized" else 0, hint)
            for name in names
        ])

    def slot(self, count: int, family: str, params, solver: str, *,
             hint=False, witness_path=False) -> None:
        """``count`` decisions, each on a fresh instance; ``params`` may be a
        function of the workload's random generator."""
        names = [self.instance(family, params(self.rng) if callable(params) else params,
                               hint=hint, witness_path=witness_path)
                 for _ in range(count)]
        self._group(solver, names, hint)

    def reuse(self, count: int, solver: str, names: list[str]) -> None:
        """``count`` decisions cycling over already generated instances."""
        self._group(solver, [names[k % len(names)] for k in range(count)], False)

    def build(self) -> Workload:
        merged = _interleave(self._groups)
        self.workload.decisions = [
            Decision(f"d{k:03d}", d.instance, d.solver, d.solver_seed, d.hint)
            for k, d in enumerate(merged)
        ]
        return self.workload


def _near_threshold(Q: int):
    return lambda rng: {"inv_epsilon": Q, "delta": "1/25", "t": rng.randrange(Q // 2)}


def _lp_grid(b: _Mix) -> None:
    _lp_bound(b)
    _fine_grid(b)


def _lp_bound(b: _Mix) -> None:
    b.slot(80, "random-feasible", {"n": 24, "m": 4, "inv_epsilon": 20}, "deterministic")
    b.slot(80, "random-feasible", {"n": 10, "m": 4, "inv_epsilon": 20}, "baseline")
    b.slot(56, "random-feasible", {"n": 8, "m": 5, "inv_epsilon": 20}, "baseline")
    b.slot(28, "random-infeasible", {"n": 10, "m": 3, "inv_epsilon": 20}, "baseline",
           witness_path=True)
    b.slot(4, "random-feasible", {"n": 8, "m": 4, "inv_epsilon": 20}, "randomized")
    b.slot(2, "near-threshold", _near_threshold(20), "deterministic", hint=True)


def _fine_grid(b: _Mix) -> None:
    for m, Q, count in ((4, 2000, 40), (3, 5000, 26), (3, 2000, 14), (4, 5000, 8)):
        for solver in ("baseline", "deterministic"):
            b.slot(count, "grid-singleton", {"m": m, "inv_epsilon": Q}, solver)
    for Q in (4000, 10000):
        b.slot(8, "near-threshold", _near_threshold(Q), "deterministic", hint=True)
    b.slot(4, "random-infeasible", {"n": 2, "m": 2, "inv_epsilon": 2000}, "baseline")
    b.slot(4, "grid-singleton", {"m": 3, "inv_epsilon": 2000}, "randomized")


def _wide_cli(b: _Mix) -> None:
    # A few large files, each reused across solver seeds, keep set-up small.
    padded = [b.instance("dummy-padded", {"n": WIDE_N, "m": 3, "inv_epsilon": 20})
              for _ in range(2)]
    wide = [b.instance("random-feasible", {"n": WIDE_N, "m": 2, "inv_epsilon": 20})
            for _ in range(4)]
    b.reuse(72, "randomized", padded)
    b.reuse(16, "deterministic", padded)
    b.reuse(10, "randomized", wide)
    b.slot(1, "near-threshold", _near_threshold(20), "deterministic", hint=True)
    b.slot(1, "random-infeasible", {"n": 2, "m": 2, "inv_epsilon": 20}, "deterministic")


_MIXES = {"lp-grid": _lp_grid, "wide-cli": _wide_cli}


def make_workload(name: str, seed: int) -> Workload:
    """The decisions of workload ``name`` for workload seed ``seed``."""
    if name not in _MIXES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    b = _Mix(name, seed)
    _MIXES[name](b)
    return b.build()


def build_instance(spec: InstanceSpec):
    """Generate one instance; witness-path specs are redrawn (next seed)
    until ``no_reject_all`` holds.  Returns (instance, truth, advice)."""
    params = dict(spec.params)
    while True:
        inst, truth, advice = instances.generate(instances.GeneratorSpec(spec.family, params))
        if not spec.witness_path or no_reject_all(inst):
            return inst, truth, advice
        params["seed"] += 1


def instance_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name + ".instance.json")


def hint_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name + ".hint.json")


def set_up(workload: Workload, workdir: str) -> dict:
    """Generate and write every instance (and hint) file of the workload.

    Returns {instance name: (instance, ground truth)} for checking outcomes;
    the program under test only ever sees the files.
    """
    truths = {}
    for spec in workload.instances:
        inst, truth, advice = build_instance(spec)
        instances.write_instance(inst, instance_path(workdir, spec.name))
        if spec.hint:
            with open(hint_path(workdir, spec.name), "w", encoding="utf-8") as fh:
                json.dump([format_rational(p) for p in advice.x_hat.probs], fh)
                fh.write("\n")
        truths[spec.name] = (inst, truth)
    return truths
