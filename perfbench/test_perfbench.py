"""Tests of the benchmark's own inputs.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import unanimity.feasibility  # noqa: E402
import unanimity.oracle  # noqa: E402
import unanimity.solvers  # noqa: E402
from unanimity.core import AgentSpec, Instance  # noqa: E402
from unanimity.instances import GeneratorSpec, generate  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_instance,
    make_workload,
    no_reject_all,
    set_up,
)


def _files(workload, seed, directory):
    directory.mkdir()
    set_up(make_workload(workload, seed), str(directory))
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_byte_identical_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    second = _files(workload, 7, tmp_path / "b")
    assert first and first == second


def test_another_seed_writes_other_files(tmp_path):
    assert _files("lp-grid", 7, tmp_path / "a") != _files("lp-grid", 8, tmp_path / "b")


def test_no_reject_all_reads_instance_data():
    rejects_all = AgentSpec(["1/10", "2/10"], "3/10")
    accepts_one = AgentSpec(["1/10", "3/10"], "3/10")
    assert no_reject_all(Instance(2, "1/10", [accepts_one]))
    assert not no_reject_all(Instance(2, "1/10", [accepts_one, rejects_all]))


def test_witness_path_filter_runs_no_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the witness-path filter ran the program's decision path")

    for mod, name in ((unanimity.solvers, "solve_baseline"),
                      (unanimity.solvers, "solve_deterministic"),
                      (unanimity.solvers, "solve_randomized"),
                      (unanimity.feasibility, "select"),
                      (unanimity.feasibility, "feasible_full"),
                      (unanimity.oracle.Oracle, "query")):
        monkeypatch.setattr(mod, name, forbidden)
    specs = [s for s in make_workload("lp-grid", 0).instances if s.witness_path]
    assert specs
    redrawn = 0
    for spec in specs:
        inst, truth, _ = build_instance(spec)
        assert not truth.feasible and no_reject_all(inst)
        first_draw, _, _ = generate(GeneratorSpec(spec.family, spec.params))
        redrawn += not no_reject_all(first_draw)
    assert redrawn, "no first draw had a RejectAll agent; the filter went untested"


def test_golden_outputs_cover_every_default_seed_decision():
    with open(os.path.join(HERE, "golden-seed0.jsonl"), encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    for workload in WORKLOADS:
        decisions = make_workload(workload, 0).decisions
        records = {g["id"]: g["record"] for g in golden if g["workload"] == workload}
        assert sorted(records) == [d.id for d in decisions]
        for d in decisions:
            rec = records[d.id]
            assert (rec["instance"], rec["solver"], rec["solver_seed"], rec["hint"]) == \
                (d.instance, d.solver, d.solver_seed, d.hint)
