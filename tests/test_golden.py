"""Seeded outputs stay byte-identical: one benchmark pass per workload,
checked decision by decision against ``perfbench/golden-seed0.jsonl``.

The benchmark compares every report's outcome, lottery or witness and
query counts with that file, and checks the outcome against ground truth
and ``verify``; any difference counts as a failed decision.  The traced
pass (``--trace 1``) also wraps ``Oracle.query`` and marks the run
incorrect when the calls it saw differ from the reports' query totals, so
a query that goes around ``Oracle.query`` fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_one_pass(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", ["lp-grid", "wide-cli"])
def test_one_pass_matches_golden_outputs(workload):
    run_one_pass(workload, trace=0)


@pytest.mark.parametrize("workload", ["lp-grid", "wide-cli"])
def test_traced_pass_sees_every_query(workload):
    run_one_pass(workload, trace=1)
