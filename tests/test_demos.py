"""The demos and the README library example run against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*"))


def run(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def test_every_demo_is_collected():
    assert [d.name for d in DEMOS] == [
        "01_worked_examples.py", "02_query_accounting.py", "03_advice.py",
        "04_cli_tour.sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(demo):
    interpreter = "bash" if demo.suffix == ".sh" else sys.executable
    proc = run([interpreter, str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
    proc = run([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["Accepted", "(19/64, 37/64, 1/8)"]
