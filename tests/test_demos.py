"""The fast demos and README's quick start run to completion against the
public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_portfolio_benchmark.py",
                                  "02_bellman_policy_evaluation.py",
                                  "03_estimator_verification.py"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = ROOT / "demos"
    before = set(demos.iterdir())
    result = subprocess.run([sys.executable, str(demos / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert set(demos.iterdir()) == before, "the demo wrote into the checkout"


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "README.md should hold one python block, the quick start"
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
