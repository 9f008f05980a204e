"""Smoke test: the demos that are not thin wrappers of a CLI command run
to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import karnet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["01_pseudoinverse_playground.py", "04_depth_for_width.py"]
)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(karnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
