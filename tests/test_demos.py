"""The demo scripts run to completion.

Each demo prints a walkthrough and asserts nothing itself, so running it
is what catches a demo left behind by an API change. Demo 05 trains the
whole model grid and is left out for time; ``run_grid`` has its own tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_autodiff_basics.py",
    "02_attention_and_layers.py",
    "03_synthetic_trips_pipeline.py",
    "04_train_single_model.py",
])
def test_demo_exits_zero(name):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
