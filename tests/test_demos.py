"""The narrative demos run against the current API.

Demo 04 runs ``selftest full``, which ``tests/test_acceptance.py``
already covers, so it is left out here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_constants.py", "02_hurwitz_derivatives.py", "03_asymptotic_series.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
