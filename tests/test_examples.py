"""Examples run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_inspect_generated_code_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "inspect_generated_code.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "__global__ void fused_spmm" in done.stdout
    assert "def _udf(" in done.stdout  # the program the CPU template runs
