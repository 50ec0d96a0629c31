"""The benchmark's self-test, run against this checkout's package.

The tracer in ``perfbench/`` wraps every name in each module's ``__all__``
and reads ``spectral.dft_matrix``, ``plan.matrix`` and
``plan.inverse_matrix``, so removing any of them from ``src/`` breaks the
benchmark; this test makes that a tier-1 failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
