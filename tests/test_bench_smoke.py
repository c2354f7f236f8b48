"""The benchmark harness runs end to end on a short coeff-session run.

This keeps `perfbench/` from rotting unnoticed, and checks every answer
the session computes against the stdlib oracles in `perfbench/oracles.py`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_coeff_session_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coeff-session",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
