"""The benchmark's own smoke check, run inside the test suite.

``benchmark/check_smoke.py`` drives every workload at tiny sizes.  Its
tracing hooks bind package signatures by name (``regularized_nw_vector``'s
``rootset`` and ``params``, ``SolverConfig.n_random_starts`` and
``seed_strategies``), so an API change that would break a benchmark run
fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/check_smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
