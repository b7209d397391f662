"""The benchmark's own smoke run passes on this tree.

perfbench checks every operation's output, for instance that
`result.matching` of a match payload is a perfect matching and that a
forest is acyclic through `treedyn.forest_is_acyclic`.  A payload or API
change that breaks one of those checks fails here, in tier-1.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    ok = [ln for ln in proc.stdout.splitlines() if ln.startswith("# smoke ok")]
    assert len(ok) == 3, proc.stdout[-2000:]
