"""The benchmark's output checks still catch wrong outputs (bench/selftest.py)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_zero():
    # -B: leave no bytecode behind in bench/ or src/
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
