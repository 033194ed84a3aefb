"""Every script in demos/, and the README's Python snippet, runs to
completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
(README_SNIPPET,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
INPUTS = {p.stem: [str(p)] for p in DEMOS} | {"README": ["-c", README_SNIPPET]}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("args", INPUTS.values(), ids=INPUTS.keys())
def test_demo_exits_zero(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
