"""The package runs on the standard library alone.

A child interpreter started with -S (no site module, so no site-packages)
and -E (no PYTHONPATH) sees only the standard library and src/.  It imports
every odcodes module and runs one paper-report section.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import importlib, pkgutil, sys
assert not any("-packages" in p for p in sys.path), sys.path
sys.path.insert(0, {src!r})
import odcodes
names = [m.name for m in pkgutil.iter_modules(odcodes.__path__)]
for name in names:
    importlib.import_module("odcodes." + name)
print(" ".join(names))
from odcodes.cli import main
sys.exit(main(["paper-report", "p4"]))
"""


def test_imports_and_runs_without_site_packages(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", CHILD.format(src=str(SRC))],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, report = proc.stdout.split("\n", 1)
    expected = sorted(p.stem for p in (SRC / "odcodes").glob("*.py") if p.stem != "__init__")
    assert imported.split() == expected
    assert report.startswith("== ") and ": PASS" in report
