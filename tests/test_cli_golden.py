"""Byte-for-byte CLI output against a recording.

Every subcommand runs in text and --json form, plus the usage, format and
inadmissible error exits; paper-report runs in --json form only, because its
text form prints elapsed times.  The recording in cli_golden.json holds each
command's exit code, stdout and stderr.  After an intended output change,
rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from odcodes.cli import main

RECORDING = Path(__file__).with_name("cli_golden.json")

FILES = {
    "p4.txt": "4 3\n0 1\n1 2\n2 3\n",
    "spider.txt": (
        "6 6\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n"
        "#role 0 q1\n#role 1 q2\n#role 2 q3\n#role 3 s1\n#role 4 s2\n#role 5 s3\n"
    ),
    "c6.json": '{"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}',
    "twins.txt": "2 0\n",
    "loop.txt": "2 1\n1 1\n",
    "f.lsat": "p lsat 2 3\n1 0\n2 0\n1 2 0\n",
    "unsat.lsat": "p lsat 1 2\n1 0\n-1 0\n",
    "bad.lsat": "p lsat 1 1\n1 -1 0\n",
    "bare.json": '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}',
    "badclutter.json": '{"n": 3, "edges": [[0, 1.9]]}',
}

CASES = {
    "generate-text": ["generate", "--family", "thin-spider", "--params", "k=4"],
    "generate-chords-json": [
        "generate", "--family", "thin-sun", "--params", "k=5,chords=1-3+2-4", "--json"
    ],
    "generate-sizes-text": ["generate", "--family", "clique-star", "--params", "sizes=2+2+3"],
    "generate-named-json": ["generate", "--family", "named", "--params", "name=gem", "--json"],
    "generate-missing-param": ["generate", "--family", "fan"],
    "generate-bad-param-json": ["generate", "--family", "fan", "--params", "bogus=3", "--json"],
    "generate-unknown-flag": ["generate", "--family", "fan", "--wat"],
    "clutter-text": ["clutter", "spider.txt"],
    "clutter-json": ["clutter", "p4.txt", "--kind", "LTD", "--json"],
    "gamma-text": ["gamma", "c6.json"],
    "gamma-json": ["gamma", "spider.txt", "--kind", "OTD", "--json"],
    "gamma-enumerate-text": ["gamma", "c6.json", "--enumerate"],
    "gamma-enumerate-cap-json": ["gamma", "c6.json", "--enumerate", "--cap", "2", "--json"],
    "gamma-inadmissible-text": ["gamma", "twins.txt"],
    "gamma-inadmissible-json": ["gamma", "twins.txt", "--json"],
    "gamma-format-json": ["gamma", "loop.txt", "--json"],
    "gamma-missing-file": ["gamma", "missing.txt"],
    "gamma-bad-kind-json": ["gamma", "p4.txt", "--kind", "XX", "--json"],
    "verify-valid-text": ["verify", "p4.txt", "--code", "0,1,3"],
    "verify-unseparated-json": ["verify", "p4.txt", "--code", "0,1", "--json"],
    "verify-undominated-text": ["verify", "spider.txt", "--kind", "OTD", "--code", "0"],
    "relations-text": ["relations", "spider.txt"],
    "relations-json": ["relations", "p4.txt", "--json"],
    "reduce-sat-text": ["reduce-sat", "f.lsat"],
    "reduce-sat-json": ["reduce-sat", "unsat.lsat", "--json"],
    "reduce-sat-format": ["reduce-sat", "bad.lsat"],
    "sat-roundtrip-text": ["sat-roundtrip", "f.lsat"],
    "sat-roundtrip-unsat-json": ["sat-roundtrip", "unsat.lsat", "--json"],
    "tau-text": ["tau", "bare.json"],
    "tau-enumerate-json": ["tau", "bare.json", "--enumerate", "--cap", "1", "--json"],
    "tau-enumerate-text": ["tau", "bare.json", "--enumerate"],
    "tau-malformed-json": ["tau", "badclutter.json", "--json"],
    "polyhedron-family-text": ["polyhedron", "--family", "thick-spider", "--k", "4"],
    "polyhedron-qrose-json": ["polyhedron", "--family", "qrose", "--n", "4", "--q", "2", "--json"],
    "polyhedron-graph-text": ["polyhedron", "--family", "generic", "--graph", "p4.txt"],
    "polyhedron-sizes-json": [
        "polyhedron", "--family", "generic", "--generic-family", "union-of-cliques",
        "--sizes", "2+3", "--check", "validity", "--json",
    ],
    "polyhedron-half-graph-tightness": [
        "polyhedron", "--family", "half-graph", "--k", "3", "--check", "tightness"
    ],
    "polyhedron-qrose-usage": ["polyhedron", "--family", "qrose"],
    "polyhedron-generic-usage-json": ["polyhedron", "--family", "generic", "--json"],
    "paper-report-p4-json": ["paper-report", "p4", "--json"],
    "paper-report-table1-json": ["paper-report", "table1", "--json"],
    "paper-report-families-json": ["paper-report", "families", "--max-k", "8", "--json"],
    "paper-report-qrose-json": ["paper-report", "qrose", "--max-k", "5", "--json"],
    "paper-report-sat-json": ["paper-report", "sat", "--max-k", "2", "--json"],
    "paper-report-unknown-json": ["paper-report", "nope", "--json"],
}


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text(encoding="utf-8"))


def test_recording_covers_every_case(recording):
    assert sorted(recording) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_recording(name, recording, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(CASES[name]) == recording[name]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        os.chdir(tmp)
        try:
            results = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    RECORDING.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
