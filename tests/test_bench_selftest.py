"""The benchmark's output checks still catch wrong outputs (bench/selftest.py)."""

import importlib.util
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


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_declared_spans_fire_and_read_their_results(monkeypatch):
    # bench/run.py fails a --trace 1 run whose declared spans never fire or
    # whose info readers raise; hold a solve and an enumeration to both here.
    # The graph has no narrow order, so both calls walk through min_cover
    tracer_module = load_tracer(monkeypatch)

    import odcodes

    g = odcodes.families.thick_spider(4)
    assert odcodes.codes._narrow_order(g) is None
    with tracer_module.Tracer().installed() as tracer:
        value, _ = odcodes.gamma(g, odcodes.CodeKind.OD)
        odcodes.gamma_all_optima(g, odcodes.CodeKind.OD)
    fired = {s[2] for s in tracer.spans}
    assert {
        "cover.min_cover",
        "cover.greedy_cover",
        "clutters.build_hypergraph",
        "clutters.reduce_hypergraph",
        "codes.verify",
    } <= fired
    readers = {f"{mod}.{func}": info for (mod, func), info in tracer_module.TRACED.items()}
    by_id = {s[0]: s for s in tracer.spans}
    for s in tracer.spans:
        assert (s[5] is not None) == (readers[s[2]] is not None), s[2]
        if s[2] == "cover.greedy_cover":
            # the greedy excess is read off the enclosing min_cover span
            assert by_id[s[1]][2] == "cover.min_cover"
    assert [s[5]["value"] for s in tracer.spans if s[2] == "cover.min_cover"] == [value, value]


def test_clutter_spans_count_the_edge_masks(monkeypatch):
    # the tracer reads len(r.edges) off both clutter layers; with the edges a
    # tuple of int masks, that count builds no object per edge
    tracer_module = load_tracer(monkeypatch)

    import odcodes

    g, kind = odcodes.families.cycle_graph(12), odcodes.CodeKind.OD
    h = odcodes.build_hypergraph(g, kind)
    c = odcodes.reduce_hypergraph(h)
    for edges in (h.edges, c.edges):
        assert type(edges) is tuple and all(type(m) is int for m in edges)
    with tracer_module.Tracer().installed() as tracer:
        odcodes.build_clutter(g, kind)
    info = {s[2]: s[5] for s in tracer.spans}
    assert info["clutters.build_hypergraph"] == {"edges": len(h.edges)}
    assert info["clutters.reduce_hypergraph"] == {"edges": len(c.edges)}
