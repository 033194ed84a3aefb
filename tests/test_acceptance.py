"""Acceptance gate: one test per published-result criterion.

Each test recomputes its table through odcodes.reports, requires every row
to match exactly, stays inside its wall-clock budget, and prints one
CRITERION line (visible under pytest -s or in the captured output).
"""

import time

from odcodes import reports


def _run(number, title, budget_seconds, report_fn, **kwargs):
    t0 = time.perf_counter()
    rep = report_fn(**kwargs)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rep.ok else "FAIL"
    print(f"CRITERION {number} [{title}]: {status} ({len(rep.rows)} rows, {elapsed:.2f}s, budget {budget_seconds}s)")
    assert rep.ok, [f"{r.label}: expected {r.expected}, got {r.actual}" for r in rep.failures][:10]
    assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.1f}s >= {budget_seconds}s"
    return rep


def test_criterion_1_p4_micro_oracle():
    _run(1, "4-path micro oracle", 1, reports.report_p4_example)


def test_criterion_2_comparison_table():
    _run(2, "small-graph comparison table", 5, reports.report_table1)


def test_criterion_3_family_formulas():
    rep = _run(3, "family formulas, n <= 18", 60, reports.report_families, max_n=18)
    assert len(rep.rows) > 500


def test_criterion_4_clutter_shapes():
    _run(4, "clutter shapes", 5, reports.report_clutter_shapes)


def test_criterion_5_random_bounds_and_relations():
    _run(5, "bounds and relations on 200 random graphs", 120, reports.report_bounds_random, samples=200)


def test_criterion_6_sat_equivalence_exhaustive():
    rep = _run(6, "SAT equivalence, vars <= 4, clauses <= 6", 300, reports.report_sat_equivalence,
               max_vars=4, max_clauses=6)
    assert rep.rows[-1].label == "equivalence holds on all 221 instances (170 satisfiable)"


def test_criterion_6_sat_equivalence_five_variables():
    # the paper's hardness check widened by one variable
    rep = _run(6, "SAT equivalence, vars <= 5, clauses <= 5", 60, reports.report_sat_equivalence,
               max_vars=5, max_clauses=5)
    assert rep.rows[-1].label == "equivalence holds on all 69 instances (60 satisfiable)"


def test_criterion_7_qrose_covering():
    _run(7, "q-rose covering numbers, n <= 8", 10, reports.report_qrose, max_n=8)


def test_criterion_8_polyhedral_checks():
    _run(8, "polyhedral validity, tightness, hull", 60, reports.report_polyhedra)


def test_criterion_9_oracle_equivalence():
    rep = _run(9, "pipeline vs brute force on the corpus", 120, reports.report_oracle_equivalence)
    assert len(rep.rows) > 100
