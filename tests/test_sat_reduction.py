import gc
import hashlib
import random
import subprocess
import sys
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest

from odcodes.codes import gamma, gamma_all_optima, verify
from odcodes.graphs import CodeKind, girth, is_bipartite, max_degree
from odcodes.sat_reduction import (
    LsatFormatError,
    LsatInstance,
    _canonical,
    _lanes,
    _transform_tables,
    assignment_to_code,
    auxiliary_graph,
    brute_force_sat,
    build_gadget,
    clause_universe,
    code_to_assignment,
    enumerate_slsat,
    expected_od_size,
    expected_otd_size,
    format_lsat,
    parse_lsat,
    saturate,
)
from oracles import (
    reference_canonical,
    reference_enumerate_slsat,
    reference_saturate,
    reference_transform_tables,
)

UNSAT_2VAR = LsatInstance(2, (frozenset({1}), frozenset({-1, 2}), frozenset({-1, -2})))


class TestParse:
    def test_basic(self):
        inst = parse_lsat("p lsat 2 1\n1 -2 0\n")
        assert inst.n_vars == 2 and inst.clauses == (frozenset({1, -2}),)

    def test_comments_and_multiline_clause(self):
        inst = parse_lsat("c hi\np lsat 3 2\n1 2\n3 0\nc mid\n-1 0\n")
        assert inst.n_clauses == 2 and frozenset({1, 2, 3}) in inst.clauses

    def test_roundtrip(self):
        inst = LsatInstance(3, (frozenset({1, -2}), frozenset({2, 3}), frozenset({-3})))
        assert parse_lsat(format_lsat(inst)) == inst

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("p lsat 1 1\n1 -1 0\n", "both literals"),
            ("p lsat 2 2\n1 2 0\n1 2 0\n", "duplicate clause"),
            ("p lsat 3 2\n1 2 0\n1 2 3 0\n", "share more than one"),
            ("p lsat 2 3\n1 0\n1 2 0\n1 -2 0\n", "appears in 3 clauses"),
            ("p lsat 1 1\n2 0\n", "out of range"),
            ("p lsat 2 1\n1 2 -1 4 0\n", "more than 3 literals"),
            ("p lsat 2 1\n0\n", "empty clause"),
            ("p lsat 2 2\n1 0\n", "announces 2 clauses"),
            ("p lsat 2 1\n1\n", "not terminated"),
            ("1 0\n", "header"),
            ("p cnf 2 1\n1 0\n", "header"),
            ("p lsat +1_2 1\n1_0 0\n", "^line 1: non-integer header counts$"),
            ("p lsat 12 1\n1_0 0\n", "^line 2: non-integer token$"),
            ("p lsat 2 1\n+1 0\n", "^line 2: non-integer token$"),
            ("p lsat 2 1\n1 --2 0\n", "^line 2: non-integer token$"),
            ("p lsat 2 2\n1 1 2 0\n-1 0\n", r"^clause \(1 1 2\) repeats literal 1$"),
            ("p lsat 3 1\n-2 3\n-2 0\n", r"^clause \(-2 3 -2\) repeats literal -2$"),
        ],
    )
    def test_rejections_named(self, text, needle):
        with pytest.raises(LsatFormatError, match=needle):
            parse_lsat(text)


class TestSaturate:
    def test_single_positive_literal(self):
        inst = LsatInstance(1, (frozenset({1}),))
        out = saturate(inst)
        assert out.n_vars == 2
        assert set(out.clauses) == {frozenset({1}), frozenset({1, 2}), frozenset({2})}
        assert out.saturated

    def test_fixpoint(self):
        inst = LsatInstance(2, (frozenset({1}), frozenset({1, 2}), frozenset({2})))
        assert inst.saturated
        assert saturate(inst) == inst

    def test_size_bounds(self):
        inst = LsatInstance(3, (frozenset({1, -2, 3}),))
        out = saturate(inst)
        assert out.n_vars <= 9 and out.n_clauses <= 1 + 12

    def test_one_pass_matches_recounting_loop(self):
        rng = random.Random(11)
        checked = 0
        while checked < 2000:
            n = rng.randint(1, 5)
            universe = clause_universe(n)
            combo = rng.sample(universe, rng.randint(1, min(7, len(universe))))
            try:
                inst = LsatInstance(n, tuple(combo))
            except LsatFormatError:
                continue
            checked += 1
            assert saturate(inst) == LsatInstance(*reference_saturate(n, inst.clauses)), combo

    def test_preserves_satisfiability_exhaustive(self):
        # every linear instance over 3 variables with up to 4 clauses
        universe = clause_universe(3)
        checked = 0
        for m in range(1, 5):
            for combo in combinations(universe, m):
                try:
                    inst = LsatInstance(3, combo)
                except LsatFormatError:
                    continue
                checked += 1
                before = brute_force_sat(inst) is not None
                after = brute_force_sat(saturate(inst)) is not None
                assert before == after, combo
        assert checked > 1000


class TestBruteForceSat:
    def test_single_literal(self):
        inst = LsatInstance(1, (frozenset({1}),))
        assert brute_force_sat(inst) == {1: True}

    def test_no_clauses(self):
        inst = LsatInstance(2, ())
        assert brute_force_sat(inst) == {1: False, 2: False}

    def test_unsat_instance(self):
        assert brute_force_sat(UNSAT_2VAR) is None

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError, match="misses variables"):
            UNSAT_2VAR.evaluate({1: True})

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_sat(LsatInstance(30, ()))


def gadget_of(*clauses, n_vars):
    return build_gadget(saturate(LsatInstance(n_vars, tuple(frozenset(c) for c in clauses))))


class TestGadget:
    def test_needs_saturated(self):
        with pytest.raises(ValueError, match="saturated"):
            build_gadget(LsatInstance(1, (frozenset({1}),)))

    def test_unused_variable_rejected(self):
        inst = saturate(LsatInstance(1, (frozenset({1}),)))
        padded = LsatInstance(inst.n_vars + 1, inst.clauses)
        with pytest.raises(ValueError, match="occurs in no clause"):
            build_gadget(padded)

    def test_w_vertices_follow_occurrence(self):
        gg = gadget_of({1}, n_vars=1)
        role = {label: v for v, label in gg.graph.labels.items()}
        # saturation leaves literal 1 and helper 2 positive only
        assert "w1:x1" in role and "w2:x1" not in role
        assert "w1:x2" in role and "w2:x2" not in role
        v1 = role["v1:x1"]
        assert gg.graph.degree(v1) == 2

    def test_structure(self):
        gg = gadget_of({1, -2, 3}, {2, 3}, n_vars=3)
        g = gg.graph
        ok, _ = is_bipartite(g)
        assert ok and max_degree(g) <= 4 and girth(g) >= 6

    def test_partition_classes_are_stable_sets(self):
        gg = gadget_of({1, -2}, {-1, 2}, n_vars=2)
        g = gg.graph
        # a role label is "<part><1-3>:<variable or clause>"
        side1 = {v for v, label in g.labels.items() if label[:2] in ("u1", "u3", "v1", "v3")}
        side2 = {v for v, label in g.labels.items() if label[:2] in ("u2", "v2", "w1", "w2")}
        assert side1 | side2 == set(range(g.n))
        for side in (side1, side2):
            assert not any(g.has_edge(a, b) for a in side for b in side if a < b)

    def test_vertex_count(self):
        inst = saturate(LsatInstance(2, (frozenset({1, -2}),)))
        gg = build_gadget(inst)
        occurring = len(inst.literal_counts())
        assert gg.graph.n == 3 * inst.n_vars + 3 * inst.n_clauses + occurring


class TestAssignmentCode:
    def roundtrip(self, inst):
        gg = build_gadget(inst)
        assignment = brute_force_sat(inst)
        assert assignment is not None
        for total in (False, True):
            code = assignment_to_code(gg, assignment, total=total)
            expected = expected_otd_size(gg) if total else expected_od_size(gg)
            assert len(code) == expected
            kind = CodeKind.OTD if total else CodeKind.OD
            assert verify(gg.graph, code, kind).valid
        back = code_to_assignment(gg, assignment_to_code(gg, assignment))
        assert inst.evaluate(back)

    def test_small_instances(self):
        self.roundtrip(saturate(LsatInstance(1, (frozenset({1}),))))
        self.roundtrip(saturate(LsatInstance(2, (frozenset({1, -2}), frozenset({2})))))
        self.roundtrip(
            LsatInstance(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        )

    def test_unsatisfying_assignment_rejected(self):
        inst = LsatInstance(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        gg = build_gadget(inst)
        with pytest.raises(ValueError, match="does not satisfy"):
            assignment_to_code(gg, {1: False, 2: True})

    def test_missing_w_pair_rejected(self):
        inst = LsatInstance(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        gg = build_gadget(inst)
        with pytest.raises(ValueError, match="x1"):
            code_to_assignment(gg, set())

    def test_size_check_holds_under_python_O(self):
        # -O strips bare asserts; the witness-size check is an explicit raise
        child = SIZE_CHECK_CHILD.format(src=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", child], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "optimize 1",
            "raised: witness code has 11 vertices, expected 12",
        ]


SIZE_CHECK_CHILD = """
import sys
sys.path.insert(0, {src!r})
from odcodes import sat_reduction as sr
print("optimize", sys.flags.optimize)
sr.expected_od_size = lambda gg: 3 * gg.instance.n_vars + 2 * gg.instance.n_clauses
clauses = (frozenset({{1}}), frozenset({{2}}), frozenset({{1, 2}}))
gg = sr.build_gadget(sr.LsatInstance(2, clauses))
try:
    sr.assignment_to_code(gg, {{1: True, 2: True}})
except AssertionError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


class TestAuxiliaryGraph:
    def test_structure(self):
        inst = saturate(LsatInstance(3, (frozenset({1, -2, 3}),)))
        aux = auxiliary_graph(inst)
        ok, _ = is_bipartite(aux)
        assert ok and girth(aux) >= 6
        for v, lab in aux.labels.items():
            if lab.startswith("c"):
                assert aux.degree(v) <= 3
            else:
                assert aux.degree(v) == 2

    def test_needs_saturated(self):
        with pytest.raises(ValueError):
            auxiliary_graph(LsatInstance(1, (frozenset({1}),)))


class TestEnumerator:
    def test_small_counts(self):
        # n=2 count hand-checked: singles+pair, the padded single, the four
        # singles with two pairs, all four pairs, and the five-clause mix
        assert sum(1 for _ in enumerate_slsat(1, 6)) == 0
        assert sum(1 for _ in enumerate_slsat(2, 6)) == 5

    def test_yielded_instances_are_valid(self):
        seen = set()
        for inst in enumerate_slsat(3, 6):
            assert inst.saturated
            counts = inst.literal_counts()
            assert {abs(l) for l in counts} == set(range(1, inst.n_vars + 1))
            assert inst.n_clauses <= 6
            assert inst not in seen
            seen.add(inst)
        assert len(seen) == 5 + 43

    @pytest.mark.parametrize(
        "max_vars,max_clauses", [(n, m) for n in range(1, 4) for m in range(9)] + [(4, 4)]
    )
    def test_same_instances_in_the_same_order_as_reference(self, max_vars, max_clauses):
        # criterion 6 (221 instances) and bench/references.json pin (4, 5)
        # and (4, 6); these pin the order of every smaller sweep
        expected = list(reference_enumerate_slsat(max_vars, max_clauses))
        assert list(enumerate_slsat(max_vars, max_clauses)) == expected

    @pytest.mark.parametrize(
        "max_vars,max_clauses,count,digest",
        [
            (4, 5, 49, "a0dcad7ef2833683604e111c45034a3aa5996781d40a17d427d0520ffd2f0b5c"),
            (4, 6, 221, "d845368bd7730a4c424d58ed8b724fd5d2096acdc0e89d6a84fd95504a1cbfec"),
            (5, 5, 69, "2906fba2447b637dd87ba9e97166e5b686f1d6a2761fa8b8a5d46c0949b172f1"),
        ],
    )
    def test_larger_sweeps_pinned_by_digest(self, max_vars, max_clauses, count, digest):
        # the SHA-256 of the sweeps as the leaf-tested enumerator wrote them;
        # reference_enumerate_slsat itself takes about 20 s at (4, 6)
        instances = list(enumerate_slsat(max_vars, max_clauses))
        text = "".join(format_lsat(inst) for inst in instances)
        assert len(instances) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_a_sweep_leaves_nothing_for_the_cyclic_collector(self):
        # the search refers to itself, so its symmetry lanes are freed only
        # if the sweep breaks that cycle
        gc.collect()
        gc.disable()
        try:
            assert len(list(enumerate_slsat(3, 4))) > 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_every_prefix_of_a_representative_is_canonical(self):
        # the early cut rests on this: a representative's lowest k clause
        # indices are themselves the representative of their class
        by_n = {}
        for inst in enumerate_slsat(4, 6):
            if inst.n_vars not in by_n:
                universe = clause_universe(inst.n_vars)
                position = {c: i for i, c in enumerate(universe)}
                by_n[inst.n_vars] = position, reference_transform_tables(inst.n_vars, universe)
            position, tables = by_n[inst.n_vars]
            idx = sorted(position[c] for c in inst.clauses)
            for k in range(1, len(idx) + 1):
                assert reference_canonical(idx[:k], tables), (format_lsat(inst), k)
        assert sorted(by_n) == [2, 3, 4]

    @pytest.mark.parametrize("max_vars", [7, 8, 100])
    def test_above_the_table_limit_is_refused_before_any_table(self, monkeypatch, max_vars):
        # at 7 variables the symmetry tables alone take gigabytes, so the
        # refusal comes first; the table builder is patched to fail if called
        from odcodes import sat_reduction

        def must_not_build(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(sat_reduction, "_transform_tables", must_not_build)
        with pytest.raises(ValueError, match=f"^max_vars is at most 6, got {max_vars}$"):
            next(enumerate_slsat(max_vars, 3))
        with pytest.raises(AssertionError, match="a table was built"):
            next(enumerate_slsat(6, 3))

    def test_counting_lower_bound_on_optimal_codes(self):
        # every optimal code keeps at least 2 vertices per gadget path, one
        # less in total without the total-domination requirement
        checked = 0
        for inst in enumerate_slsat(2, 6):
            if brute_force_sat(inst) is None:
                continue
            gg = build_gadget(inst)
            # the vertices of the v- and u-paths, by their variable or clause
            labels = gg.graph.labels
            path_of = {v: label.split(":")[1] for v, label in labels.items() if label[0] in "uv"}
            t_mask = set(path_of)
            paths = set(path_of.values())
            for kind, slack in ((CodeKind.OD, 1), (CodeKind.OTD, 0)):
                _, optima, _ = gamma_all_optima(gg.graph, kind, cap=500)
                for code in optima:
                    assert len(code & t_mask) >= 2 * len(paths) - slack
                checked += 1
        assert checked


class TestSymmetryTables:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_composed_tables_match_the_pairwise_loop(self, n):
        universe = clause_universe(n)
        tables = [tuple(t) for t in _transform_tables(n, universe)]
        assert len(tables) == factorial(n) * 2**n - 1
        assert len(set(tables)) == len(tables)
        assert tuple(range(len(universe))) not in tables
        assert set(tables) == {tuple(t) for t in reference_transform_tables(n, universe)}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_lane_check_agrees_with_sorting_each_image(self, n):
        # n = 1 has one table, the flip, which swaps the clauses (1) and (-1)
        universe = clause_universe(n)
        tables = reference_transform_tables(n, universe)
        cols, ones, guard = _lanes(tables, len(universe))
        if len(universe) <= 8:
            samples = [
                list(idx)
                for k in range(1, len(universe) + 1)
                for idx in combinations(range(len(universe)), k)
            ]
        else:
            rng = random.Random(n)
            samples = [
                sorted(rng.sample(range(len(universe)), rng.randint(1, 10))) for _ in range(400)
            ]
        verdicts = set()
        for idx in samples:
            img = mask = 0
            for i in idx:
                img |= cols[i]
                mask |= 1 << i
            verdict = _canonical(img, mask, ones, guard)
            assert verdict == reference_canonical(idx, tables), idx
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestEquivalenceSampled:
    """Spot checks of the full equivalence; the exhaustive run lives in the
    acceptance suite."""

    def test_sat_and_unsat_examples(self):
        sat_inst = LsatInstance(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        gg = build_gadget(sat_inst)
        assert gamma(gg.graph, CodeKind.OD)[0] == expected_od_size(gg)
        assert gamma(gg.graph, CodeKind.OTD)[0] == expected_otd_size(gg)

        unsat = saturate(UNSAT_2VAR)
        assert brute_force_sat(unsat) is None
        gg2 = build_gadget(unsat)
        assert gamma(gg2.graph, CodeKind.OD)[0] >= expected_od_size(gg2) + 1
        assert gamma(gg2.graph, CodeKind.OTD)[0] >= expected_otd_size(gg2) + 1

    def test_solver_code_decodes(self):
        inst = LsatInstance(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        gg = build_gadget(inst)
        value, witness = gamma(gg.graph, CodeKind.OD)
        assert value == expected_od_size(gg)
        assignment = code_to_assignment(gg, witness)
        assert inst.evaluate(assignment)
