import gc
import hashlib
import json
import random
from itertools import combinations

import pytest

from odcodes.clutters import Clutter, build_clutter, clutter_from_json, reduce_hypergraph
from odcodes.codes import DEFAULT_CAP
from odcodes.cover import (
    CoverResult,
    _frontier,
    _hold,
    _search,
    greedy_cover,
    min_cover,
    qrose_clutter,
    tau_q_rose,
)
from odcodes.families import random_od_admissible
from odcodes.graphs import CodeKind, bits, mask_of
from oracles import (
    _reference_greedy,
    all_covers,
    naive_min_cover,
    naive_spare_covers,
    reference_min_cover,
)

from test_clutters import CORPUS_SOURCES, reduction_corpus
from test_graphs import complete, cycle, path


def clutter_of(n, *edge_sets):
    edges = [(mask_of(e), (f"manual{i}",)) for i, e in enumerate(edge_sets)]
    edges.sort(key=lambda e: (e[0].bit_count(), tuple(bits(e[0]))))
    return Clutter(n, tuple(m for m, _ in edges), tuple(s for _, s in edges))


class TestGreedy:
    def test_p4_clutter(self):
        cover = greedy_cover(build_clutter(path(4), CodeKind.OD))
        assert len(cover) == 3 and {0, 3} <= cover

    def test_single_edge_lowest_index(self):
        assert greedy_cover(clutter_of(5, {3, 1})) == {1}

    def test_all_singletons(self):
        assert greedy_cover(clutter_of(4, {0}, {2}, {3})) == {0, 2, 3}

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            greedy_cover(clutter_of(2, set()))

    def test_empty_clutter(self):
        assert greedy_cover(Clutter(3, (), ())) == frozenset()

    @pytest.mark.parametrize("source", CORPUS_SOURCES)
    def test_same_cover_as_reference(self, source):
        for h in reduction_corpus(source):
            c = reduce_hypergraph(h)
            assert mask_of(greedy_cover(c)) == _reference_greedy(c.edges)


class TestHold:
    """The transposed incidence table: bit i of hold[v] is bit v of edge i."""

    @staticmethod
    def by_incidence(masks):
        hold = [0] * max(masks, default=0).bit_length()
        for i, m in enumerate(masks):
            for v in bits(m):
                hold[v] |= 1 << i
        return hold

    @pytest.mark.parametrize(
        "masks",
        [
            (0b011, 0b110, 0b011, 0b011),  # repeated edges
            (0b00011, 0b10000, 0b10100),  # vertex n - 1 = 4 in use
            (0b1000,),  # a single edge
            (1 << 69 | 1,),  # wider than a machine word
            (),  # no edges
        ],
    )
    def test_columns(self, masks):
        assert _hold(masks) == self.by_incidence(masks)

    def test_bare_json_corpus(self):
        for c in TestBareJsonClutters().corpus():
            assert _hold(c.edges) == self.by_incidence(c.edges)


class TestMinCover:
    def test_k5(self):
        assert min_cover(build_clutter(complete(5), CodeKind.OD)).value == 4

    def test_thick_spider4(self):
        from odcodes.families import thick_spider

        assert min_cover(build_clutter(thick_spider(4), CodeKind.OD)).value == 5

    def test_empty(self):
        res = min_cover(clutter_of(3), cap=DEFAULT_CAP)
        assert res == CoverResult(0, frozenset(), 0, (frozenset(),))

    @pytest.mark.parametrize("cap", [None, DEFAULT_CAP])
    def test_empty_edge_rejected(self, cap):
        with pytest.raises(ValueError, match="^clutter has an empty edge$"):
            min_cover(clutter_of(2, set(), {0, 1}), cap=cap)

    def test_witness_is_cover_of_claimed_size(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(2, 10)
            sets = [
                set(rng.sample(range(n), rng.randint(1, min(4, n))))
                for _ in range(rng.randint(1, 12))
            ]
            c = clutter_of(n, *sets)
            res = min_cover(c)
            assert len(res.witness) == res.value
            assert all(set(e) & res.witness for e in sets)
            assert res.value == naive_min_cover(n, sets)[0]
            assert res.value <= len(greedy_cover(c))

    def test_matches_exhaustive_on_code_clutters(self):
        from test_graphs import random_graph
        from odcodes.graphs import is_admissible

        rng = random.Random(71)
        for _ in range(15):
            g = random_graph(rng.randint(2, 9), 0.4, rng)
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                c = build_clutter(g, kind)
                edges = [tuple(bits(m)) for m in c.edges]
                assert min_cover(c).value == naive_min_cover(c.n, edges)[0]

    def test_deterministic(self):
        c = build_clutter(complete(6), CodeKind.OD)
        a = min_cover(c, cap=DEFAULT_CAP)
        b = min_cover(c, cap=DEFAULT_CAP)
        assert a == b


class TestEnumeration:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clique_optima_are_all_n_minus_1_subsets(self, n):
        res = min_cover(build_clutter(complete(n), CodeKind.OD), cap=DEFAULT_CAP)
        assert len(res.all_optima) == n
        full = frozenset(range(n))
        assert set(res.all_optima) == {full - {v} for v in full}

    def test_optima_distinct_and_optimal(self):
        rng = random.Random(73)
        for _ in range(25):
            n = rng.randint(2, 8)
            sets = [
                set(rng.sample(range(n), rng.randint(1, min(3, n))))
                for _ in range(rng.randint(1, 8))
            ]
            res = min_cover(clutter_of(n, *sets), cap=DEFAULT_CAP)
            assert len(set(res.all_optima)) == len(res.all_optima)
            for opt in res.all_optima:
                assert len(opt) == res.value
                assert all(set(e) & opt for e in sets)
            # exhaustive count of optimal covers must agree
            count = sum(
                1
                for x in range(1 << n)
                if x.bit_count() == res.value
                and all(x & mask_of(e) for e in sets)
            )
            assert count == len(res.all_optima)

    def test_cap_truncates(self):
        c = build_clutter(complete(6), CodeKind.OD)
        res = min_cover(c, cap=3)
        assert res.truncated and len(res.all_optima) == 3
        assert min_cover(c, 3) == res  # the cap is the second positional argument

    def test_listing_keeps_the_value_walks_witness(self):
        # the full listing's value and witness are the value walk's, so a
        # reference for both can come from the one listing walk
        rng = random.Random(131)
        for _ in range(300):
            n = rng.randint(1, 14)
            sets = [
                set(rng.sample(range(n), rng.randint(1, min(5, n))))
                for _ in range(rng.randint(0, 24))
            ]
            c = clutter_of(n, *sets)
            value, listed = min_cover(c), min_cover(c, cap=DEFAULT_CAP)
            assert (listed.value, listed.witness) == (value.value, value.witness)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        c = clutter_of(3, {0, 1}, {1, 2})
        with pytest.raises(ValueError, match="cap must be at least 1"):
            min_cover(c, cap=cap)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            min_cover(Clutter(3, (), ()), cap=cap)
        assert min_cover(c).value == 1  # the value walk reads no cap


class TestEnumerationProperties:
    """Random clutters: the enumerated optima are exactly the smallest covers."""

    def test_optima_are_the_smallest_covers(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 10))
            masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=16))
            sets = [set(bits(m)) for m in masks]
            res = min_cover(clutter_of(n, *sets), cap=DEFAULT_CAP)
            smallest = [x for x in all_covers(n, sets) if x.bit_count() == res.value]
            assert not res.truncated
            assert [mask_of(opt) for opt in res.all_optima] == smallest

        check()


def against_reference(c, **kwargs):
    """Require the reference's value, witness, optima and truncation and at
    most its nodes; return the result and the reference's node count."""
    res = min_cover(c, **kwargs)
    value, witness, nodes, optima, truncated = reference_min_cover(c, **kwargs)
    assert (res.value, res.witness, res.all_optima, res.truncated) == (
        value, witness, optima, truncated
    )
    assert res.nodes_explored <= nodes
    return res, nodes


CODE_CLUTTERS = {
    "cycle32-OD": (lambda: cycle(32), CodeKind.OD),
    "path36-OTD": (lambda: path(36), CodeKind.OTD),
    "random26-LD": (lambda: random_od_admissible(26, 0.3, random.Random(5)), CodeKind.LD),
}


def code_clutter(case):
    graph, kind = CODE_CLUTTERS[case]
    return build_clutter(graph(), kind)


class TestSameResultsAsReference:
    """The search returns what the list-based reference returns and visits at
    most its nodes: the budget tests prune only subtrees that hold no leaf."""

    def test_random_clutters(self):
        # The second batch has edges large enough to shrink into duplicates
        # and size classes above 5.
        rng = random.Random(89)
        for count, top_n, top_edges, top_size in ((200, 12, 16, 5), (120, 16, 40, 10)):
            for _ in range(count):
                n = rng.randint(1, top_n)
                sets = [
                    set(rng.sample(range(n), rng.randint(1, min(top_size, n))))
                    for _ in range(rng.randint(0, top_edges))
                ]
                c = clutter_of(n, *sets)
                against_reference(c)
                against_reference(c, cap=rng.choice([1, 2, 5, 10_000]))

    @pytest.mark.parametrize("case", list(CODE_CLUTTERS))
    def test_code_clutters(self, case):
        against_reference(code_clutter(case))

    @pytest.mark.parametrize("case", ["cycle32-OD", "random26-LD"])
    def test_budget_tests_save_nodes(self, case):
        res, reference_nodes = against_reference(code_clutter(case))
        assert res.nodes_explored < reference_nodes

    def test_budget_one_root_is_settled_in_one_node(self):
        # One edge and a greedy cover of one vertex: each pass ends at the
        # root, the enumeration handing on all three vertices of the edge.
        res, reference_nodes = against_reference(clutter_of(3, {0, 1, 2}), cap=DEFAULT_CAP)
        assert (res.nodes_explored, reference_nodes) == (2, 6)

    def test_budget_two_root_without_a_finishing_pair_is_pruned(self):
        # K4's edges: greedy takes three vertices, no two vertices cover and
        # no three edges are disjoint, so only the budget-two test prunes.
        c = clutter_of(4, *map(set, combinations(range(4), 2)))
        res, reference_nodes = against_reference(c)
        assert (res.value, res.nodes_explored, reference_nodes) == (3, 1, 5)

    def test_truncated_enumeration(self):
        c = build_clutter(complete(6), CodeKind.OD)
        res, _ = against_reference(c, cap=3)
        assert res.truncated

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_cap_filled_by_budget_one_leaves(self, cap):
        # K6's OD clutter is every pair, so each optimum's last vertex comes
        # from a budget-one node, and those leaves are handed on lowest first.
        c = build_clutter(complete(6), CodeKind.OD)
        res, _ = against_reference(c, cap=cap)
        full = frozenset(range(6))
        assert res.truncated
        assert res.all_optima == tuple(full - {v} for v in range(5, 5 - cap, -1))

    def test_truncation_cleared_by_a_smaller_cover(self):
        # In walk order, the first cover that beats the greedy one has five
        # vertices and a second of five follows, past cap = 1, so the list is
        # truncated; a cover of four comes later and starts a list of its own.
        c = clutter_of(
            15, {9, 13}, {8, 14, 6}, {0, 11, 12}, {10, 4, 5, 7}, {9, 10, 4, 7}, {0, 9, 3, 6},
            {3, 14}, {2, 3, 13}, {8, 1, 11, 13}, {0, 9, 2}, {1, 4},
        )
        res, _ = against_reference(c, cap=1)
        assert (res.value, len(res.all_optima), res.truncated) == (4, 1, False)


class TestOneEnumerationWalk:
    """Enumerate-all is one walk unless the greedy cover is optimal."""

    def test_greedy_not_optimal_saves_the_second_walk(self):
        # cycle 32 OD: greedy takes 23 vertices, the optimum is 21; the two
        # walks of the value-then-enumerate search visited 18,402 nodes.
        res = min_cover(build_clutter(cycle(32), CodeKind.OD), cap=100_000)
        assert (res.value, len(res.all_optima)) == (21, 352)
        assert res.nodes_explored < 18_402

    def test_truncation_drops_back_to_strict_improvement(self):
        # With cap = 1 the second optimum truncates the list, and from there
        # the walk prunes as the value pass does and visits the same nodes.
        c = build_clutter(cycle(32), CodeKind.OD)
        res = min_cover(c, cap=1)
        assert res.truncated
        assert res.nodes_explored == min_cover(c).nodes_explored == 4_631

    def test_greedy_optimal_keeps_the_pinned_walk(self):
        # cycle 32 LD: greedy takes 13 vertices, which is optimal, so the
        # optima come from a second walk pinned at 13.
        res = min_cover(build_clutter(cycle(32), CodeKind.LD), cap=100_000)
        assert (res.value, len(res.all_optima), res.nodes_explored) == (13, 32, 7_002)

    @pytest.mark.parametrize(
        "cap,optima,truncated,nodes", [(1, 1, True, 494), (5, 5, True, 752), (32, 32, False, 7_002)]
    )
    def test_pinned_walk_stops_at_the_optimum_past_cap(self, cap, optima, truncated, nodes):
        # In the walk pinned at the proven optimum, the (cap+1)-th optimum
        # ends the walk; dropping the limit there would visit more nodes.
        res = min_cover(build_clutter(cycle(32), CodeKind.LD), cap=cap)
        assert (res.value, len(res.all_optima), res.truncated) == (13, optima, truncated)
        assert res.nodes_explored == nodes


class TestSearchEntry:
    """min_cover is _search with its defaults; the private entry also takes
    the optimum as proven, and then finds the first cover of that size or
    lists min_cover's optima with no proof walk."""

    @pytest.mark.parametrize("case", list(CODE_CLUTTERS))
    def test_first_cover_at_the_optimum_is_the_witness(self, case):
        c = code_clutter(case)
        full = min_cover(c)
        found = _search(c, limit=full.value)
        assert (found.value, found.witness) == (full.value, full.witness)
        assert found.nodes_explored < full.nodes_explored

    def test_first_takes_the_greedy_cover_within_the_limit(self):
        # cycle 32 LD: the greedy cover is optimal, so no walk runs
        c = build_clutter(cycle(32), CodeKind.LD)
        found = _search(c, limit=13)
        assert (found.value, found.witness, found.nodes_explored) == (13, greedy_cover(c), 0)

    def test_pinned_listing_is_min_covers(self):
        rng = random.Random(103)
        seen = {"truncated": 0, "greedy optimal": 0, "greedy not optimal": 0, "graphs": 0}
        for case in range(400):
            n = rng.randint(2, 12)
            if case % 4:
                sets = [
                    set(rng.sample(range(n), rng.randint(1, min(5, n))))
                    for _ in range(rng.randint(1, 24))
                ]
                c = clutter_of(n, *sets)
            else:
                g = random_od_admissible(n, rng.choice([0.3, 0.5]), rng)
                c = build_clutter(g, rng.choice([CodeKind.OD, CodeKind.OTD, CodeKind.LD]))
                seen["graphs"] += 1
            value = min_cover(c).value
            greedy_optimal = len(greedy_cover(c)) == value
            seen["greedy optimal" if greedy_optimal else "greedy not optimal"] += 1
            for cap in (1, 2, 5, 100):
                want = min_cover(c, cap=cap)
                got = _search(c, cap, limit=value)
                assert (got.value, got.witness, got.all_optima, got.truncated) == (
                    want.value, want.witness, want.all_optima, want.truncated
                ), (case, cap)
                seen["truncated"] += got.truncated
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("cap,nodes", [(1, 21), (5, 35), (100_000, 13_771)])
    def test_pinned_listing_proves_nothing_again(self, cap, nodes):
        # cycle 32 OD: min_cover's listing visits 4,631, 4,643 and 13,773
        # nodes; pinned at 21, the walk ends at the (cap+1)-th optimum.
        c = code_clutter("cycle32-OD")
        want = min_cover(c, cap=cap)
        got = _search(c, cap, limit=21)
        assert (got.value, got.all_optima, got.truncated) == (21, want.all_optima, want.truncated)
        assert got.nodes_explored == nodes

    @pytest.mark.parametrize("cap", [None, DEFAULT_CAP])
    def test_a_wrong_optimum_is_caught(self, cap):
        c = code_clutter("path36-OTD")
        value = min_cover(c).value
        with pytest.raises(AssertionError, match="the optimum given is"):
            _search(c, cap, limit=value - 1)

    def test_a_solve_leaves_nothing_for_the_cyclic_collector(self):
        # the walk refers to itself, so its tables are freed only if the
        # solve breaks that cycle; cycle 32 LD's greedy cover is optimal, so
        # its listing walks twice
        od, ld = build_clutter(cycle(30), CodeKind.OD), build_clutter(cycle(32), CodeKind.LD)
        value = min_cover(od).value
        solves = {
            "value": lambda: min_cover(od),
            "capped listing": lambda: min_cover(od, cap=3),
            "full listing": lambda: min_cover(od, cap=DEFAULT_CAP),
            "listing, greedy optimal": lambda: min_cover(ld, cap=DEFAULT_CAP),
            "pinned value": lambda: _search(od, limit=value),
            "pinned listing": lambda: _search(od, 3, limit=value),
        }
        gc.collect()
        gc.disable()
        try:
            for mode, solve in solves.items():
                solve()
                assert gc.collect() == 0, mode
        finally:
            gc.enable()


class TestFrontier:
    """The DP over a vertex order gives the covering number in any order;
    with spare edges a cover may miss one of them, and with cap it lists
    every optimum, or past cap only gives the value."""

    def test_random_clutters(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 10)
            sets = [
                set(rng.sample(range(n), rng.randint(1, min(4, n))))
                for _ in range(rng.randint(0, 12))
            ]
            tau = naive_min_cover(n, sets)[0]
            order = rng.sample(range(n), n)
            assert _frontier([mask_of(e) for e in sets], [], order) == (tau, None)

    def test_spare_edges_against_the_scan(self):
        rng = random.Random(67)
        seen = {"no spare": 0, "spare is hard": 0, "several optima": 0}
        for _ in range(400):
            n = rng.randint(1, 9)

            def edge():
                return set(rng.sample(range(n), rng.randint(1, min(4, n))))

            hard = [edge() for _ in range(rng.randint(0, 8))]
            spare = [edge() for _ in range(rng.choice([0, 0, 1, 2, 4, 6]))]
            if hard and rng.random() < 0.3:
                spare.append(set(rng.choice(hard)))
                seen["spare is hard"] += 1
            seen["no spare"] += not spare
            want = naive_spare_covers(n, hard, spare)
            order = rng.sample(range(n), n)
            args = [mask_of(e) for e in hard], [mask_of(e) for e in spare], order
            assert _frontier(*args) == (want[0], None)
            assert _frontier(*args, cap=10_000) == want
            if len(want[1]) > 1:
                seen["several optima"] += 1
                assert _frontier(*args, cap=len(want[1]) - 1) == (want[0], None)
                assert _frontier(*args, cap=len(want[1])) == want
        assert min(seen.values()) >= 20, seen


class TestBareJsonClutters:
    """Bare clutter JSON, the form `tau` reads, may repeat an edge or nest one
    inside another.  The greedy counts every copy, as the reference does, and
    the search returns what the reference returns."""

    def corpus(self):
        rng = random.Random(97)
        for _ in range(300):
            n = rng.randint(1, 10)
            edges = []
            for _ in range(rng.randint(1, 14)):
                if edges and rng.random() < 0.5:
                    # a copy of an earlier edge, or one that holds it
                    e = rng.choice(edges)
                    edges.append(sorted(set(e) | {rng.randrange(n)}) if rng.random() < 0.5 else e)
                else:
                    edges.append(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            yield clutter_from_json({"n": n, "edges": edges})

    def test_greedy_same_as_reference(self):
        repeated = 0
        for c in self.corpus():
            assert mask_of(greedy_cover(c)) == _reference_greedy(c.edges)
            repeated += len(set(c.edges)) < len(c.edges)
        assert repeated >= 100

    def test_min_cover_same_as_reference(self):
        for c in self.corpus():
            against_reference(c)
            against_reference(c, cap=DEFAULT_CAP)


# SHA-256 of the rows that test_results_beyond_the_reference_are_pinned
# builds, as the packed-list search before the edge-index walk returned them;
# the reference is too slow at these sizes to run in the suite.
BEYOND_REFERENCE_SHA256 = "d6123cfc0a96c98aa966a63965b2d8b4bae865c4d8e60737c63dc1a2ae6bc45c"


def test_results_beyond_the_reference_are_pinned():
    rows = []
    for family, make, sizes in (("cycle", cycle, (32, 36, 40)), ("path", path, (36, 40))):
        for n in sizes:
            for kind in (CodeKind.OD, CodeKind.OTD):
                res = min_cover(build_clutter(make(n), kind))
                rows.append([family, n, kind.name, res.value, sorted(res.witness)])
    for n in (24, 28, 30):
        for kind in (CodeKind.OD, CodeKind.LD):
            res = min_cover(build_clutter(cycle(n), kind), cap=100_000)
            optima = [sorted(s) for s in res.all_optima]
            rows.append(["cycle-all", n, kind.name, res.value, len(optima), optima])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == BEYOND_REFERENCE_SHA256


class TestMonotonicity:
    def test_adding_edge_never_decreases(self):
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(3, 8)
            sets = [set(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(5)]
            before = min_cover(clutter_of(n, *sets)).value
            extra = set(rng.sample(range(n), rng.randint(1, min(3, n))))
            after = min_cover(clutter_of(n, *sets, extra)).value
            assert after >= before

    def test_removing_superset_keeps_value(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(3, 8)
            sets = [set(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(5)]
            base = sets[rng.randrange(len(sets))]
            superset = base | {rng.randrange(n)}
            if superset == base or superset in sets:
                continue
            with_red = min_cover(clutter_of(n, *sets, superset)).value
            without = min_cover(clutter_of(n, *sets)).value
            assert with_red == without


class TestQRose:
    def test_formula_values(self):
        assert tau_q_rose(5, 2) == 4
        assert tau_q_rose(6, 5) == 2
        assert tau_q_rose(3, 2) == 2

    def test_parameter_validation(self):
        for n, q in [(2, 2), (3, 1), (4, 4), (4, 5)]:
            with pytest.raises(ValueError):
                tau_q_rose(n, q)
        with pytest.raises(ValueError):
            qrose_clutter(2, 2)

    def test_formula_matches_solver(self):
        for n in range(3, 9):
            for q in range(2, n):
                assert min_cover(qrose_clutter(n, q)).value == tau_q_rose(n, q)

    def test_tiny_rose_bruteforce(self):
        c = qrose_clutter(3, 2)
        assert naive_min_cover(3, [tuple(bits(m)) for m in c.edges])[0] == 2
