import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from odcodes import cli, codes, cover
from odcodes.clutters import (
    InadmissibleGraphError,
    build_clutter,
    build_hypergraph,
    forced_vertices_direct,
)
from odcodes.codes import (
    DEFAULT_CAP,
    brute_force_gamma,
    check_cover_codes,
    check_relations,
    gamma,
    gamma_all_optima,
    verify,
)
from odcodes.cover import min_cover
from odcodes.families import (
    cycle_graph,
    double_star,
    fan,
    half_graph,
    matching,
    named_graph,
    path_graph,
    random_od_admissible,
    thick_spider,
    thin_spider,
)
from odcodes.graphs import CodeKind, Graph, bits, disjoint_union, graph_to_text, is_admissible
from oracles import naive_gamma, naive_is_code, naive_unseparated

from test_graphs import complete, gem, path, random_graph

P4 = path(4)
REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"


class TestVerify:
    def test_gem_od_code(self):
        rep = verify(gem(), {0, 1, 3}, CodeKind.OD)
        assert rep.valid

    def test_p4_od_code(self):
        assert verify(P4, {0, 1, 3}, CodeKind.OD).valid

    def test_report_is_truthy_exactly_when_valid(self):
        assert bool(verify(P4, {0, 1, 3}, CodeKind.OD)) is True
        assert bool(verify(P4, {0, 1}, CodeKind.OD)) is False

    def test_empty_code_everything_undominated(self):
        rep = verify(P4, set(), CodeKind.OD)
        assert not rep.valid and rep.undominated == (0, 1, 2, 3)

    def test_unseparated_pair_reported_with_trace(self):
        # with code {0, 1}, vertices 0 and 2 share the trace {1}, and the far
        # endpoint 3 is left undominated
        rep = verify(P4, {0, 1}, CodeKind.OD)
        assert not rep.valid
        assert rep.undominated == (3,)
        assert rep.unseparated == ((0, 2, frozenset({1})),)

    def test_works_on_inadmissible_graphs(self):
        g = Graph.from_edges(2, [])  # open twins
        rep = verify(g, {0, 1}, CodeKind.OD)
        assert not rep.valid and rep.unseparated

    def test_matches_naive_checker(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(1, 7)
            g = random_graph(n, 0.45, rng)
            code = {v for v in range(n) if rng.random() < 0.5}
            for kind in CodeKind:
                assert verify(g, code, kind).valid == naive_is_code(g, code, kind)

    def test_every_subset_matches_definitions_and_hypergraph(self):
        # every vertex set of small random graphs, isolated vertices and twins
        # included: verify agrees with the definition-level checker and, on
        # admissible graphs, with hitting every edge of the code hypergraph;
        # admissibility agrees with the existence of a code
        rng = random.Random(139)
        graphs = [Graph.from_edges(3, [(0, 1)]), Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])]
        for _ in range(40):
            graphs.append(random_graph(rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]), rng))
        isolated = twins = 0
        for g in graphs:
            for kind in CodeKind:
                adm = is_admissible(g, kind)
                isolated += bool(adm.isolated)
                twins += bool(adm.twin_pairs)
                assert adm.ok == (naive_gamma(g, kind) is not None)
                edges = list(build_hypergraph(g, kind).edges) if adm.ok else []
                for cmask in range(1 << g.n):
                    code = [v for v in range(g.n) if cmask >> v & 1]
                    valid = verify(g, code, kind).valid
                    assert valid == naive_is_code(g, code, kind)
                    if adm.ok:
                        assert valid == all(m & cmask for m in edges)
        assert isolated >= 10 and twins >= 10

    def test_batch_check_passes_exactly_the_codes(self):
        # check_cover_codes tests every code on masks built once; it must pass
        # each valid code, locating kinds' code vertices included, and raise
        # on each invalid one with that code's verify report
        rng = random.Random(211)
        graphs = [random_graph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng) for _ in range(15)]
        for g in graphs:
            for kind in CodeKind:
                subsets = [[v for v in range(g.n) if m >> v & 1] for m in range(1 << g.n)]
                valid = [c for c in subsets if naive_is_code(g, c, kind)]
                check_cover_codes(g, valid, kind)
                for code in subsets:
                    if not naive_is_code(g, code, kind):
                        report = verify(g, code, kind)
                        message = f"cover witness fails {kind.value} verification: {report}"
                        with pytest.raises(AssertionError) as raised:
                            check_cover_codes(g, [code], kind)
                        assert str(raised.value) == message

    def test_out_of_range_code_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="out of range"):
            verify(P4, {0, 9}, CodeKind.OD)

    def test_unseparated_order_across_classes(self):
        # verify lists the pairs class by class, each class in the order of
        # its lowest vertex; many codes here leave two or more classes
        rng = random.Random(907)
        several = 0
        for _ in range(400):
            g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.4, 0.6]), rng)
            kind = rng.choice(list(CodeKind))
            code = [v for v in range(g.n) if rng.random() < 0.4]
            expected = naive_unseparated(g, code, kind)
            assert list(verify(g, code, kind).unseparated) == expected
            several += len({t for _, _, t in expected}) >= 2
        assert several >= 100

    def test_violation_cap(self):
        g = Graph.from_edges(15, [])
        rep = verify(g, set(), CodeKind.OD)
        assert len(rep.unseparated) == 100
        rep = verify(Graph.from_edges(120, []), set(), CodeKind.OTD)
        assert rep.undominated == tuple(range(100))
        assert [(u, v) for u, v, _ in rep.unseparated] == [(0, v) for v in range(1, 101)]


class TestGamma:
    def test_table_examples(self):
        assert gamma(named_graph("gem"), CodeKind.OD)[0] == 3
        assert gamma(named_graph("gem"), CodeKind.ID)[0] == 4
        assert gamma(named_graph("bow"), CodeKind.OD)[0] == 5
        assert gamma(named_graph("bow"), CodeKind.ITD)[0] == 3
        assert gamma(named_graph("2p2"), CodeKind.OD)[0] == 3
        assert gamma(named_graph("2p2"), CodeKind.LTD)[0] == 4

    def test_witness_verifies(self):
        value, witness = gamma(P4, CodeKind.OD)
        assert value == 3 and verify(P4, witness, CodeKind.OD).valid

    def test_inadmissible_raises_named_reason(self):
        with pytest.raises(InadmissibleGraphError, match="open twins"):
            gamma(Graph.from_edges(2, []), CodeKind.OD)

    @pytest.mark.parametrize(
        "refuse",
        [
            lambda g: build_hypergraph(g, CodeKind.OD),
            lambda g: gamma(g, CodeKind.OD),
            # admissibility is checked before the cap
            lambda g: gamma_all_optima(g, CodeKind.OD, cap=0),
            lambda g: brute_force_gamma(g, CodeKind.OD),
            forced_vertices_direct,
            check_relations,
        ],
        ids=["hypergraph", "gamma", "all-optima-cap-0", "brute-force", "forced-direct", "relations"],
    )
    def test_every_entry_point_refuses_with_one_message(self, refuse):
        with pytest.raises(InadmissibleGraphError) as exc:
            refuse(Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert str(exc.value) == "graph is not OD-admissible: open twins: [(1, 2)]"

    def test_all_optima_valid(self):
        value, optima, truncated = gamma_all_optima(P4, CodeKind.OD)
        assert value == 3 and not truncated
        assert all(verify(P4, opt, CodeKind.OD).valid for opt in optima)


class TestGammaProperties:
    """Random graphs with n <= 9: gamma equals the definition-level scan for
    every kind, or both refuse the graph."""

    def test_gamma_matches_naive_gamma(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 9))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            g = Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
            for kind in CodeKind:
                expected = naive_gamma(g, kind)
                try:
                    value, witness = gamma(g, kind)
                except InadmissibleGraphError:
                    assert expected is None
                    continue
                assert expected is not None and value == expected[0]
                assert naive_is_code(g, witness, kind)

        check()


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def connected(g):
    seen = reach = 1
    while reach:
        reach = 0
        for v in bits(seen):
            reach |= g.adj[v]
        reach &= ~seen
        seen |= reach
    return seen == (1 << g.n) - 1


@pytest.fixture
def walks(monkeypatch):
    """The clutters codes hands to min_cover, which still solves them."""
    calls = []

    def spy(clutter, *args, **kwargs):
        calls.append(clutter)
        return min_cover(clutter, *args, **kwargs)

    monkeypatch.setattr(codes, "min_cover", spy)
    return calls


@pytest.fixture
def searches(monkeypatch):
    """The clutters codes hands to cover._search, which still solves them."""
    calls = []

    def spy(clutter, *args, **kwargs):
        calls.append(clutter)
        return cover._search(clutter, *args, **kwargs)

    monkeypatch.setattr(codes, "_search", spy)
    return calls


@pytest.fixture
def forced(monkeypatch):
    """The narrow route on any graph: every BFS order counts as narrow and
    the state cap is lifted, so the frontier DP gives the value and the walk
    pinned at it the witness; min_cover is gone, so a handback to it cannot
    pass."""
    monkeypatch.setattr(codes, "NARROW_WIDTH", math.inf)
    monkeypatch.setattr(cover, "STATE_CAP", 1 << 20)
    monkeypatch.setattr(codes, "min_cover", None)
    return codes._solve


def route_mix():
    """74 random graphs with n <= 20: 50 with isolated vertices allowed, then
    12 with one isolated vertex added and 12 joined to a second graph."""
    rng = random.Random(43)
    graphs = [
        random_od_admissible(
            rng.randint(3, 20), rng.choice([0.15, 0.3, 0.5]), rng, forbid_isolated=False
        )
        for _ in range(50)
    ]
    for _ in range(12):
        g = random_od_admissible(rng.randint(3, 12), rng.choice([0.3, 0.5]), rng)
        graphs.append(disjoint_union(g, Graph.from_edges(1, [])))
        graphs.append(disjoint_union(g, random_od_admissible(rng.randint(3, 8), 0.5, rng)))
    assert sum(sum(not m for m in g.adj) == 1 for g in graphs) >= 12
    assert sum(not connected(g) for g in graphs) >= 24
    return graphs


def ladder(k):
    """Two k-vertex paths joined by k rungs."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph.from_edges(2 * k, rails + [(i, k + i) for i in range(k)])


def caterpillar(n, most, rng):
    """A spine path whose vertices carry at most `most` leaves each; every
    vertex joins the latest spine vertex, as a leaf or as the next one."""
    edges, spine, leaves = [], 0, 0
    for v in range(1, n):
        edges.append((spine, v))
        if leaves < most and rng.random() < 0.5:
            leaves += 1
        else:
            spine, leaves = v, 0
    return Graph.from_edges(n, edges)


def banded(n, p, rng):
    """A random graph whose edges join vertices at most 3 apart."""
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 4)) if rng.random() < p]
    )


def narrow_corpus():
    """Ladders, caterpillars and banded random graphs with n 21-30 that have
    a narrow BFS order, by family."""
    rng = random.Random(47)
    graphs = {
        "ladder": [ladder(k) for k in range(11, 16)],
        "caterpillar": [caterpillar(rng.randint(21, 30), 1 + i % 2, rng) for i in range(10)],
        "banded": [banded(rng.randint(21, 30), rng.choice([0.5, 0.7]), rng) for _ in range(16)],
    }
    return {
        family: [g for g in members if codes._narrow_order(g) is not None]
        for family, members in graphs.items()
    }


class TestNarrowRoute:
    """gamma takes the frontier DP on narrow graphs of any size: the value
    comes from the DP, and the witness, the first cover of that size the
    pinned walk meets, stays min_cover's.  gamma_all_optima lists the optima
    by the DP, or past cap by the pinned walk, the same ones min_cover
    lists."""

    def test_dp_matches_brute_force(self, monkeypatch):
        monkeypatch.setattr(codes, "NARROW_WIDTH", math.inf)
        rng = random.Random(41)
        checked = {kind: 0 for kind in CodeKind}
        for _ in range(40):
            g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5, 0.7]), rng)
            order = codes._narrow_order(g)
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                edges, spare = codes._dp_edges(g, kind, build_clutter(g, kind))
                value = cover._frontier(edges, spare, order)[0]
                assert value == brute_force_gamma(g, kind)[0], (g, kind)
                checked[kind] += 1
        assert min(checked.values()) >= 5

    def test_forced_route_returns_min_covers_result(self, forced):
        for g in route_mix():
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                got, want = forced(g, kind), min_cover(build_clutter(g, kind))
                assert (got.value, got.witness) == (want.value, want.witness), (g, kind)

    def test_forced_listing_returns_min_covers_optima(self, forced):
        listed = 0
        for g in route_mix():
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                want = min_cover(build_clutter(g, kind), cap=DEFAULT_CAP)
                got = gamma_all_optima(g, kind)
                assert got == (want.value, want.all_optima, want.truncated), (g, kind)
                listed += len(got[1])
        assert listed > 1_000

    def test_walk_lists_the_dp_optima(self):
        # gamma_all_optima lists these by the DP, so here is where the walk's
        # listing is checked on narrow graphs
        for n in (24, 26):
            g = relabelled(cycle_graph(n), 1)
            order = codes._narrow_order(g)
            for kind in (CodeKind.OD, CodeKind.OTD, CodeKind.LD):
                clutter = build_clutter(g, kind)
                walk = min_cover(clutter, cap=DEFAULT_CAP)
                dp = cover._frontier(*codes._dp_edges(g, kind, clutter), order, cap=10_000)
                assert (walk.value, walk.all_optima, walk.truncated) == (
                    dp[0],
                    tuple(frozenset(bits(m)) for m in dp[1]),
                    False,
                )

    def test_listing_past_cap_is_the_walks(self, walks):
        g = relabelled(cycle_graph(28), 1)
        assert len(gamma_all_optima(g, CodeKind.OD)[1]) == 2_800
        assert not walks
        want = min_cover(build_clutter(g, CodeKind.OD), cap=100)
        got = gamma_all_optima(g, CodeKind.OD, cap=100)
        assert got == (want.value, want.all_optima, True) and len(got[1]) == 100
        assert len(walks) == 0

    @pytest.mark.parametrize("cap", [1, 2, 5, 100])
    def test_capped_listing_is_min_covers(self, cap, forced):
        # relabelled cycles 28 and 40 are narrow at any width, so forcing
        # leaves their route as it is
        def check(g, kind):
            want = min_cover(build_clutter(g, kind), cap=cap)
            got = gamma_all_optima(g, kind, cap)
            assert got == (want.value, want.all_optima, want.truncated), (g, kind)
            return got[2]

        truncated = 0
        for n in (28, 40):
            g = relabelled(cycle_graph(n), 1)
            for kind in (CodeKind.OD, CodeKind.OTD, CodeKind.LD):
                truncated += check(g, kind)
        for g in route_mix():
            for kind in CodeKind:
                if is_admissible(g, kind).ok:
                    truncated += check(g, kind)
        assert truncated >= 20

    def test_cycle_60_lists_capped_od_optima_by_the_pinned_walk(self, walks):
        value, optima, truncated = gamma_all_optima(relabelled(cycle_graph(60), 1), CodeKind.OD, 100)
        assert (value, len(optima), truncated) == (40, 100, True)
        assert not walks

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected_on_every_route(self, cap, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a DP or a walk ran")

        for name in ("_frontier", "_search", "min_cover"):
            monkeypatch.setattr(codes, name, ran)
        pool = json.loads(REFERENCES.read_text())["sparse-search"]["pool"]["sparse-r26a"]
        dense = Graph.from_edges(pool["n"], [tuple(e) for e in pool["edges"]])
        for g in (relabelled(cycle_graph(28), 1), dense, cycle_graph(12)):
            with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
                gamma_all_optima(g, CodeKind.OD, cap)

    def test_listing_past_the_state_cap_is_the_walks(self, monkeypatch, walks):
        g = relabelled(cycle_graph(26), 1)
        want = min_cover(build_clutter(g, CodeKind.OD), cap=DEFAULT_CAP)
        monkeypatch.setattr(cover, "STATE_CAP", 1)
        assert gamma_all_optima(g, CodeKind.OD) == (want.value, want.all_optima, want.truncated)
        assert len(walks) == 1

    def test_cycle_60_lists_every_od_optimum(self):
        value, optima, truncated = gamma_all_optima(cycle_graph(60), CodeKind.OD)
        assert (value, len(optima), truncated) == (40, 5_409, False)
        assert len(set(optima)) == 5_409 and all(len(code) == 40 for code in optima)
        assert verify(cycle_graph(60), optima[-1], CodeKind.OD).valid

    def test_narrow_orders(self):
        for g in (relabelled(cycle_graph(36), 1), relabelled(path_graph(40), 1)):
            order = codes._narrow_order(g)
            step = {v: i for i, v in enumerate(order)}
            assert sorted(order) == list(range(g.n))
            assert max(abs(step[u] - step[v]) for u, v in g.edges()) <= codes.NARROW_WIDTH
        pool = json.loads(REFERENCES.read_text())["sparse-search"]["pool"]["sparse-r26a"]
        g = Graph.from_edges(pool["n"], [tuple(e) for e in pool["edges"]])
        assert codes._narrow_order(g) is None

    def test_route_is_picked_by_shape_not_size(self, walks):
        # cycle 12 is narrow, so both calls take the DP however small it is;
        # thick spider k = 4 (n = 8) has a vertex of degree 6, so it walks
        g = cycle_graph(12)
        want = min_cover(build_clutter(g, CodeKind.OD), cap=DEFAULT_CAP)
        assert gamma(g, CodeKind.OD) == (want.value, want.witness)
        assert gamma_all_optima(g, CodeKind.OD) == (want.value, want.all_optima, False)
        assert not walks
        spider = thick_spider(4)
        assert codes._narrow_order(spider) is None
        want = min_cover(build_clutter(spider, CodeKind.OD))
        assert gamma(spider, CodeKind.OD) == (want.value, want.witness)
        assert len(walks) == 1

    def test_state_cap_hands_back_to_the_walk(self, monkeypatch, walks):
        g = relabelled(cycle_graph(36), 1)
        want = min_cover(build_clutter(g, CodeKind.OD))
        monkeypatch.setattr(cover, "STATE_CAP", 1)
        assert gamma(g, CodeKind.OD) == (want.value, want.witness)
        assert len(walks) == 1

    @pytest.mark.parametrize(
        "make,n", [(cycle_graph, 32), (cycle_graph, 36), (path_graph, 36), (path_graph, 40)]
    )
    def test_witness_is_min_covers(self, make, n):
        for seed in (1, 2, 3):
            g = relabelled(make(n), seed)
            for kind in (CodeKind.OD, CodeKind.OTD):
                assert gamma(g, kind)[1] == min_cover(build_clutter(g, kind)).witness

    @pytest.mark.parametrize(
        "g,kinds",
        [
            *[
                (relabelled(make(n), 1), (CodeKind.OD, CodeKind.OTD))
                for make, n in [(cycle_graph, 32), (cycle_graph, 36), (path_graph, 36), (path_graph, 40)]
            ],
            (matching(16), (CodeKind.OD,)),
            (matching(24), (CodeKind.OD,)),
        ],
        ids=["cycle32", "cycle36", "path36", "path40", "matching16", "matching24"],
    )
    def test_gamma_walks_once_pinned(self, g, kinds, walks, searches):
        for kind in kinds:
            want = min_cover(build_clutter(g, kind))
            assert gamma(g, kind) == (want.value, want.witness)
        assert (len(searches), len(walks)) == (len(kinds), 0)

    def test_narrow_corpus_is_min_covers(self, walks):
        # small narrow graphs, whose walks are short: the DP runs first on
        # them too
        graphs = narrow_corpus()
        solved = dict.fromkeys(graphs, 0)
        for family, members in graphs.items():
            for g in members:
                for kind in CodeKind:
                    if is_admissible(g, kind).ok:
                        want = min_cover(build_clutter(g, kind))
                        assert gamma(g, kind) == (want.value, want.witness), (family, g, kind)
                        solved[family] += 1
        assert not walks
        assert min(solved.values()) >= 25 and sum(solved.values()) >= 120, solved


GAMMA_FORMS = [(), ("--json",), ("--enumerate", "--cap", "2"), ("--enumerate", "--json")]


class TestCliGamma:
    """odcodes gamma takes the library's route, and prints what min_cover's
    result renders to: every form, on narrow graphs with no min_cover call,
    and on a dense graph with one."""

    @staticmethod
    def outputs(g, kind, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(graph_to_text(g))
        got = []
        for flags in GAMMA_FORMS:
            assert cli.main(["gamma", str(path), "--kind", kind.value, *flags]) == 0
            got.append(capsys.readouterr().out)
        return got

    def walked_outputs(self, g, kind, tmp_path, capsys, monkeypatch):
        clutter, results = build_clutter(g, kind), {}

        def walked(g, kind, cap=None):
            # text and --json render one result, so each walk runs once; the
            # value walk's result is the full listing's without its optima
            # (TestEnumeration::test_listing_keeps_the_value_walks_witness)
            listed = cap or DEFAULT_CAP
            if listed not in results:
                results[listed] = min_cover(clutter, cap=listed)
            res = results[listed]
            return res if cap else replace(res, all_optima=None, truncated=False)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_solve", walked)
            return self.outputs(g, kind, tmp_path, capsys)

    @pytest.mark.parametrize(
        "graphs",
        [
            [relabelled(cycle_graph(33), 1)],
            [relabelled(cycle_graph(48), 1)],
            [relabelled(path_graph(40), 1)],
            [g for members in narrow_corpus().values() for g in members],
        ],
        ids=["cycle33", "cycle48", "path40", "narrow-corpus"],
    )
    def test_narrow_graphs_print_min_covers_result(
        self, graphs, tmp_path, capsys, monkeypatch, walks
    ):
        monkeypatch.setattr(cli, "min_cover", None)  # no walk of the CLI's own
        for g in graphs:
            for kind in (CodeKind.OD, CodeKind.OTD, CodeKind.LD):
                if is_admissible(g, kind).ok:
                    want = self.walked_outputs(g, kind, tmp_path, capsys, monkeypatch)
                    assert self.outputs(g, kind, tmp_path, capsys) == want, (g, kind)
        assert not walks

    def test_dense_graph_walks_once(self, tmp_path, capsys, monkeypatch, walks):
        pool = json.loads(REFERENCES.read_text())["sparse-search"]["pool"]["sparse-r26a"]
        g = Graph.from_edges(pool["n"], [tuple(e) for e in pool["edges"]])
        want = self.walked_outputs(g, CodeKind.OD, tmp_path, capsys, monkeypatch)
        assert self.outputs(g, CodeKind.OD, tmp_path, capsys) == want
        assert len(walks) == len(GAMMA_FORMS)  # one min_cover call per run


class TestBruteForce:
    def test_examples(self):
        assert brute_force_gamma(P4, CodeKind.LTD)[0] == 2
        assert brute_force_gamma(named_graph("bull"), CodeKind.OD)[0] == 3
        assert brute_force_gamma(complete(2), CodeKind.OD)[0] == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_gamma(Graph.from_edges(25, [(0, 1)]), CodeKind.LD)

    def test_agrees_with_pipeline_and_naive(self):
        rng = random.Random(103)
        for _ in range(12):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                got = brute_force_gamma(g, kind)
                assert got[0] == gamma(g, kind)[0] == naive_gamma(g, kind)[0]


class TestRelations:
    def by_name(self, g):
        return {c.name: c for c in check_relations(g)}

    def test_halfgraph_plus_isolated(self):
        g = disjoint_union(half_graph(3), Graph.from_edges(1, []))
        checks = self.by_name(g)
        assert checks["isolated_shift"].status == "pass"
        assert gamma(g, CodeKind.OD)[0] == 7

    def test_fan2(self):
        assert gamma(fan(2), CodeKind.OD)[0] == 3
        assert gamma(fan(2), CodeKind.OTD)[0] == 4
        checks = self.by_name(fan(2))
        assert checks["otd_sandwich"].status == "pass"

    def test_net(self):
        net = thin_spider(3)
        assert gamma(net, CodeKind.OD)[0] == gamma(net, CodeKind.OTD)[0] == 3
        assert all(
            c.status in ("pass", "not-applicable") for c in check_relations(net)
        )

    def test_not_applicable_marked(self):
        g = disjoint_union(complete(3), Graph.from_edges(1, []))
        checks = self.by_name(g)
        assert checks["otd_sandwich"].status == "not-applicable"
        assert checks["ltd_lower"].status == "not-applicable"
        assert checks["order_bounds"].status == "not-applicable"

    def test_tiny_graphs_name_the_condition_that_fails(self):
        # the empty graph has no isolated vertex; K1 has exactly one, and no
        # other vertex is left once it is removed
        details = {
            n: {c.name: (c.status, c.detail) for c in check_relations(Graph.from_edges(n, []))}
            for n in (0, 1)
        }
        skip = "not-applicable"
        assert details[0]["otd_sandwich"] == details[0]["ltd_lower"] == (skip, "graph is empty")
        assert details[0]["isolated_shift"] == (
            skip, "graph does not have exactly one isolated vertex"
        )
        assert details[1]["otd_sandwich"] == details[1]["ltd_lower"] == (
            skip, "graph has an isolated vertex"
        )
        assert details[1]["isolated_shift"] == (
            skip, "graph has no vertex besides its isolated one"
        )
        assert details[0]["ld_lower"][0] == details[1]["ld_lower"][0] == "pass"

    def test_random_suite_all_pass(self):
        rng = random.Random(107)
        for _ in range(25):
            g = random_od_admissible(rng.randint(3, 8), rng.choice([0.4, 0.6]), rng)
            for c in check_relations(g):
                assert c.status in ("pass", "not-applicable"), c


class TestCodeProperties:
    def test_remark_one_open_undominated_at_most_one(self):
        rng = random.Random(109)
        for _ in range(15):
            g = random_od_admissible(rng.randint(3, 8), 0.5, rng)
            _, optima, _ = gamma_all_optima(g, CodeKind.OD, cap=200)
            for code in optima:
                hungry = [v for v in range(g.n) if not g.adj[v] & sum(1 << c for c in code)]
                assert len(hungry) <= 1

    def test_dominating_plus_near_separation_suffices(self):
        # a dominating set separating all pairs at distance <= 2, with at most
        # one vertex open-undominated, is already a full open-separating code
        rng = random.Random(113)
        exercised = 0
        for _ in range(20):
            n = rng.randint(3, 7)
            g = random_od_admissible(n, 0.5, rng, forbid_isolated=False)
            for trial in range(30):
                cand = {v for v in range(n) if rng.random() < 0.6}
                cmask = sum(1 << v for v in cand)
                if any(not g.closed_mask(v) & cmask for v in range(n)):
                    continue
                hungry = [v for v in range(n) if not g.adj[v] & cmask]
                if len(hungry) > 1:
                    continue
                near_ok = all(
                    g.delta_open_mask(u, v) & cmask
                    for u in range(n)
                    for v in range(u + 1, n)
                    if g.has_edge(u, v) or g.adj[u] & g.adj[v]  # distance <= 2
                )
                if near_ok:
                    exercised += 1
                    assert verify(g, cand, CodeKind.OD).valid
        assert exercised > 20

    def test_superset_closure(self):
        rng = random.Random(127)
        for _ in range(15):
            n = rng.randint(3, 7)
            g = random_graph(n, 0.5, rng)
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                _, witness = gamma(g, kind)
                extra = set(witness)
                for v in range(n):
                    extra2 = extra | {v}
                    assert verify(g, extra2, kind).valid

    def test_otd_od_gap_zero_or_one(self):
        rng = random.Random(131)
        for _ in range(30):
            g = random_od_admissible(rng.randint(3, 8), rng.choice([0.35, 0.55]), rng)
            od, _ = gamma(g, CodeKind.OD)
            otd, _ = gamma(g, CodeKind.OTD)
            assert otd - od in (0, 1)

    def test_log_bound(self):
        rng = random.Random(137)
        for _ in range(20):
            g = random_od_admissible(rng.randint(2, 8), 0.5, rng)
            od, _ = gamma(g, CodeKind.OD)
            assert math.ceil(math.log2(g.n)) <= od <= g.n - 1


class TestDoubleStarValues:
    @pytest.mark.parametrize("k,od,otd", [(2, 3, 4), (3, 5, 6), (4, 7, 8)])
    def test_small(self, k, od, otd):
        g = double_star(k)
        assert gamma(g, CodeKind.OD)[0] == od
        assert gamma(g, CodeKind.OTD)[0] == otd
