import math
import random

import pytest

from odcodes.clutters import InadmissibleGraphError, build_hypergraph, forced_vertices_direct
from odcodes.codes import (
    brute_force_gamma,
    check_relations,
    gamma,
    gamma_all_optima,
    verify,
)
from odcodes.families import (
    double_star,
    fan,
    half_graph,
    named_graph,
    random_od_admissible,
    thin_spider,
)
from odcodes.graphs import CodeKind, Graph, disjoint_union, is_admissible
from oracles import naive_gamma, naive_is_code

from test_graphs import complete, gem, path, random_graph

P4 = path(4)


class TestVerify:
    def test_gem_od_code(self):
        rep = verify(gem(), {0, 1, 3}, CodeKind.OD)
        assert rep.valid

    def test_p4_od_code(self):
        assert verify(P4, {0, 1, 3}, CodeKind.OD).valid

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
                edges = [e.members for e in build_hypergraph(g, kind).edges] if adm.ok else []
                for cmask in range(1 << g.n):
                    code = [v for v in range(g.n) if cmask >> v & 1]
                    valid = verify(g, code, kind).valid
                    assert valid == naive_is_code(g, code, kind)
                    if adm.ok:
                        assert valid == all(m & cmask for m in edges)
        assert isolated >= 10 and twins >= 10

    def test_out_of_range_code_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="out of range"):
            verify(P4, {0, 9}, CodeKind.OD)

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
            lambda g: brute_force_gamma(g, CodeKind.OD),
            forced_vertices_direct,
            check_relations,
        ],
        ids=["hypergraph", "gamma", "brute-force", "forced-direct", "relations"],
    )
    def test_every_entry_point_refuses_with_one_message(self, refuse):
        with pytest.raises(InadmissibleGraphError) as exc:
            refuse(Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert str(exc.value) == "graph is not OD-admissible: open twins: [(1, 2)]"

    def test_all_optima_valid(self):
        value, optima, truncated = gamma_all_optima(P4, CodeKind.OD)
        assert value == 3 and not truncated
        assert all(verify(P4, opt, CodeKind.OD).valid for opt in optima)


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
        from odcodes.graphs import distance

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
                    if distance(g, u, v) <= 2
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
