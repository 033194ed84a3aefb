import json
import math
import random

import pytest

from odcodes.graphs import (
    MAX_VIOLATIONS,
    CodeKind,
    Graph,
    GraphFormatError,
    disjoint_union,
    girth,
    graph_to_json,
    graph_to_text,
    is_admissible,
    is_bipartite,
    load_graph,
    mask_of,
    max_degree,
    parse_graph,
    parse_graph_json,
)
from oracles import naive_girth


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gem():
    # 4-path 0-1-2-3 plus apex 4 adjacent to all of it
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


P4 = path(4)


class TestNeighborhoods:
    def test_open_nbhd_path(self):
        assert P4.adj[1] == mask_of({0, 2})

    def test_open_nbhd_isolated(self):
        assert Graph.from_edges(1, []).adj[0] == 0

    def test_open_nbhd_gem_apex(self):
        assert gem().adj[4] == mask_of({0, 1, 2, 3})

    def test_closed_nbhd_path(self):
        assert P4.closed_mask(1) == mask_of({0, 1, 2})

    def test_closed_nbhd_k1(self):
        assert Graph.from_edges(1, []).closed_mask(0) == mask_of({0})

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_closed_nbhd_complete(self, n):
        g = complete(n)
        for v in range(n):
            assert g.closed_mask(v) == mask_of(range(n))


def delta_closed(g, u, v):
    """N[u] ^ N[v]: the separation edge of the closed-separating kinds."""
    return g.closed_mask(u) ^ g.closed_mask(v)


class TestDeltas:
    def test_delta_open_p4(self):
        # second-neighbor pair on the path leaves a single separator
        assert P4.delta_open_mask(0, 2) == mask_of({3})
        assert P4.delta_open_mask(0, 3) == mask_of({1, 2})
        assert P4.delta_open_mask(1, 3) == mask_of({0})

    def test_delta_open_twins_empty(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert star.delta_open_mask(1, 2) == 0

    def test_delta_closed_p4(self):
        assert delta_closed(P4, 0, 1) == mask_of({2})

    def test_delta_closed_twins_empty(self):
        assert delta_closed(complete(4), 1, 2) == 0

    def test_delta_closed_isolated_pair(self):
        g = Graph.from_edges(2, [])
        assert delta_closed(g, 0, 1) == mask_of({0, 1})

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            P4.delta_open_mask(2, 2)

    def test_delta_membership_characterization(self):
        # w lies in delta_open_mask(u, v) exactly when w is adjacent to one of u, v
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.4, rng)
            for u in range(n):
                for v in range(u + 1, n):
                    d = g.delta_open_mask(u, v)
                    for w in range(n):
                        expected = g.has_edge(w, u) != g.has_edge(w, v)
                        assert bool(d >> w & 1) == expected

    def test_delta_symmetry_and_distance3(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.3, rng)
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.delta_open_mask(u, v) == g.delta_open_mask(v, u)
                    # at distance >= 3: neither adjacent nor sharing a neighbor
                    if not g.has_edge(u, v) and not g.adj[u] & g.adj[v]:
                        assert g.delta_open_mask(u, v) == g.adj[u] | g.adj[v]


class TestTwins:
    def test_two_k2_no_open_twins(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert is_admissible(g, CodeKind.OD).twin_pairs == ()

    def test_isolated_pair_open_twins(self):
        assert is_admissible(Graph.from_edges(2, []), CodeKind.OD).twin_pairs == ((0, 1),)

    def test_star_leaves_open_twins(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert is_admissible(g, CodeKind.OD).twin_pairs == ((1, 2), (1, 3), (2, 3))

    def test_complete_closed_twins(self):
        assert is_admissible(complete(3), CodeKind.ID).twin_pairs == ((0, 1), (0, 2), (1, 2))

    def test_p4_closed_twin_free(self):
        assert is_admissible(P4, CodeKind.ID).twin_pairs == ()

    def test_bowtie_closed_twins(self):
        # two triangles sharing vertex 2: each triangle's outer pair collapses
        bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert is_admissible(bowtie, CodeKind.ID).twin_pairs == ((0, 1), (3, 4))

    def test_big_star_lists_the_lowest_pairs(self):
        # 2,000 leaves are 1,999,000 twin pairs; only the lowest are built
        g = Graph.from_edges(2001, [(0, v) for v in range(1, 2001)])
        rep = is_admissible(g, CodeKind.OD)
        assert rep.twin_pairs == tuple((1, v) for v in range(2, MAX_VIOLATIONS + 2))
        assert not rep.ok and rep.reason.endswith(f"(the lowest {MAX_VIOLATIONS} of 1999000 pairs)")
        assert len(rep.reason) < 2_000

    def test_twin_classes_merge_in_pair_order(self):
        # K_{20,20} with the sides interleaved: two classes of 190 pairs each
        g = Graph.from_edges(40, [(u, v) for u in range(0, 40, 2) for v in range(1, 40, 2)])
        every = sorted((u, v) for u in range(40) for v in range(u + 1, 40) if (u - v) % 2 == 0)
        rep = is_admissible(g, CodeKind.OD)
        listed = every[:MAX_VIOLATIONS]
        assert rep.twin_pairs == tuple(listed)
        assert rep.reason == f"open twins: {listed} (the lowest {len(listed)} of 380 pairs)"


class TestAdmissibility:
    def test_isolated_pair_not_od(self):
        rep = is_admissible(Graph.from_edges(2, []), CodeKind.OD)
        assert not rep.ok and "open twins" in rep.reason

    def test_od_iff_open_twin_free(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), 0.4, rng)
            twins = any(g.adj[u] == g.adj[v] for u in range(g.n) for v in range(u))
            assert is_admissible(g, CodeKind.OD).ok == (not twins)

    def test_ld_always(self):
        for g in [Graph.from_edges(3, []), complete(4), P4]:
            assert is_admissible(g, CodeKind.LD).ok

    def test_total_kinds_reject_isolated(self):
        g = disjoint_union(P4, Graph.from_edges(1, []))
        for kind in (CodeKind.OTD, CodeKind.ITD, CodeKind.LTD):
            rep = is_admissible(g, kind)
            assert not rep.ok and rep.isolated == (4,)
        assert is_admissible(g, CodeKind.OD).ok

    def test_id_needs_closed_twin_free(self):
        assert not is_admissible(complete(3), CodeKind.ID).ok
        assert is_admissible(P4, CodeKind.ID).ok


class TestMetrics:
    def test_girth_known(self):
        assert girth(cycle(6)) == 6
        assert girth(complete(3)) == 3
        assert girth(complete(4)) == 3
        assert girth(path(5)) == math.inf
        petersen = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert girth(petersen) == 5

    def test_girth_vs_bruteforce(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6]), rng)
            assert girth(g) == naive_girth(g)

    def test_bipartite(self):
        ok, colors = is_bipartite(cycle(6))
        assert ok
        for u, v in cycle(6).edges():
            assert colors[u] != colors[v]
        assert is_bipartite(complete(3)) == (False, None)

    def test_bipartite_girth_parity(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), 0.35, rng)
            if is_bipartite(g)[0]:
                gi = girth(g)
                assert gi == math.inf or gi % 2 == 0

    def test_max_degree(self):
        assert max_degree(complete(4)) == 3
        assert max_degree(Graph.from_edges(3, [])) == 0


class TestDisjointUnion:
    def test_two_k2(self):
        g = disjoint_union(complete(2), complete(2))
        assert g.edges() == [(0, 1), (2, 3)]

    def test_append_isolated(self):
        g = disjoint_union(P4, Graph.from_edges(1, []))
        assert g.n == 5 and g.m == P4.m and g.degree(4) == 0

    def test_matching_by_folding(self):
        g = complete(2)
        for _ in range(2):
            g = disjoint_union(g, complete(2))
        assert g.n == 6 and g.m == 3
        assert all(g.degree(v) == 1 for v in range(6))

    def test_edge_count_and_degrees(self):
        rng = random.Random(31)
        a = random_graph(6, 0.5, rng)
        b = random_graph(5, 0.5, rng)
        u = disjoint_union(a, b)
        assert u.m == a.m + b.m
        assert [u.degree(v) for v in range(6)] == [a.degree(v) for v in range(6)]
        assert [u.degree(6 + v) for v in range(5)] == [b.degree(v) for v in range(5)]
        for x in range(6):
            for y in range(6, 11):
                assert not u.has_edge(x, y)

    def test_labels_shift(self):
        a = Graph.from_edges(2, [(0, 1)], {0: "a"})
        b = Graph.from_edges(1, [], {0: "b"})
        assert disjoint_union(a, b).labels == {0: "a", 2: "b"}


class TestValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_label_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], {5: "x"})

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Graph(-1, ()), "vertex count must be non-negative"),
            (lambda: Graph(2, (0b10,)), "adjacency length does not match vertex count"),
            (lambda: Graph(2, (0b110, 0b001)), "vertex 0 has a neighbor out of range"),
            (lambda: Graph(2, (0b11, 0b01)), "self-loop at vertex 0"),
            (lambda: Graph.from_edges(2, [(0, 2)]), r"edge \(0, 2\) out of range for n=2"),
            (lambda: path(3).degree(3), "vertex 3 out of range for n=3"),
        ],
        ids=[
            "negative-n",
            "adjacency-length",
            "neighbour-out-of-range",
            "self-loop",
            "edge-past-n",
            "degree-out-of-range",
        ],
    )
    def test_refusal_names_the_fault(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_equal_graphs_hash_equal(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)], {0: "x"})
        b = Graph.from_edges(3, [(2, 1), (1, 0)], {0: "x"})
        assert a == b and hash(a) == hash(b)


class TestIO:
    def test_text_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], {0: "a", 3: "d"})
        assert parse_graph(graph_to_text(g)) == g

    def test_text_comments(self):
        g = parse_graph("# a path\n3 2\n0 1\n# middle\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_text_rejects_loops_and_dups(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n0 0\n")
        with pytest.raises(GraphFormatError):
            parse_graph("2 2\n0 1\n0 1\n")

    def test_text_requires_sorted_endpoints(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 0\n")

    def test_text_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("11 1\n0 1_0\n", "line 2: non-integer field in '0 1_0'"),
            ("+3 0\n", "line 1: non-integer field in '+3 0'"),
            ("3 1\n00 1\n", "line 2: non-integer field in '00 1'"),
            ("3 1\n0 \u0661\n", "line 2: non-integer field in '0 \u0661'"),
        ],
        ids=["underscore", "plus", "padding", "arabic-indic-digit"],
    )
    def test_text_fields_plain_decimal(self, text, line):
        # int() reads all of these (1_0 as 10); the file format does not
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == line

    def test_json_roundtrip(self):
        g = gem()
        g2 = parse_graph_json(json.dumps(graph_to_json(g)))
        assert g2 == g

    @pytest.mark.parametrize("label", ["a", "w1:x1", "#", "role", "é→ü", "x" * 40, "0"])
    def test_json_label_round_trips_through_text(self, label):
        obj = {"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"0": label, "2": label + "2"}}
        g = parse_graph_json(json.dumps(obj))
        assert parse_graph(graph_to_text(g)) == g
        assert graph_to_json(g) == obj

    @pytest.mark.parametrize("label", [" a", "a\n", "a\u2028b"])
    def test_json_label_that_text_cannot_hold_rejected(self, label):
        obj = {"n": 2, "edges": [[0, 1]], "labels": {"1": label}}
        with pytest.raises(GraphFormatError, match="label of vertex 1 must be non-empty"):
            parse_graph_json(json.dumps(obj))

    def test_library_labels_round_trip_through_json_and_text(self):
        from odcodes.families import generate
        from odcodes.reports import family_specs
        from odcodes.sat_reduction import build_gadget, enumerate_slsat

        graphs = [generate(spec) for spec in family_specs(12)]
        graphs += [build_gadget(inst).graph for inst, _ in zip(enumerate_slsat(3, 6), range(5))]
        assert any(g.labels for g in graphs)
        for g in graphs:
            assert parse_graph_json(json.dumps(graph_to_json(g))) == g
            assert parse_graph(graph_to_text(g)) == g

    def test_json_labels(self):
        g = parse_graph_json('{"n": 2, "edges": [[0, 1]], "labels": {"0": "w1:x1"}}')
        assert g.labels == {0: "w1:x1"}

    def test_load_sniffs_format(self):
        assert load_graph('{"n": 1, "edges": []}').n == 1
        assert load_graph("1 0\n").n == 1


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)
