import functools
import random

import pytest

from odcodes.clutters import (
    Hypergraph,
    InadmissibleGraphError,
    build_clutter,
    build_hypergraph,
    clutter_from_json,
    clutter_to_json,
    forced_vertices_direct,
    reduce_hypergraph,
)
from odcodes.cover import min_cover
from odcodes.graphs import CodeKind, Graph, is_admissible, mask_of
from oracles import naive_gamma, reference_reduce_hypergraph

from test_graphs import complete, path, random_graph
from test_polyhedra import relabelled

P4 = path(4)


def edge_sets(clutter):
    return [set(e.vertices()) for e in clutter.edges]


def hypergraph_of(n, kind, edges):
    """The Hypergraph with one hyperedge per (edge, source) pair of the edges."""
    pairs = [(e.members, s) for e in edges for s in e.sources]
    return Hypergraph(n, kind, tuple(m for m, _ in pairs), tuple(s for _, s in pairs))


class TestBuildHypergraph:
    def test_p4_od_exact(self):
        h = build_hypergraph(P4, CodeKind.OD)
        got = {e.sources[0]: set(e.vertices()) for e in h.edges}
        assert got == {
            "N[0]": {0, 1},
            "N[1]": {0, 1, 2},
            "N[2]": {1, 2, 3},
            "N[3]": {2, 3},
            "delta(0,1)": {0, 1, 2},
            "delta(0,2)": {3},
            "delta(0,3)": {1, 2},
            "delta(1,2)": {0, 1, 2, 3},
            "delta(1,3)": {0},
            "delta(2,3)": {1, 2, 3},
        }

    def test_k2_otd(self):
        h = build_hypergraph(complete(2), CodeKind.OTD)
        got = {e.sources[0]: set(e.vertices()) for e in h.edges}
        assert got == {"N(0)": {1}, "N(1)": {0}, "delta(0,1)": {0, 1}}

    @pytest.mark.parametrize("kind", list(CodeKind))
    def test_edge_count(self, kind):
        g = path(6)  # admissible for every kind
        assert is_admissible(g, kind).ok
        h = build_hypergraph(g, kind)
        assert len(h.edges) == g.n + g.n * (g.n - 1) // 2

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleGraphError):
            build_hypergraph(Graph.from_edges(2, []), CodeKind.OD)

    # build_hypergraph(P4, kind).edges, pinned in order: the four domination
    # edges by vertex, then one separation edge per pair (u, v), u < v
    P4_PAIRS = ["delta(0,1)", "delta(0,2)", "delta(0,3)", "delta(1,2)", "delta(1,3)", "delta(2,3)"]
    P4_EDGES = {
        CodeKind.OD: [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3), (0, 1, 2), (3,), (1, 2), (0, 1, 2, 3), (0,), (1, 2, 3)],
        CodeKind.OTD: [(1,), (0, 2), (1, 3), (2,), (0, 1, 2), (3,), (1, 2), (0, 1, 2, 3), (0,), (1, 2, 3)],
        CodeKind.ID: [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3), (2,), (0, 2, 3), (0, 1, 2, 3), (0, 3), (0, 1, 3), (1,)],
        CodeKind.ITD: [(1,), (0, 2), (1, 3), (2,), (2,), (0, 2, 3), (0, 1, 2, 3), (0, 3), (0, 1, 3), (1,)],
        CodeKind.LD: [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3), (0, 1, 2), (0, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3), (1, 2, 3)],
        CodeKind.LTD: [(1,), (0, 2), (1, 3), (2,), (0, 1, 2), (0, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3), (1, 2, 3)],
    }

    @pytest.mark.parametrize("kind", list(CodeKind))
    def test_p4_edges_in_order(self, kind):
        h = build_hypergraph(P4, kind)
        tag = "N[{}]" if kind.domination == "closed" else "N({})"
        sources = [tag.format(v) for v in range(4)] + self.P4_PAIRS
        assert [e.sources for e in h.edges] == [(s,) for s in sources]
        assert [e.vertices() for e in h.edges] == self.P4_EDGES[kind]
        assert h.masks == tuple(e.members for e in h.edges)
        assert h.sources == tuple(sources)

    def test_locating_edges_include_pair(self):
        h = build_hypergraph(P4, CodeKind.LD)
        by_src = {e.sources[0]: set(e.vertices()) for e in h.edges}
        assert by_src["delta(0,2)"] == {0, 2, 3}
        # adjacent pairs already contain both endpoints
        assert by_src["delta(0,1)"] == {0, 1, 2}


class TestReduce:
    def test_p4_od_clutter(self):
        c = build_clutter(P4, CodeKind.OD)
        assert edge_sets(c) == [{0}, {3}, {1, 2}]
        assert c.f1 == {0, 3}
        assert [set(e.vertices()) for e in c.f2] == [{1, 2}]
        assert c.v0 == frozenset()

    def test_p4_keeps_distant_pair_edge(self):
        # {1,2} comes from the symmetric difference of the two leaves, which
        # are non-adjacent and share no common neighbor
        c = build_clutter(P4, CodeKind.OD)
        (pair,) = c.f2
        assert pair.sources == ("delta(0,3)",)
        assert not P4.has_edge(0, 3) and not P4.adj[0] & P4.adj[3]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clique_clutter_is_pairs(self, n):
        c = build_clutter(complete(n), CodeKind.OD)
        assert edge_sets(c) == [{u, v} for u in range(n) for v in range(u + 1, n)]
        assert c.f1 == frozenset() and c.v0 == frozenset()

    def test_fan_excludes_universal(self):
        # two 2-cliques plus a universal vertex: the hub lands in no edge
        from odcodes.families import fan

        g = fan(2)
        hub = next(v for v, lab in g.labels.items() if lab == "u")
        c = build_clutter(g, CodeKind.OD)
        assert c.v0 == {hub}

    def test_antichain_and_idempotent(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng.randint(2, 8), 0.45, rng)
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                c = build_clutter(g, kind)
                masks = c.edge_masks()
                for i, a in enumerate(masks):
                    for j, b in enumerate(masks):
                        if i != j:
                            assert a & b != a, "antichain violated"
                again = reduce_hypergraph(hypergraph_of(c.n, kind, c.edges))
                assert again.edge_masks() == masks

    def test_duplicate_sources_merged(self):
        h = build_hypergraph(complete(3), CodeKind.OD)
        c = reduce_hypergraph(h)
        merged = {e.vertices(): e.sources for e in c.edges}
        # N[v] = V is redundant; each pair edge keeps only its delta source
        assert merged[(0, 1)] == ("delta(0,1)",)

    def test_merged_sources_sorted_as_strings(self):
        # the K2 component {2, 10} beside a path: N[2], N[10] and delta(2,10)
        # are one edge, whose sources sort as strings, so N[10] before N[2]
        g = Graph.from_edges(11, [(2, 10), (0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
        for kind in (CodeKind.OD, CodeKind.LD):
            merged = {e.vertices(): e.sources for e in build_clutter(g, kind).edges}
            assert merged[(2, 10)] == ("N[10]", "N[2]", "delta(2,10)")

    def test_empty_edge_rejected(self):
        h = build_hypergraph(P4, CodeKind.OD)
        bad = Hypergraph(h.n, h.kind, h.masks + (0,), h.sources + ("manual",))
        with pytest.raises(ValueError):
            reduce_hypergraph(bad)


# The largest member of each family the benchmark solves, n up to 80.
LARGE_MEMBERS = (
    ("thin-spider", {"k": 40}),
    ("extended-thin-spider", {"k": 39}),
    ("sunlet", {"k": 40}),
    ("half-graph", {"k": 40}),
    ("fan", {"k": 24}),
    ("clique", {"n": 48}),
    ("matching", {"k": 24}),
)


@functools.cache
def reduction_corpus(source):
    """Hypergraphs of every admissible kind, for one source of graphs."""
    from odcodes.families import FamilySpec, generate
    from odcodes.reports import family_specs
    from odcodes.sat_reduction import build_gadget, enumerate_slsat

    if source == "random":
        rng = random.Random(29)
        graphs = [random_graph(rng.randint(1, 30), rng.random(), rng) for _ in range(60)]
    elif source == "families":
        graphs = [generate(FamilySpec(f, **params)) for f, params in LARGE_MEMBERS]
        # each large member again under a fixed-seed relabelling, so that
        # edges and their sources no longer come in vertex order
        rng = random.Random(31)
        graphs += [relabelled(g, rng.sample(range(g.n), g.n)) for g in graphs]
        graphs += [generate(spec) for spec in family_specs(14)]
    else:
        graphs = [build_gadget(inst).graph for inst, _ in zip(enumerate_slsat(3, 6), range(16))]
    return tuple(
        build_hypergraph(g, kind) for g in graphs for kind in CodeKind if is_admissible(g, kind).ok
    )


CORPUS_SOURCES = ("random", "families", "slsat-gadgets")


class TestSameClutterAsReference:
    """The indexed reduction gives exactly the all-pairs scan's clutter."""

    @pytest.mark.parametrize("source", CORPUS_SOURCES)
    def test_corpus(self, source):
        hypergraphs = reduction_corpus(source)
        assert {h.kind for h in hypergraphs} == set(CodeKind)
        for h in hypergraphs:
            assert reduce_hypergraph(h) == reference_reduce_hypergraph(h)


class TestReductionProperties:
    """Random mask lists: antichain, every dropped mask covered, same as reference."""

    def test_random_mask_lists(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 12))
            masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=40))
            h = Hypergraph(n, CodeKind.OD, tuple(masks), tuple(f"e{i}" for i in range(len(masks))))
            c = reduce_hypergraph(h)
            kept = c.edge_masks()
            assert all(a & b != a for a in kept for b in kept if a != b)
            assert all(any(k & m == k for k in kept) for m in masks)
            assert set(kept) <= set(masks)
            assert c == reference_reduce_hypergraph(h)

        check()


class TestTauPreservation:
    """Covering number of the clutter equals the brute-force code number."""

    def corpus(self):
        rng = random.Random(41)
        graphs = [P4, path(5), complete(4), Graph.from_edges(4, [(0, 1), (2, 3)])]
        graphs += [random_graph(rng.randint(3, 8), p, rng) for p in (0.3, 0.5, 0.7) for _ in range(4)]
        return graphs

    def test_tau_equals_bruteforce(self):
        for g in self.corpus():
            for kind in CodeKind:
                if not is_admissible(g, kind).ok:
                    continue
                c = build_clutter(g, kind)
                got = min_cover(c).value
                expected = naive_gamma(g, kind)
                assert expected is not None and got == expected[0], (g.edges(), kind)

    def test_f1_in_every_minimum_and_v0_in_none(self):
        for g in self.corpus()[:8]:
            if not is_admissible(g, CodeKind.OD).ok:
                continue
            c = build_clutter(g, CodeKind.OD)
            res = min_cover(c, enumerate_all=True)
            for opt in res.all_optima:
                assert c.f1 <= opt
                assert not (c.v0 & opt)


class TestFamilyClutterShapes:
    def test_extended_spider_otd_clutter(self):
        from odcodes.families import extended_thin_spider

        k = 5
        g = extended_thin_spider(k)  # q1..qk = 0..k-1, s0 = k, s1..sk = k+1..2k
        c = build_clutter(g, CodeKind.OTD)
        assert edge_sets(c) == [{i} for i in range(k)] + [{2 * k}]
        assert c.v0 == set(range(k, 2 * k))  # s0..s_{k-1} never needed

    @pytest.mark.parametrize("chords", [(), ((1, 3),), ((1, 3), (2, 4))])
    def test_thin_sun_clutter_formula(self, chords):
        # expected edges, built straight from the cycle structure: pendant
        # closed neighborhoods, pendant-pair deltas, cycle-pair deltas that
        # survive (twins or single cycle-separator), and the adjacent
        # cycle/pendant deltas of degree-2 cycle vertices
        from odcodes.families import thin_sun

        k = 4
        g = thin_sun(k, chords)
        cs, ss = list(range(k)), list(range(k, 2 * k))
        cyc_adj = [{d for d in cs if g.has_edge(c, d)} for c in cs]
        expected = {frozenset({ss[i], cs[i]}) for i in range(k)}
        expected |= {frozenset({cs[i], cs[j]}) for i in range(k) for j in range(i + 1, k)}
        for i in range(k):
            for j in range(i + 1, k):
                if g.has_edge(cs[i], cs[j]):
                    continue
                diff = cyc_adj[i] ^ cyc_adj[j]
                if not diff:
                    expected.add(frozenset({ss[i], ss[j]}))
                elif len(diff) == 1:
                    expected.add(frozenset({ss[i], ss[j]} | diff))
        for i in range(k):
            for j in range(k):
                if i != j and g.has_edge(cs[i], cs[j]) and len(cyc_adj[i]) == 2:
                    (other,) = cyc_adj[i] - {cs[j]}
                    expected.add(frozenset({ss[i], other}))
        got = set(map(frozenset, edge_sets(build_clutter(g, CodeKind.OD))))
        # drop expected edges shadowed by a smaller expected edge
        minimal = {
            e for e in expected if not any(f < e for f in expected)
        }
        assert got == minimal


class TestForcedDirect:
    def test_p4(self):
        assert forced_vertices_direct(P4) == {0, 3}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clique_none(self, n):
        assert forced_vertices_direct(complete(n)) == frozenset()

    def test_isolated_plus_leaf_forces_support(self):
        # isolated vertex 4 and leaf 0 hanging off 1: the support vertex 1 is
        # the sole separator of the pair (leaf, isolated)
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        forced = forced_vertices_direct(g)
        assert 4 in forced and 1 in forced

    def test_matches_reduce_f1_on_corpus(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), rng.choice([0.25, 0.5, 0.75]), rng)
            if not is_admissible(g, CodeKind.OD).ok:
                continue
            assert forced_vertices_direct(g) == build_clutter(g, CodeKind.OD).f1


class TestClutterJson:
    def test_roundtrip(self):
        c = build_clutter(P4, CodeKind.OD)
        c2 = clutter_from_json(clutter_to_json(c))
        assert c2.edge_masks() == c.edge_masks()
        assert c2.kind == c.kind
        assert [e.sources for e in c2.edges] == [e.sources for e in c.edges]

    def test_bare_edges_accepted(self):
        c = clutter_from_json({"n": 3, "edges": [[0, 1], [2]]})
        assert c.edge_masks() == (mask_of([2]), mask_of([0, 1]))

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            clutter_from_json({"n": 2, "edges": [[5]]})
        with pytest.raises(ValueError):
            clutter_from_json({"n": 2, "edges": [[]]})
