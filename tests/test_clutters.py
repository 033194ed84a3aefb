import functools
import random
import re

import pytest

from odcodes.clutters import (
    Clutter,
    ClutterFormatError,
    Hypergraph,
    InadmissibleGraphError,
    _clutter_order,
    build_clutter,
    build_hypergraph,
    clutter_from_json,
    clutter_to_json,
    forced_vertices_direct,
    reduce_hypergraph,
)
from odcodes.codes import DEFAULT_CAP
from odcodes.cover import min_cover
from odcodes.graphs import CodeKind, Graph, bits, code_masks, is_admissible, mask_of
from oracles import naive_gamma, reference_reduce_hypergraph

from test_graphs import complete, path, random_graph
from test_polyhedra import relabelled

P4 = path(4)


def edge_sets(clutter):
    return [set(bits(m)) for m in clutter.edges]


def hypergraph_of(c):
    """The Hypergraph with one hyperedge per (edge, source) pair of the clutter."""
    pairs = [(m, s) for m, sources in zip(c.edges, c.sources) for s in sources]
    return Hypergraph(c.n, c.kind, tuple(m for m, _ in pairs), tuple(s for _, s in pairs))


class TestBuildHypergraph:
    def test_p4_od_exact(self):
        h = build_hypergraph(P4, CodeKind.OD)
        got = {s: set(bits(m)) for m, s in zip(h.edges, h.sources)}
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
        got = {s: set(bits(m)) for m, s in zip(h.edges, h.sources)}
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
        assert [tuple(bits(m)) for m in h.edges] == self.P4_EDGES[kind]
        assert h.sources == tuple(sources)

    @pytest.mark.parametrize("n", [12, 101])
    @pytest.mark.parametrize("kind", [CodeKind.OD, CodeKind.LD])
    def test_pair_edges_in_order(self, kind, n):
        # one- to three-digit labels: each pair's source and mask, u < v in order
        g = random_graph(n, 0.3, random.Random(n))
        assert is_admissible(g, kind).ok
        h = build_hypergraph(g, kind)
        _, sep, own = code_masks(g, kind)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert h.sources[n:] == tuple(f"delta({u},{v})" for u, v in pairs)
        assert h.edges[n:] == tuple(sep[u] ^ sep[v] | own[u] | own[v] for u, v in pairs)

    def test_locating_edges_include_pair(self):
        h = build_hypergraph(P4, CodeKind.LD)
        by_src = {s: set(bits(m)) for m, s in zip(h.edges, h.sources)}
        assert by_src["delta(0,2)"] == {0, 2, 3}
        # adjacent pairs already contain both endpoints
        assert by_src["delta(0,1)"] == {0, 1, 2}


class TestShapeChecks:
    # one source per edge and every edge inside range(n); the readers of a
    # clutter built otherwise disagree on its edges
    @pytest.mark.parametrize(
        "edges,sources,message",
        [
            ((1, 2), (), "2 edges but 0 sources"),
            ((1,), ("a", "b"), "1 edges but 2 sources"),
            ((8,), ("e",), "an edge reaches past vertex 1 of n=2"),
            ((1, 4), ("a", "b"), "an edge reaches past vertex 1 of n=2"),
        ],
        ids=["short-sources", "long-sources", "far-vertex", "next-vertex"],
    )
    def test_refused(self, edges, sources, message):
        with pytest.raises(ValueError, match=message):
            Hypergraph(2, None, edges, sources)
        with pytest.raises(ValueError, match=message):
            Clutter(2, edges, tuple((s,) for s in sources))

    def test_empty_edges_and_full_range_accepted(self):
        # an empty edge is left to the solvers, which refuse it by name
        assert Clutter(2, (0, 3), (("e",), ("f",))).edges == (0, 3)
        assert Hypergraph(2, None, (0, 3), ("e", "f")).edges == (0, 3)
        assert Clutter(0, (), ()).ground == frozenset()


class TestReduce:
    def test_p4_od_clutter(self):
        c = build_clutter(P4, CodeKind.OD)
        assert edge_sets(c) == [{0}, {3}, {1, 2}]
        assert c.f1 == {0, 3}
        assert [set(bits(m)) for m in c.f2] == [{1, 2}]
        assert c.v0 == frozenset()

    def test_p4_keeps_distant_pair_edge(self):
        # {1,2} comes from the symmetric difference of the two leaves, which
        # are non-adjacent and share no common neighbor
        c = build_clutter(P4, CodeKind.OD)
        (pair,) = c.f2
        assert c.sources[c.edges.index(pair)] == ("delta(0,3)",)
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
                masks = c.edges
                for i, a in enumerate(masks):
                    for j, b in enumerate(masks):
                        if i != j:
                            assert a & b != a, "antichain violated"
                again = reduce_hypergraph(hypergraph_of(c))
                assert again.edges == masks

    def test_duplicate_sources_merged(self):
        h = build_hypergraph(complete(3), CodeKind.OD)
        c = reduce_hypergraph(h)
        merged = {tuple(bits(m)): s for m, s in zip(c.edges, c.sources)}
        # N[v] = V is redundant; each pair edge keeps only its delta source
        assert merged[(0, 1)] == ("delta(0,1)",)

    def test_merged_sources_sorted_as_strings(self):
        # the K2 component {2, 10} beside a path: N[2], N[10] and delta(2,10)
        # are one edge, whose sources sort as strings, so N[10] before N[2]
        g = Graph.from_edges(11, [(2, 10), (0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
        for kind in (CodeKind.OD, CodeKind.LD):
            c = build_clutter(g, kind)
            merged = {tuple(bits(m)): s for m, s in zip(c.edges, c.sources)}
            assert merged[(2, 10)] == ("N[10]", "N[2]", "delta(2,10)")

    def test_empty_edge_rejected(self):
        # every empty edge's source, in order, and none of the others
        h = build_hypergraph(P4, CodeKind.OD)
        bad = Hypergraph(h.n, h.kind, (0,) + h.edges + (0,), ("a",) + h.sources + ("b",))
        with pytest.raises(ValueError, match=re.escape("empty hyperedge from ['a', 'b']") + "$"):
            reduce_hypergraph(bad)

    def test_sources_gathered_for_kept_edges_only(self):
        # {0,1} comes first and last with its superset between them: it keeps
        # both sources, sorted, and the dropped superset's source is gone
        edges = (0b011, 0b111, 0b100, 0b011)
        c = reduce_hypergraph(Hypergraph(3, None, edges, ("z", "dropped", "c", "a")))
        assert c.edges == (0b100, 0b011)
        assert c.sources == (("c",), ("a", "z"))

    def test_clutter_order_is_size_then_members(self):
        # widths off and on byte multiples; every edge of one or two vertices
        # plus random ones, sparse and dense
        rng = random.Random(35)
        for width in range(71):
            masks = {0, (1 << width) - 1}
            masks |= {1 << u | 1 << v for u in range(width) for v in range(u, width)}
            for _ in range(100):
                masks |= {rng.getrandbits(width), rng.getrandbits(width) & rng.getrandbits(width)}
            expected = sorted(masks, key=lambda m: (m.bit_count(), tuple(bits(m))))
            assert sorted(masks, key=_clutter_order(width)) == expected, width


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
            kept = c.edges
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
            res = min_cover(c, cap=DEFAULT_CAP)
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
        assert c2.edges == c.edges
        assert c2.kind == c.kind
        assert c2.sources == c.sources

    def test_bare_edges_accepted(self):
        c = clutter_from_json({"n": 3, "edges": [[0, 1], [2]]})
        assert c.edges == (mask_of([2]), mask_of([0, 1]))

    def test_order_does_not_depend_on_n(self):
        # the sort key spans the widest edge's bits, not n places: at n = 10^6
        # the edges still come by (size, member tuple), duplicates in input order
        rng = random.Random(16)
        edges = [sorted(rng.sample(range(12), rng.randint(1, 4))) for _ in range(80)]
        entries = [{"vertices": e, "sources": [f"e{i}"]} for i, e in enumerate(edges)]
        small = clutter_from_json({"n": 12, "edges": entries})
        large = clutter_from_json({"n": 10**6, "edges": entries})
        order = sorted(range(len(edges)), key=lambda i: (len(edges[i]), edges[i]))
        assert small.edges == tuple(mask_of(edges[i]) for i in order)
        assert small.sources == tuple((f"e{i}",) for i in order)
        assert (large.edges, large.sources) == (small.edges, small.sources)

    def test_vertex_listed_twice_rejected(self):
        for edges in ([[0, 0, 1], [1, 2]], [{"vertices": [2, 1, 2], "sources": ["e"]}]):
            with pytest.raises(ClutterFormatError, match="lists vertex (0|2) twice"):
                clutter_from_json({"n": 3, "edges": edges})
        # a repeated or nested edge is still the bare form's to give
        c = clutter_from_json({"n": 3, "edges": [[0, 1], [0, 1], [0, 1, 2]]})
        assert c.edges == (mask_of([0, 1]),) * 2 + (mask_of([0, 1, 2]),)

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            clutter_from_json({"n": 2, "edges": [[5]]})
        with pytest.raises(ValueError):
            clutter_from_json({"n": 2, "edges": [[]]})
