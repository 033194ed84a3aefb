import random

import pytest

from odcodes import polyhedra
from odcodes.clutters import build_clutter
from odcodes.codes import gamma
from odcodes.cover import qrose_clutter, tau_q_rose
from odcodes.families import (
    almost_complete_thin_sun,
    clique,
    extended_thin_spider,
    fan,
    half_graph,
    matching,
    sunlet,
    thick_spider,
    thin_spider,
)
from odcodes.graphs import CodeKind, Graph
from odcodes.polyhedra import (
    ENUMERATION_LIMIT,
    ConstraintSystem,
    RankConstraint,
    check_tightness,
    check_validity,
    integer_hull_equiv,
    minimum_over_system,
    od_polyhedron_system,
    qrose_system,
)


class TestQRoseSystem:
    def test_n3_q2_shape(self):
        sys = qrose_system(3, 2)
        got = {(tuple(sorted(c.support)), c.rhs) for c in sys.inequalities}
        assert got == {
            ((0, 1), 1),
            ((0, 2), 1),
            ((1, 2), 1),
            ((0, 1, 2), 2),
        }
        assert sys.equalities == ()

    def test_01_optimum_matches_covering_number(self):
        for n in range(3, 9):
            for q in range(2, n):
                assert minimum_over_system(qrose_system(n, q)) == tau_q_rose(n, q)

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            qrose_system(2, 2)

    def test_hull_equiv_against_materialized_rose(self):
        for n in range(3, 8):
            for q in range(2, n):
                rep = integer_hull_equiv(qrose_system(n, q), qrose_clutter(n, q))
                assert rep.ok


def edited(g, add=(), drop=()):
    """g with edges between role-labelled vertices added and dropped."""
    at = {lab: v for v, lab in g.labels.items()}
    edges = set(g.edges()) - {tuple(sorted((at[a], at[b]))) for a, b in drop}
    edges |= {tuple(sorted((at[a], at[b]))) for a, b in add}
    return Graph.from_edges(g.n, sorted(edges), g.labels)


def relabelled(g, perm):
    """g with vertex v (and its role label) moved to perm[v]."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges, {perm[v]: lab for v, lab in g.labels.items()})


def mapped(sys, perm):
    """A system's equations and inequalities with every vertex v read as perm[v]."""
    return (
        sorted(perm[v] for v in sys.equalities),
        sorted((sorted(perm[v] for v in c.support), c.rhs, c.source) for c in sys.inequalities),
    )


class TestSystems:
    def test_half_graph_shape(self):
        g = half_graph(4)
        sys = od_polyhedron_system(g, "half-graph")
        clutter = build_clutter(g, CodeKind.OD)
        assert set(sys.equalities) == set(clutter.f1)
        assert len(sys.equalities) == 6
        (facet,) = sys.inequalities
        assert facet.rhs == 1 and facet.support == {0, 7}  # u1 and w4

    def test_thick_spider_shape(self):
        sys = od_polyhedron_system(thick_spider(4), "thick-spider")
        rhs_by_size = {}
        for c in sys.inequalities:
            rhs_by_size.setdefault((min(c.support) >= 4, len(c.support)), set()).add(c.rhs)
        # stable part (vertices 4..7): sizes 3 and 4 with rhs size-k+2
        assert rhs_by_size[(True, 3)] == {1} and rhs_by_size[(True, 4)] == {2}
        # clique part: plain rank constraints
        assert rhs_by_size[(False, 2)] == {1} and rhs_by_size[(False, 4)] == {3}

    def test_extended_spider_replaces_leg_by_equation(self):
        k = 4
        sys = od_polyhedron_system(extended_thin_spider(k), "extended-thin-spider")
        thin = od_polyhedron_system(thin_spider(k), "thin-spider")
        assert len(sys.equalities) == 1
        legs = [c for c in sys.inequalities if c.source == "leg cover"]
        assert len(legs) == k - 1
        assert len([c for c in thin.inequalities if c.source == "leg cover"]) == k

    @pytest.mark.parametrize(
        "g,hint",
        [
            (thin_spider(4), "thick-spider"),
            (clique(4), "matching"),
            (sunlet(4), "sunlet"),  # stated for k >= 5
            (edited(thin_spider(4), add=[("s1", "s2")]), "thin-spider"),
            (edited(thin_spider(4), drop=[("q1", "q2")]), "thin-spider"),
            (edited(half_graph(4), add=[("u1", "u2")]), "half-graph"),
            (
                edited(
                    sunlet(6),
                    add=[("c1", "c3"), ("c4", "c6")],
                    drop=[("c3", "c4"), ("c6", "c1")],
                ),
                "sunlet",
            ),  # the cycle is two triangles
            (clique(4), "thin-spider"),  # k = 2 has no thin spider
            (Graph.from_edges(8, thin_spider(4).edges()), "thin-spider"),
        ],
        ids=[
            "thin-spider-as-thick",
            "clique-as-matching",
            "sunlet-4",
            "thin-spider-with-s1s2",
            "thin-spider-without-q1q2",
            "half-graph-with-u1u2",
            "sunlet-6-two-triangles",
            "thin-spider-order-4",
            "thin-spider-unlabelled",
        ],
    )
    def test_hint_mismatch_rejected(self, g, hint):
        with pytest.raises(ValueError, match="roles"):
            od_polyhedron_system(g, hint)

    def test_unknown_hint_rejected(self):
        with pytest.raises(ValueError, match="unknown family hint"):
            od_polyhedron_system(clique(4), "mystery")

    def test_generic_mirrors_clutter(self):
        from odcodes.families import named_graph

        g = named_graph("p4")
        sys = od_polyhedron_system(g, "generic")
        assert sys.equalities == (0, 3)
        (ineq,) = sys.inequalities
        assert ineq.support == {1, 2} and ineq.rhs == 1

    def test_rank_constraint_validation(self):
        with pytest.raises(ValueError):
            RankConstraint(frozenset({0, 1}), 3)
        with pytest.raises(ValueError):
            RankConstraint(frozenset({0}), 0)
        with pytest.raises(ValueError):
            ConstraintSystem(2, (5,), ())
        with pytest.raises(ValueError, match="inequality support out of range"):
            ConstraintSystem(2, (), (RankConstraint(frozenset({0, 2}), 1),))


FAMILY_CASES = [
    (clique(4), "clique"),
    (clique(5), "clique"),
    (matching(2), "matching"),
    (matching(3), "matching"),
    (fan(3), "fan"),
    (half_graph(3), "half-graph"),
    (half_graph(5), "half-graph"),
    (half_graph(6), "half-graph"),
    (thin_spider(4), "thin-spider"),
    (thick_spider(4), "thick-spider"),
    (extended_thin_spider(4), "extended-thin-spider"),
    (sunlet(5), "sunlet"),
    (almost_complete_thin_sun(3), "almost-complete-thin-sun"),
]


class TestChecks:
    @pytest.mark.parametrize("g,hint", FAMILY_CASES, ids=lambda x: str(x))
    def test_validity_tightness_hull(self, g, hint):
        sys = od_polyhedron_system(g, hint)
        clutter = build_clutter(g, CodeKind.OD)
        assert check_validity(sys, clutter).ok
        tight = check_tightness(sys, clutter)
        assert tight.ok, tight.never_tight
        assert integer_hull_equiv(sys, clutter).ok

    @pytest.mark.parametrize(
        "g,hint", [(g, hint) for g, hint in FAMILY_CASES if g.labels], ids=lambda x: str(x)
    )
    def test_relabelled_member_gets_the_mapped_system(self, g, hint):
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        got = od_polyhedron_system(relabelled(g, perm), hint)
        assert mapped(got, range(g.n)) == mapped(od_polyhedron_system(g, hint), perm)

    def test_forced_equalities_match_clutter(self):
        for g, hint in FAMILY_CASES:
            sys = od_polyhedron_system(g, hint)
            clutter = build_clutter(g, CodeKind.OD)
            assert set(sys.equalities) == set(clutter.f1), hint

    def test_corrupted_rhs_detected(self):
        g = clique(4)
        sys = od_polyhedron_system(g, "clique")
        bumped = list(sys.inequalities)
        c = bumped[0]
        bumped[0] = RankConstraint(c.support, c.rhs + 1, c.source)
        bad = ConstraintSystem(sys.n, sys.equalities, tuple(bumped))
        rep = check_validity(bad, build_clutter(g, CodeKind.OD))
        assert not rep.ok and rep.counterexample is not None

    def test_broken_equation_named(self):
        g = clique(4)
        sys = od_polyhedron_system(g, "clique")
        bad = ConstraintSystem(sys.n, (0,), sys.inequalities)
        rep = check_validity(bad, build_clutter(g, CodeKind.OD))
        assert not rep.ok and rep.counterexample == (frozenset({1, 2, 3}), "x_0 = 1")

    @pytest.mark.parametrize("check", [check_validity, check_tightness, integer_hull_equiv])
    def test_system_and_clutter_sizes_must_agree(self, check):
        with pytest.raises(ValueError, match="system and clutter sizes differ"):
            check(qrose_system(4, 2), qrose_clutter(5, 2))

    def test_deleted_constraint_breaks_hull(self):
        g = thin_spider(4)
        sys = od_polyhedron_system(g, "thin-spider")
        legs = [c for c in sys.inequalities if c.source == "leg cover"]
        reduced = tuple(c for c in sys.inequalities if c is not legs[0])
        rep = integer_hull_equiv(
            ConstraintSystem(sys.n, sys.equalities, reduced),
            build_clutter(g, CodeKind.OD),
        )
        assert not rep.ok and rep.direction == "system-point-not-cover"

    def test_thin_spider_leg_sum_gives_lower_bound(self):
        k = 5
        g = thin_spider(k)
        sys = od_polyhedron_system(g, "thin-spider")
        legs = [c for c in sys.inequalities if c.source == "leg cover"]
        assert sum(c.rhs for c in legs) == k == gamma(g, CodeKind.OD)[0]

    def test_system_minimum_equals_gamma(self):
        for g, hint in FAMILY_CASES:
            if g.n > 14:
                continue
            sys = od_polyhedron_system(g, hint)
            assert minimum_over_system(sys) == gamma(g, CodeKind.OD)[0], hint


@pytest.mark.parametrize(
    "g,hint",
    [(thin_spider(9), "thin-spider"), (half_graph(9), "half-graph")],
    ids=["thin-spider-9", "half-graph-9"],
)
class TestAboveEnumerationLimit:
    """n = 18 > ENUMERATION_LIMIT: validity and tightness see only minimum covers."""

    def test_sampled_checks_pass(self, g, hint):
        assert g.n == 18 > ENUMERATION_LIMIT
        sys = od_polyhedron_system(g, hint)
        clutter = build_clutter(g, CodeKind.OD)
        rep = check_validity(sys, clutter)
        assert rep.ok and not rep.exhaustive
        assert check_tightness(sys, clutter).ok

    def test_raised_rhs_gives_sampled_counterexample(self, g, hint):
        sys = od_polyhedron_system(g, hint)
        c = sys.inequalities[0]
        bumped = RankConstraint(c.support, c.rhs + 1, c.source)
        bad = ConstraintSystem(sys.n, sys.equalities, (bumped,) + sys.inequalities[1:])
        rep = check_validity(bad, build_clutter(g, CodeKind.OD))
        assert not rep.ok and not rep.exhaustive
        cover, broken = rep.counterexample
        assert broken == f"x({sorted(c.support)}) >= {c.rhs + 1}"
        assert len(cover & c.support) == c.rhs

    def test_enumerated_checks_refuse(self, g, hint, monkeypatch):
        sys = od_polyhedron_system(g, hint)
        # refusing must not first enumerate the minimum covers
        monkeypatch.setattr(polyhedra, "min_cover", None)
        with pytest.raises(ValueError, match="only up to n = 16"):
            integer_hull_equiv(sys, build_clutter(g, CodeKind.OD))
        with pytest.raises(ValueError, match="enumeration limit"):
            minimum_over_system(sys)
