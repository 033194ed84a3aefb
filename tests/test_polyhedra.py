import hashlib
import json
import random

import pytest

from odcodes import polyhedra
from odcodes.clutters import Clutter, build_clutter
from odcodes.codes import gamma
from odcodes.cover import qrose_clutter, tau_q_rose
from odcodes.families import (
    FamilySpec,
    almost_complete_thin_sun,
    clique,
    extended_thin_spider,
    fan,
    generate,
    half_graph,
    matching,
    sunlet,
    thick_spider,
    thin_spider,
)
from odcodes.graphs import CodeKind, Graph, bits
from odcodes.polyhedra import (
    ConstraintSystem,
    RankConstraint,
    _minimal_covers,
    check_tightness,
    check_validity,
    integer_hull_equiv,
    od_polyhedron_system,
    qrose_system,
)
from odcodes.reports import polyhedra_cases
from oracles import (
    all_covers,
    minimum_over_system,
    reference_check_tightness,
    reference_check_validity,
    reference_first_violation,
    reference_integer_hull_equiv,
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

    def test_rank_family_bound(self, monkeypatch):
        # counted before any inequality is built: 2^40 - 41 would never finish
        with pytest.raises(ValueError, match="the rose rank family has 1099511627735 inequalities"):
            qrose_system(40, 2)
        with pytest.raises(ValueError, match="the clique rank family has 524268 inequalities"):
            od_polyhedron_system(clique(19), "clique")
        assert tau_q_rose(40, 2) == 39  # the covering number itself stays unbounded
        monkeypatch.setattr(polyhedra, "RANK_FAMILY_MAX", 11)  # qrose 4, 2: 6 + 4 + 1
        assert len(qrose_system(4, 2).inequalities) == 11
        with pytest.raises(ValueError, match="has 26 inequalities, over 11"):
            qrose_system(5, 2)

    def test_largest_system_in_the_repo_is_under_the_bound(self):
        # clique 14, which the benchmark's all-covers workload builds
        assert od_polyhedron_system(clique(14), "clique").size() == (0, 16_369)

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
            (generate(FamilySpec("path", n=4)), "clique"),
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
            "p4-as-clique",
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
            RankConstraint(0b11, 3)
        with pytest.raises(ValueError):
            RankConstraint(0b1, 0)
        with pytest.raises(ValueError):
            ConstraintSystem(2, (5,), ())
        with pytest.raises(ValueError, match="inequality support out of range"):
            ConstraintSystem(2, (), (RankConstraint(0b101, 1),))


ORDER_CASES = list(
    dict.fromkeys(
        polyhedra_cases()
        + [
            (family, FamilySpec(family, k=k))
            for family, ks in (
                ("thin-spider", range(4, 8)),
                ("extended-thin-spider", range(4, 8)),
                ("sunlet", range(5, 8)),
                ("almost-complete-thin-sun", range(3, 5)),
            )
            for k in ks
        ]
    )
)


@pytest.mark.parametrize(
    "hint,spec", ORDER_CASES, ids=[f"{h}-{s.n or s.k}" for h, s in ORDER_CASES]
)
def test_inequalities_sorted_by_size_then_support_without_repeats(hint, spec):
    ineqs = od_polyhedron_system(generate(spec), hint).inequalities
    blocks = [ineqs]
    if hint == "thick-spider":  # its clique-part family, then its stable-part family
        sources = ("clique-part rank", "stable-part rank")
        blocks = [[c for c in ineqs if c.source == s] for s in sources]
        assert [c for block in blocks for c in block] == list(ineqs)
    for block in blocks:
        keys = [(len(c.support), sorted(c.support)) for c in block]
        assert keys == sorted(keys)
    assert len({(c.support, c.rhs) for c in ineqs}) == len(ineqs)


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
        bumped[0] = RankConstraint(c.mask, c.rhs + 1, c.source)
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
    """n = 18, past the 16 vertices where the 2^n scan the checks once made
    stopped and validity and tightness sampled the minimum covers instead.
    The checks are exact at every n now; the test names keep the old words."""

    def test_sampled_checks_pass(self, g, hint):
        assert g.n == 18
        sys = od_polyhedron_system(g, hint)
        clutter = build_clutter(g, CodeKind.OD)
        rep = check_validity(sys, clutter)
        assert rep.ok and rep.exhaustive
        assert check_tightness(sys, clutter).ok

    def test_raised_rhs_gives_sampled_counterexample(self, g, hint):
        sys = od_polyhedron_system(g, hint)
        c = sys.inequalities[0]
        bumped = RankConstraint(c.mask, c.rhs + 1, c.source)
        bad = ConstraintSystem(sys.n, sys.equalities, (bumped,) + sys.inequalities[1:])
        clutter = build_clutter(g, CodeKind.OD)
        rep = check_validity(bad, clutter)
        assert not rep.ok and rep.exhaustive
        cover, broken = rep.counterexample
        assert broken == f"x({sorted(c.support)}) >= {c.rhs + 1}"
        point = sum(1 << v for v in cover)
        assert all(point & m for m in clutter.edges)
        # the cover keeps the original system and breaks only the bumped inequality
        assert reference_first_violation(sys)(point) is None and len(cover & c.support) == c.rhs
        assert reference_first_violation(bad)(point) == bumped

    def test_hull_check_answers(self, g, hint):
        sys = od_polyhedron_system(g, hint)
        clutter = build_clutter(g, CodeKind.OD)
        assert integer_hull_equiv(sys, clutter).ok
        # without its leg or facet x(e) >= 1 the system keeps V - e for that edge e
        edge = next(c for c in sys.inequalities if c.source in ("leg cover", "half-graph facet"))
        rest = tuple(c for c in sys.inequalities if c is not edge)
        rep = integer_hull_equiv(ConstraintSystem(sys.n, sys.equalities, rest), clutter)
        assert not rep.ok and rep.direction == "system-point-not-cover"
        assert rep.witness == frozenset(range(g.n)) - edge.support


def _tau_inside(covers, support_mask):
    """Cover number of the edges inside the support, read off every cover."""
    return min((x & support_mask).bit_count() for x in covers)


def random_case(rng, n):
    """A random edge family on n vertices (not always a clutter) and a system
    over it: its singleton edges as equations, now and then one more, its
    other edges as rhs-1 inequalities or not, and random rank inequalities
    whose rhs is tau(E[S]) or one off it.  So the corpus holds valid and
    invalid, tight and never-tight, hull-equal and hull-different systems."""
    masks = []
    for _ in range(rng.randint(1, 8)):
        m = rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5 else rng.getrandbits(n)
        masks.append(m | 1 << rng.randrange(n))
    clutter = Clutter(n, tuple(masks), tuple((f"e{i}",) for i in range(len(masks))))
    covers = all_covers(n, [[v for v in range(n) if m >> v & 1] for m in masks])
    equalities = {v for m in masks if m.bit_count() == 1 for v in range(n) if m >> v & 1}
    if rng.random() < 0.2:
        equalities.add(rng.randrange(n))
    ineqs = []
    if rng.random() < 0.5:
        ineqs += [RankConstraint(m, 1, "edge") for m in clutter.f2]
    for _ in range(rng.randint(0, 5)):
        support = rng.getrandbits(n) | 1 << rng.randrange(n)
        tau = _tau_inside(covers, support)
        rhs = min(max(1, tau + rng.choice((-1, 0, 0, 1))), support.bit_count())
        ineqs.append(RankConstraint(support, rhs))
    rng.shuffle(ineqs)
    return ConstraintSystem(n, tuple(sorted(equalities)), tuple(ineqs)), clutter


def assert_matches_reference(sys, clutter):
    """The checks agree with the 2^n scan: every ok flag, the validity
    counterexample, the never-tight inequalities and the witness of every
    inequality with tau(E[S]) = rhs.  Other witnesses are real witnesses."""
    covers = all_covers(sys.n, [tuple(bits(m)) for m in clutter.edges])
    assert check_validity(sys, clutter) == reference_check_validity(sys, clutter)

    got, ref = check_tightness(sys, clutter), reference_check_tightness(sys, clutter)
    assert got.ok == ref.ok and got.never_tight == ref.never_tight
    ref_witness = dict(ref.witnesses)
    assert [con for con, _ in got.witnesses] == [con for con, _ in ref.witnesses]
    for con, witness in got.witnesses:
        point = sum(1 << v for v in witness)
        assert point in covers and (point & con.mask).bit_count() == con.rhs
        if _tau_inside(covers, con.mask) == con.rhs:
            assert witness == ref_witness[con]

    hull = integer_hull_equiv(sys, clutter)
    assert hull.ok == reference_integer_hull_equiv(sys, clutter).ok
    if not hull.ok:
        point = sum(1 << v for v in hull.witness)
        is_cover = point in set(covers)
        assert is_cover != (reference_first_violation(sys)(point) is None)
        assert hull.direction == ("cover-outside-system" if is_cover else "system-point-not-cover")


def brute_minimal_covers(n, masks):
    covers = set(all_covers(n, [[v for v in range(n) if m >> v & 1] for m in masks]))
    return sorted(
        x for x in covers if not any(x & ~(1 << v) in covers for v in range(n) if x >> v & 1)
    )


class TestAgainstReferenceScan:
    """The minimal-cover checks against the 2^n scan they replace."""

    def corpus(self):
        rng = random.Random(11)
        sizes = (1, 2, 3) + (4, 5, 6, 7, 8, 9, 10) * 3 + (11, 12)
        return [random_case(rng, rng.choice(sizes)) for _ in range(400)]

    def test_random_systems(self):
        outcomes = set()
        for sys, clutter in self.corpus():
            assert_matches_reference(sys, clutter)
            checks = (check_validity, check_tightness, integer_hull_equiv)
            outcomes.add(tuple(check(sys, clutter).ok for check in checks))
        # the corpus reaches every way a system can pass or fail
        assert {(True, True, True), (False, True, False), (True, False, False), (False, False, False)} <= outcomes

    def test_family_systems(self):
        for g, hint in FAMILY_CASES:
            assert_matches_reference(od_polyhedron_system(g, hint), build_clutter(g, CodeKind.OD))

    def test_minimal_covers_by_brute_force(self):
        for _, clutter in self.corpus():
            assert _minimal_covers(clutter) == brute_minimal_covers(clutter.n, clutter.edges)
        for g, _ in FAMILY_CASES:
            clutter = build_clutter(g, CodeKind.OD)
            assert _minimal_covers(clutter) == brute_minimal_covers(g.n, clutter.edges)

    def test_minimal_covers_edge_cases(self):
        assert _minimal_covers(Clutter(3, (), ())) == [0]  # no edge: the empty set covers
        empty = Clutter(2, (0,), (("e",),))
        assert _minimal_covers(empty) == []  # an empty edge: nothing covers
        assert integer_hull_equiv(ConstraintSystem(2, (), ()), empty).direction == "system-point-not-cover"

    def test_random_systems_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 9))
            masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8))
            clutter = Clutter(n, tuple(masks), tuple((f"e{i}",) for i in range(len(masks))))
            assert _minimal_covers(clutter) == brute_minimal_covers(n, masks)
            covers = all_covers(n, [tuple(bits(m)) for m in clutter.edges])
            equalities = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
            ineqs = []
            for support in data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=5)):
                shift = data.draw(st.integers(-1, 1))
                rhs = min(max(1, _tau_inside(covers, support) + shift), support.bit_count())
                ineqs.append(RankConstraint(support, rhs))
            assert_matches_reference(ConstraintSystem(n, tuple(sorted(equalities)), tuple(ineqs)), clutter)

        check()


def fold_case(rng, n):
    """A random system for the folded point test: chains of nested supports
    at one slack |S| - rhs, now and then the same mask at a second rhs,
    slack-0 inequalities (rhs = |S|), forced equalities, and the whole list
    shuffled, so an inequality often comes before its superset."""
    ineqs = []
    for _ in range(rng.randint(1, 4)):
        top = rng.getrandbits(n) | 1 << rng.randrange(n)
        slack = rng.choice((0, rng.randrange(top.bit_count())))
        for _ in range(rng.randint(0, 3)):
            sub = top & rng.getrandbits(n)
            if sub.bit_count() > slack:
                ineqs.append(RankConstraint(sub, sub.bit_count() - slack))
        ineqs.append(RankConstraint(top, top.bit_count() - slack))
        if rng.random() < 0.4:
            ineqs.append(RankConstraint(top, rng.randint(1, top.bit_count())))
    rng.shuffle(ineqs)
    equalities = {rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2)))}
    return ConstraintSystem(n, tuple(sorted(equalities)), tuple(ineqs))


def fold_disagreements(sys):
    """The 0/1 points at which satisfied_by or first_violation differ from
    the reference scan over every inequality."""
    reference = reference_first_violation(sys)
    out = []
    for x in range(1 << sys.n):
        want = reference(x)
        try:
            got = sys.first_violation(x)
        except AssertionError:
            got = AssertionError
        if got != want or sys.satisfied_by(x) != (want is None):
            out.append(x)
    return out


class TestFoldedPointTest:
    """The point test reads each slack class's maximal supports only."""

    def corpus(self):
        rng = random.Random(32)
        return [fold_case(rng, rng.randint(1, 10)) for _ in range(120)]

    def test_every_point_matches_the_reference_scan(self):
        for sys in self.corpus():
            assert fold_disagreements(sys) == [], sys

    def test_corpus_reaches_every_shape(self):
        shapes = set()
        for sys in self.corpus():
            ineqs = sys.inequalities
            slack = {(c.mask, c.rhs): c.mask.bit_count() - c.rhs for c in ineqs}
            if any(
                slack[a.mask, a.rhs] == slack[b.mask, b.rhs] and a.mask & b.mask == a.mask != b.mask
                for a in ineqs
                for b in ineqs
            ):
                shapes.add("nested supports at one slack")
            if len({c.mask for c in ineqs}) < len(set(slack)):
                shapes.add("one mask at two rhs")
            if 0 in slack.values():
                shapes.add("slack 0")
            if sys.equalities:
                shapes.add("forced equalities")
            reference = reference_first_violation(sys)
            for x in range(1 << sys.n):
                broken = reference(x)
                if isinstance(broken, RankConstraint) and (broken.mask, broken.rhs) not in sys._maximal:
                    shapes.add("first violation dropped by the fold")
                    break
        assert shapes == {
            "nested supports at one slack",
            "one mask at two rhs",
            "slack 0",
            "forced equalities",
            "first violation dropped by the fold",
        }

    def test_rank_family_folds_to_its_top(self):
        sys = od_polyhedron_system(clique(14), "clique")
        assert len(sys.inequalities) == 16_369 and sys._maximal == (((1 << 14) - 1, 13),)
        generic = od_polyhedron_system(sunlet(6), "generic")
        assert sorted(generic._maximal) == sorted((c.mask, c.rhs) for c in generic.inequalities)

    def test_fold_changes_no_field(self):
        sys = od_polyhedron_system(clique(5), "clique")
        before = (repr(sys), sys.size(), hash(sys))
        assert sys.satisfied_by(0b11110) and not sys.satisfied_by(0b11100)
        assert (repr(sys), sys.size(), hash(sys)) == before
        assert sys == od_polyhedron_system(clique(5), "clique")

    def test_dropping_one_kept_pair_is_caught(self, monkeypatch):
        # planted fault: the fold loses its first kept (mask, rhs) pair
        fold = ConstraintSystem.__dict__["_maximal"].func
        monkeypatch.setattr(ConstraintSystem, "_maximal", property(lambda sys: fold(sys)[1:]))
        corpus = self.corpus()
        caught = [sys for sys in corpus if fold_disagreements(sys)]
        assert len(caught) > len(corpus) // 2


def _checks_digest(sys, clutter):
    validity = check_validity(sys, clutter)
    hull = integer_hull_equiv(sys, clutter)
    tight = check_tightness(sys, clutter)
    obj = {
        "validity": [validity.ok, validity.exhaustive, validity.counterexample],
        "hull": [hull.ok, sorted(hull.witness) if hull.witness else None, hull.direction],
        "tightness": [
            tight.ok,
            len(tight.never_tight),
            [[sorted(con.support), con.rhs, sorted(w)] for con, w in tight.witnesses],
        ],
    }
    return len(tight.witnesses), hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_largest_benchmark_system_pinned():
    # clique 14 is the all-covers workload's largest system; the digest was
    # recorded before the point test folded the rank family
    g = clique(14)
    sys, clutter = od_polyhedron_system(g, "clique"), build_clutter(g, CodeKind.OD)
    assert _checks_digest(sys, clutter) == (
        16_369,
        "d46fb4717dc39eff6c3fc6ade5b4c4d7ecc11508ecf03434b72491cae1018d79",
    )
