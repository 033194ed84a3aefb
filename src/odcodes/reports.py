"""Recomputable result tables: every published value the suite is held to.

Each report_* function recomputes one family of claims from scratch and
returns the per-row outcomes, so the same tables back both the command line
``paper-report`` command and the acceptance tests.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .clutters import build_clutter
from .codes import brute_force_gamma, gamma, gamma_all_optima, verify
from .cover import min_cover, qrose_clutter, tau_q_rose
from .families import (
    FamilySpec,
    generate,
    named_graph,
    predicted_gamma,
    random_od_admissible,
)
from .graphs import (
    CodeKind,
    Graph,
    disjoint_union,
    girth,
    is_admissible,
    is_bipartite,
    max_degree,
)
from .polyhedra import check_tightness, check_validity, integer_hull_equiv, od_polyhedron_system
from .sat_reduction import (
    GadgetGraph,
    assignment_to_code,
    auxiliary_graph,
    brute_force_sat,
    build_gadget,
    code_to_assignment,
    enumerate_slsat,
    expected_od_size,
    expected_otd_size,
)

DEFAULT_SEED = 20240601


@dataclass(frozen=True)
class ReportRow:
    label: str
    expected: str
    actual: str
    ok: bool


@dataclass(frozen=True)
class Report:
    title: str
    rows: tuple[ReportRow, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        """Every row passed, and there was at least one: a report that
        checked nothing does not pass."""
        return bool(self.rows) and all(r.ok for r in self.rows)

    @property
    def failures(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if not r.ok)


class _Rows:
    def __init__(self):
        self.rows: list[ReportRow] = []

    def add(self, label: str, expected, actual) -> None:
        self.rows.append(ReportRow(label, str(expected), str(actual), expected == actual))

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.rows.append(ReportRow(label, "ok", "ok" if ok else detail or "FAIL", ok))

    def finish(self, title: str, t0: float) -> Report:
        return Report(title, tuple(self.rows), time.perf_counter() - t0)


# -- criterion 1: the worked 4-path example ------------------------------------------


def report_p4_example() -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    g = generate(FamilySpec("path", n=4))
    c = build_clutter(g, CodeKind.OD)
    rows.add("clutter edges", [{0}, {3}, {1, 2}], [set(e.vertices()) for e in c.edges])
    rows.add("forced vertices", {0, 3}, set(c.f1))
    rows.add("multi-vertex edges", [{1, 2}], [set(e.vertices()) for e in c.f2])
    rows.add("irrelevant vertices", set(), set(c.v0))
    rows.add("gamma_OD via covering", 3, gamma(g, CodeKind.OD)[0])
    rows.add("gamma_OD via brute force", 3, brute_force_gamma(g, CodeKind.OD)[0])
    return rows.finish("4-path worked example", t0)


# -- criterion 2: the comparison table ------------------------------------------------

TABLE1 = ("gem", "gem-complement", "bull", "bow", "2p2", "p4")


def report_table1() -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    for name in TABLE1:
        g = named_graph(name)
        for pred in predicted_gamma(FamilySpec("named", name=name)):
            kind = pred.kind
            rows.add(f"{name} gamma_{kind.value} (covering)", pred.value, gamma(g, kind)[0])
            rows.add(
                f"{name} gamma_{kind.value} (brute force)",
                pred.value,
                brute_force_gamma(g, kind)[0],
            )
    return rows.finish("small-graph comparison table", t0)


# -- criterion 3: family formulas ------------------------------------------------------


def _partitions(max_total: int, min_parts: int, min_part: int = 2):
    """Sorted part tuples with every part >= min_part and sum <= max_total."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], low: int, total: int) -> None:
        if len(prefix) >= min_parts:
            out.append(tuple(prefix))
        for part in range(low, max_total - total + 1):
            prefix.append(part)
            rec(prefix, part, total + part)
            prefix.pop()

    rec([], min_part, 0)
    return out


def family_specs(max_n: int = 18) -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    specs += [FamilySpec("clique", n=n) for n in range(2, max_n + 1)]
    specs += [FamilySpec("matching", k=k) for k in range(1, max_n // 2 + 1)]
    specs += [FamilySpec("union-of-cliques", sizes=s) for s in _partitions(max_n, 2)]
    specs += [
        FamilySpec("clique-star", sizes=s) for s in _partitions(max_n - 1, 2)
    ]
    specs += [
        FamilySpec("clique-star", sizes=(1,) + s) for s in _partitions(max_n - 2, 1)
    ]
    specs += [FamilySpec("fan", k=k) for k in range(2, (max_n - 1) // 2 + 1)]
    specs += [FamilySpec("half-graph", k=k) for k in range(1, max_n // 2 + 1)]
    specs += [FamilySpec("double-star", k=k) for k in range(2, (max_n - 1) // 2 + 1)]
    specs += [FamilySpec("thin-spider", k=k) for k in range(3, max_n // 2 + 1)]
    specs += [FamilySpec("thick-spider", k=k) for k in range(3, max_n // 2 + 1)]
    specs += [
        FamilySpec("extended-thin-spider", k=k) for k in range(4, (max_n - 1) // 2 + 1)
    ]
    specs += [FamilySpec("sunlet", k=k) for k in range(5, max_n // 2 + 1)]
    specs += [FamilySpec("almost-complete-thin-sun", k=l) for l in range(3, max_n // 4 + 1)]
    return specs


def report_families(max_n: int = 18) -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    for spec in family_specs(max_n):
        preds = predicted_gamma(spec)
        if not preds:
            continue
        g = generate(spec)
        label = spec.family + (
            f" n={spec.n}" if spec.n else f" k={spec.k}" if spec.k else f" sizes={list(spec.sizes)}"
        )
        for pred in preds:
            rows.add(f"{label} gamma_{pred.kind.value}", pred.value, gamma(g, pred.kind)[0])
    return rows.finish(f"family formulas up to n = {max_n}", t0)


# -- criterion 4: clutter shapes -------------------------------------------------------


def report_clutter_shapes() -> Report:
    t0 = time.perf_counter()
    rows = _Rows()

    for n in range(2, 9):
        c = build_clutter(generate(FamilySpec("clique", n=n)), CodeKind.OD)
        rows.add(
            f"clique n={n}: clutter is the complete 2-rose",
            [set(p) for p in combinations(range(n), 2)],
            [set(e.vertices()) for e in c.edges],
        )

    for k in range(4, 8):
        g = generate(FamilySpec("thin-spider", k=k))
        c = build_clutter(g, CodeKind.OD)
        expected = [{i, k + i} for i in range(k)]
        expected += [set(p) for p in combinations(range(k), 2)]
        rows.add(
            f"thin spider k={k}: clutter equals the spider itself",
            sorted(map(sorted, expected)),
            sorted(map(sorted, (set(e.vertices()) for e in c.edges))),
        )

    for k in range(1, 7):
        g = generate(FamilySpec("half-graph", k=k))
        c = build_clutter(g, CodeKind.OD)
        rows.add(
            f"half-graph k={k}: forced all but the corner pair",
            (2 * k - 2, [{0, 2 * k - 1}]),
            (len(c.f1), [set(e.vertices()) for e in c.f2]),
        )
        c_t = build_clutter(g, CodeKind.OTD)
        rows.add(
            f"half-graph k={k}: total-domination forces everything",
            (2 * k, 0),
            (len(c_t.f1), len(c_t.f2)),
        )

    for k in range(3, 8):
        g = generate(FamilySpec("thick-spider", k=k))
        c = build_clutter(g, CodeKind.OD)
        stable = list(range(k, 2 * k))
        expected = [set(p) for p in combinations(range(k), 2)]
        expected += [set(p) for p in combinations(stable, k - 1)]
        rows.add(
            f"thick spider k={k}: (k-1)-rose on S plus 2-rose on Q",
            sorted(map(sorted, expected)),
            sorted(map(sorted, (set(e.vertices()) for e in c.edges))),
        )

    for k in range(3, 9):
        g = generate(FamilySpec("extended-thin-spider", k=k))
        c = build_clutter(g, CodeKind.OD)
        s_k = 2 * k  # layout: q1..qk, s0, s1..sk
        rows.add(f"extended spider k={k}: pendant of the last leg is forced", True, s_k in c.f1)
        if k >= 4:
            rows.add(f"extended spider k={k}: s0 is irrelevant", {k}, set(c.v0))
    return rows.finish("clutter shapes", t0)


# -- criterion 5: randomized bounds and relations --------------------------------------


def report_bounds_random(samples: int = 200, seed: int = DEFAULT_SEED) -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    rng = random.Random(seed)
    log_ok = upper_ok = gap_ok = ld_ok = ltd_ok = remark_ok = 0
    for i in range(samples):
        n = 4 + i % 7  # 4..10
        p = (0.3, 0.5, 0.7)[i % 3]
        g = random_od_admissible(n, p, rng)
        od, optima, _ = gamma_all_optima(g, CodeKind.OD, cap=500)
        otd, _ = gamma(g, CodeKind.OTD)
        ld, _ = gamma(g, CodeKind.LD)
        ltd, _ = gamma(g, CodeKind.LTD)
        log_ok += math.ceil(math.log2(n)) <= od
        upper_ok += od <= n - 1
        gap_ok += otd - od in (0, 1)
        ld_ok += ld <= od
        ltd_ok += ltd - 1 <= od
        remark_ok += all(
            sum(1 for v in range(n) if not g.adj[v] & sum(1 << c for c in code)) <= 1
            for code in optima
        )
    rows.add(f"log lower bound on {samples} samples", samples, log_ok)
    rows.add(f"order upper bound on {samples} samples", samples, upper_ok)
    rows.add("total-domination gap in {0,1}", samples, gap_ok)
    rows.add("locating-domination lower bound", samples, ld_ok)
    rows.add("locating-total-domination lower bound", samples, ltd_ok)
    rows.add("at most one open-undominated vertex per optimal code", samples, remark_ok)
    return rows.finish(f"randomized bounds ({samples} graphs, seed {seed})", t0)


# -- criterion 6: SAT equivalence -------------------------------------------------------


@dataclass(frozen=True)
class SatCheck:
    """Criterion 6 on one saturated instance: its model (None when
    unsatisfiable), its gadget's two code numbers, and the outcome of each
    check, True where a check does not apply."""

    model: dict[int, bool] | None
    od: int
    otd: int
    sizes_ok: bool  # satisfiable: both numbers on target; unsatisfiable: both above
    codes_ok: bool  # the OD and OTD codes built from the model verify
    decoded: dict[int, bool] | None  # the OD witness read back as an assignment
    decoded_ok: bool


def check_sat_instance(gg: GadgetGraph) -> SatCheck:
    """Decide the gadget's instance by brute force and hold both code
    numbers and both constructed codes of the gadget to the equivalence."""
    inst, g = gg.instance, gg.graph
    model = brute_force_sat(inst)
    od, od_witness = gamma(g, CodeKind.OD)
    otd, _ = gamma(g, CodeKind.OTD)
    od_target, otd_target = expected_od_size(gg), expected_otd_size(gg)
    if model is None:
        return SatCheck(None, od, otd, od > od_target and otd > otd_target, True, None, True)
    codes_ok = all(
        verify(g, assignment_to_code(gg, model, total), kind).valid
        for total, kind in ((False, CodeKind.OD), (True, CodeKind.OTD))
    )
    decoded = code_to_assignment(gg, od_witness)
    on_target = od == od_target and otd == otd_target
    return SatCheck(model, od, otd, on_target, codes_ok, decoded, inst.evaluate(decoded))


def report_sat_equivalence(max_vars: int = 4, max_clauses: int = 6) -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    total = sat_count = 0
    for inst in enumerate_slsat(max_vars, max_clauses):
        total += 1
        tag = f"n={inst.n_vars} m={inst.n_clauses} #{total}"
        gg = build_gadget(inst)
        for name, g, degree in (("gadget", gg.graph, 4), ("auxiliary", auxiliary_graph(inst), 3)):
            if not (is_bipartite(g)[0] and max_degree(g) <= degree and girth(g) >= 6):
                rows.check(f"{tag}: {name} structure", False, "bipartite/degree/girth violated")
        res = check_sat_instance(gg)
        satisfiable = res.model is not None
        sat_count += satisfiable
        sizes = "satisfiable sizes" if satisfiable else "unsatisfiable sizes exceed bounds"
        for label, ok, detail in (
            (sizes, res.sizes_ok, f"od={res.od} otd={res.otd}"),
            ("constructed codes verify", res.codes_ok, "invalid code"),
            ("decoded assignment satisfies", res.decoded_ok, str(res.decoded)),
        ):
            if not ok:
                rows.check(f"{tag}: {label}", False, detail)
    rows.check(
        f"equivalence holds on all {total} instances ({sat_count} satisfiable)",
        total > 0,
    )
    return rows.finish(f"SAT equivalence (vars <= {max_vars}, clauses <= {max_clauses})", t0)


# -- criterion 7: q-rose covering numbers -------------------------------------------------


def report_qrose(max_n: int = 8) -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    for n in range(3, max_n + 1):
        for q in range(2, n):
            rows.add(
                f"tau of the complete {q}-rose of order {n}",
                tau_q_rose(n, q),
                min_cover(qrose_clutter(n, q)).value,
            )
    return rows.finish(f"q-rose covering numbers up to n = {max_n}", t0)


# -- criterion 8: polyhedral systems -----------------------------------------------------


def polyhedra_cases() -> list[tuple[str, FamilySpec]]:
    cases: list[tuple[str, FamilySpec]] = []
    cases += [("clique", FamilySpec("clique", n=n)) for n in range(2, 6)]
    cases += [("matching", FamilySpec("matching", k=k)) for k in range(1, 4)]
    cases += [("half-graph", FamilySpec("half-graph", k=k)) for k in range(1, 6)]
    cases += [
        ("thin-spider", FamilySpec("thin-spider", k=4)),
        ("thick-spider", FamilySpec("thick-spider", k=4)),
        ("extended-thin-spider", FamilySpec("extended-thin-spider", k=4)),
        ("sunlet", FamilySpec("sunlet", k=5)),
        ("almost-complete-thin-sun", FamilySpec("almost-complete-thin-sun", k=3)),
    ]
    return cases


def report_polyhedra() -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    for hint, spec in polyhedra_cases():
        g = generate(spec)
        label = hint + (f" n={spec.n}" if spec.n else f" k={spec.k}")
        sys = od_polyhedron_system(g, hint)
        clutter = build_clutter(g, CodeKind.OD)
        validity = check_validity(sys, clutter)
        rows.check(f"{label}: system valid over all covers", validity.ok, str(validity.counterexample))
        tight = check_tightness(sys, clutter)
        rows.check(
            f"{label}: every inequality tight at some cover",
            tight.ok,
            f"{len(tight.never_tight)} never tight",
        )
        hull = integer_hull_equiv(sys, clutter)
        rows.check(f"{label}: 0/1 points match covers exactly", hull.ok, hull.direction)
    return rows.finish("polyhedral systems", t0)


# -- criterion 9: oracle equivalence -------------------------------------------------------


def oracle_corpus() -> list[tuple[str, Graph]]:
    """Fixed small-graph corpus: named graphs, family members, seeded randoms."""
    corpus: list[tuple[str, Graph]] = []
    for name in ("gem", "gem-complement", "bull", "bow", "net", "sun", "2p2", "p4", "p5"):
        corpus.append((name, named_graph(name)))
    for n in range(1, 6):
        corpus.append((f"K{n}", generate(FamilySpec("clique", n=n))))
    for n in (3, 5, 6, 7):
        corpus.append((f"P{n}", generate(FamilySpec("path", n=n))))
    for n in (4, 5, 6, 7):
        corpus.append((f"C{n}", generate(FamilySpec("cycle", n=n))))
    corpus += [
        ("matching3", generate(FamilySpec("matching", k=3))),
        ("half-graph2", generate(FamilySpec("half-graph", k=2))),
        ("half-graph3", generate(FamilySpec("half-graph", k=3))),
        ("double-star3", generate(FamilySpec("double-star", k=3))),
        ("thin-spider4", generate(FamilySpec("thin-spider", k=4))),
        ("thick-spider4", generate(FamilySpec("thick-spider", k=4))),
        ("ext-spider3", generate(FamilySpec("extended-thin-spider", k=3))),
        ("ext-spider4", generate(FamilySpec("extended-thin-spider", k=4))),
        ("sunlet4", generate(FamilySpec("sunlet", k=4))),
        ("sunlet5", generate(FamilySpec("sunlet", k=5))),
        ("one-chord-sun4", generate(FamilySpec("thin-sun", k=4, chords=((1, 3),)))),
        ("almost-complete3", generate(FamilySpec("almost-complete-thin-sun", k=3))),
        ("fan2", generate(FamilySpec("fan", k=2))),
        ("clique-star-1-2-2", generate(FamilySpec("clique-star", sizes=(1, 2, 2)))),
        ("union-2-3", generate(FamilySpec("union-of-cliques", sizes=(2, 3)))),
        ("half-graph2+K1", disjoint_union(generate(FamilySpec("half-graph", k=2)), Graph.from_edges(1, []))),
        ("star4", Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
    ]
    rng = random.Random(DEFAULT_SEED)
    for i in range(6):
        n = rng.randint(5, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        corpus.append((f"random{i} n={n}", Graph.from_edges(n, edges)))
    return corpus


def report_oracle_equivalence() -> Report:
    t0 = time.perf_counter()
    rows = _Rows()
    pairs = 0
    for label, g in oracle_corpus():
        if g.n > 12:
            continue
        for kind in CodeKind:
            if not is_admissible(g, kind).ok:
                continue
            pairs += 1
            rows.add(
                f"{label} gamma_{kind.value}",
                brute_force_gamma(g, kind)[0],
                gamma(g, kind)[0],
            )
    rows.check(f"compared {pairs} graph/kind pairs", pairs > 100)
    return rows.finish("covering pipeline vs subset-scan oracle", t0)


REPORT_SECTIONS = {
    "p4": report_p4_example,
    "table1": report_table1,
    "families": report_families,
    "clutters": report_clutter_shapes,
    "bounds": report_bounds_random,
    "sat": report_sat_equivalence,
    "qrose": report_qrose,
    "polyhedra": report_polyhedra,
    "oracle": report_oracle_equivalence,
}
