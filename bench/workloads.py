"""The benchmark's four workloads and the checks on their outputs.

A workload is a fixed list of items, one *pass*.  An item pairs the library
calls that are timed with a check of their outputs; the check runs outside
the timed region and returns a list of problems (empty when the output is
right).  The seed only chooses the vertex relabelling of every graph, drawn
afresh for each pass, so every pass does the same work up to relabelling,
and the library receives nothing but the relabelled graphs.

References come from three independent places: ``references.json`` (written
and cross-checked by ``record.py``), ``predicted_gamma`` for the family
closed forms, and the paper's SLSAT size identities.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("sparse-search", "family-forms", "slsat-sweep", "all-covers")

# sparse-search: branch and bound does nearly all the work.  Node counts grow
# fast with n on cycles and paths, whose symmetry makes the search depend on
# the labelling; the random pool is most of the items, because its search
# cost barely moves under relabelling, which keeps the percentiles steady.
SPARSE_CYCLES = (32, 36)
SPARSE_PATHS = (36, 40)
SPARSE_KINDS = ("OD", "OTD")
# (name, n, p, kinds); record.py draws each graph with random_od_admissible
# and stores its edges, so the pool does not depend on the generator staying put
SPARSE_POOL = tuple(
    (f"sparse-r{n}{tag}", n, p, ("OD", "OTD", "LD", "ID"))
    for n in (26, 28, 30)
    for tag, p in (("a", 0.3), ("b", 0.5), ("c", 0.7))
)

# family-forms: large members whose search visits about n nodes, so building
# and reducing the clutter is about half of each solve.
FAMILY_SPECS = (
    ("thin-spider", {"k": 24}),
    ("thin-spider", {"k": 32}),
    ("thin-spider", {"k": 40}),
    ("extended-thin-spider", {"k": 24}),
    ("extended-thin-spider", {"k": 32}),
    ("extended-thin-spider", {"k": 39}),
    ("sunlet", {"k": 24}),
    ("sunlet", {"k": 32}),
    ("sunlet", {"k": 40}),
    ("half-graph", {"k": 24}),
    ("half-graph", {"k": 32}),
    ("half-graph", {"k": 40}),
    ("fan", {"k": 16}),
    ("fan", {"k": 24}),
    ("clique", {"n": 32}),
    ("clique", {"n": 48}),
    ("matching", {"k": 16}),
    ("matching", {"k": 24}),
)

# slsat-sweep: two exhaustive SLSAT sweeps, (variables, clauses) at most (3, 6)
# and (4, 5), 48 + 49 instances, each run through the criterion-6 pipeline.
# Both are parts of the 221-instance criterion-6 sweep (4, 6), which takes
# about 30 s per pass, longer than one run may take; record.py checks its
# count once.
SLSAT_SWEEPS = ((3, 6), (4, 5))

# all-covers: enumerate-all mode of the cover search, and the 0/1 point walks
# of the polyhedra layer.  The cap is far above every optimum count.
COVERS_CYCLES = (24, 26, 28, 30, 32)
COVERS_CYCLE_KINDS = ("OD", "OTD", "LD")
COVERS_POOL = tuple(
    (f"covers-r{n}{tag}", n, p, kind)
    for n in (12, 14, 16, 18, 20)
    for tag, p in (("a", 0.3), ("b", 0.5), ("c", 0.7))
    for kind in ("OD", "LD")
)
COVERS_CAP = 100_000
POLY_CASES = (
    ("thin-spider", {"k": 7}),
    ("thick-spider", {"k": 7}),
    ("extended-thin-spider", {"k": 7}),
    ("sunlet", {"k": 7}),
    ("almost-complete-thin-sun", {"k": 4}),
    ("half-graph", {"k": 8}),
    ("clique", {"n": 14}),
)

END = object()  # returned by an item's run() when its pass is exhausted


class Item:
    """One checked unit: ``run()`` is timed, ``check(output)`` is not."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """A workload set up for one seed; ``pass_items(i)`` gives pass i."""

    def __init__(self, name, seed, make_pass):
        self.name = name
        self.seed = seed
        self.make_pass = make_pass
        self.first = make_pass(self.rng(0))

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def pass_items(self, index: int):
        if index == 0 and self.first is not None:
            first, self.first = self.first, None
            return iter(first)
        return iter(self.make_pass(self.rng(index)))


# -- set-up ------------------------------------------------------------------------


def import_odcodes(fresh: bool):
    """Import the library from the checkout's ``src``; with fresh, drop any
    copy already imported so that the import cost is paid again."""
    if not (SRC_DIR / "odcodes" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    if fresh:
        for name in [m for m in sys.modules if m == "odcodes" or m.startswith("odcodes.")]:
            del sys.modules[name]
    return importlib.import_module("odcodes")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def setup(name: str, seed: int, fresh_import: bool = True) -> Workload:
    """Import the library, load the references, generate the graphs and
    relabel them for the first pass."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    od = import_odcodes(fresh_import)
    refs = load_references()
    build = {
        "sparse-search": _sparse_search,
        "family-forms": _family_forms,
        "slsat-sweep": _slsat_sweep,
        "all-covers": _all_covers,
    }[name]
    return Workload(name, seed, build(od, refs))


def relabel(od, g, rng):
    """A copy of g with vertices (and their role labels) permuted; returns the
    copy and perm, where canonical vertex v became perm[v]."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = {perm[v]: lab for v, lab in g.labels.items()}
    return od.Graph.from_edges(g.n, edges, labels), perm


def canonical_digest(sets) -> str:
    """Order-free fingerprint of a family of vertex sets."""
    blob = json.dumps(sorted(sorted(s) for s in sets), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pool_graph(od, entry):
    return od.Graph.from_edges(entry["n"], [tuple(e) for e in entry["edges"]])


# -- output checks -----------------------------------------------------------------


def check_code(od, g, kind, value, witness, expected) -> list[str]:
    """A solve is right when the value matches the reference and the witness
    is a code of exactly that size."""
    problems = []
    if value != expected:
        problems.append(f"value {value} != reference {expected}")
    if len(witness) != value:
        problems.append(f"witness size {len(witness)} != value {value}")
    if not od.verify(g, witness, kind).valid:
        problems.append("witness fails verify")
    return problems


def check_optima(od, g, kind, result, perm, ref) -> list[str]:
    """All optima, mapped back to canonical labels, must equal the reference
    set exactly, and each must be a code of the optimum size."""
    value, optima, truncated = result
    problems = []
    if truncated:
        problems.append("enumeration truncated")
    if value != ref["value"]:
        problems.append(f"value {value} != reference {ref['value']}")
    if len(optima) != ref["optima"]:
        problems.append(f"{len(optima)} optima != reference {ref['optima']}")
    inverse = {p: v for v, p in enumerate(perm)}
    if canonical_digest([inverse[x] for x in s] for s in optima) != ref["digest"]:
        problems.append("optimum set differs from the reference set")
    bad = sum(1 for s in optima if len(s) != value or not od.verify(g, s, kind).valid)
    if bad:
        problems.append(f"{bad} listed optima are not codes of size {value}")
    return problems


# -- sparse-search -----------------------------------------------------------------


def _solve_item(od, label, g, kind, expected):
    ck = od.CodeKind(kind)
    return Item(
        label,
        lambda: od.gamma(g, ck),
        lambda out: check_code(od, g, ck, out[0], out[1], expected),
    )


def _sparse_search(od, refs):
    values = refs["sparse-search"]["values"]
    pool = refs["sparse-search"]["pool"]
    graphs = [(f"cycle-{n}", od.families.cycle_graph(n), SPARSE_KINDS) for n in SPARSE_CYCLES]
    graphs += [(f"path-{n}", od.families.path_graph(n), SPARSE_KINDS) for n in SPARSE_PATHS]
    graphs += [(name, pool_graph(od, pool[name]), kinds) for name, _n, _p, kinds in SPARSE_POOL]

    def make_pass(rng):
        items = []
        for name, g0, kinds in graphs:
            g, _ = relabel(od, g0, rng)
            for kind in kinds:
                key = f"{name}/{kind}"
                items.append(_solve_item(od, key, g, kind, values[key]))
        return items

    return make_pass


# -- family-forms ------------------------------------------------------------------


def _family_forms(od, refs):
    members = []
    for family, params in FAMILY_SPECS:
        spec = od.FamilySpec(family, **params)
        members.append((f"{family}-{next(iter(params.values()))}", od.generate(spec), od.predicted_gamma(spec)))
    if not any(preds for _, _, preds in members):
        raise AssertionError("no family member has a predicted value")

    def make_pass(rng):
        items = []
        for label, g0, preds in members:
            g, _ = relabel(od, g0, rng)
            for pred in preds:
                items.append(_solve_item(od, f"{label}/{pred.kind.value}", g, pred.kind.value, pred.value))
        return items

    return make_pass


# -- slsat-sweep -------------------------------------------------------------------


def _slsat_sweep(od, refs):
    # the sweeps are exhaustive, so the seed has nothing to choose
    expected_od_size = od.sat_reduction.expected_od_size
    expected_otd_size = od.sat_reduction.expected_otd_size
    format_lsat = od.sat_reduction.format_lsat
    tables = {tuple(t["sweep"]): t["instances"] for t in refs["slsat-sweep"]}
    if tuple(tables) != SLSAT_SWEEPS:
        raise ValueError("reference tables were recorded for other sweeps")
    OD, OTD = od.CodeKind.OD, od.CodeKind.OTD

    def make_pass(rng):
        for sweep, instances in tables.items():
            it = od.enumerate_slsat(*sweep)
            # one item more than the reference holds: it must find the sweep ended
            for index in range(len(instances) + 1):
                yield Item(
                    f"slsat{sweep}#{index}",
                    lambda it=it: run(it),
                    lambda out, i=index, instances=instances: check(instances, i, out),
                )

    def run(it):
        try:
            inst = next(it)
        except StopIteration:
            return END
        gg = od.build_gadget(inst)
        model = od.brute_force_sat(inst)
        od_val, od_code = od.gamma(gg.graph, OD)
        otd_val, otd_code = od.gamma(gg.graph, OTD)
        out = {"inst": inst, "gg": gg, "model": model, "od": (od_val, od_code), "otd": (otd_val, otd_code)}
        if model is not None:
            out["code"] = od.assignment_to_code(gg, model)
            out["code_t"] = od.assignment_to_code(gg, model, total=True)
            out["decoded"] = od.code_to_assignment(gg, od_code)
            out["round_trip"] = od.code_to_assignment(gg, out["code"])
        return out

    def check(instances, index, out):
        if out is END:
            return [] if index == len(instances) else [f"sweep ended after {index} of {len(instances)} instances"]
        if index >= len(instances):
            return [f"sweep yields more than {len(instances)} instances"]
        ref_i = instances[index]
        inst, gg, model = out["inst"], out["gg"], out["model"]
        g = gg.graph
        problems = []
        if format_lsat(inst) != ref_i["lsat"]:
            problems.append("instance differs from the reference sweep")
        if (model is not None) != ref_i["sat"]:
            problems.append(f"satisfiable={model is not None}, reference {ref_i['sat']}")
        problems += check_code(od, g, OD, *out["od"], ref_i["od"])
        problems += check_code(od, g, OTD, *out["otd"], ref_i["otd"])
        exp_od, exp_otd = expected_od_size(gg), expected_otd_size(gg)
        if model is not None:
            if not inst.evaluate(model):
                problems.append("brute-force model does not satisfy the instance")
            if (out["od"][0], out["otd"][0]) != (exp_od, exp_otd):
                problems.append("satisfiable instance misses the gadget sizes")
            if not od.verify(g, out["code"], OD).valid or not od.verify(g, out["code_t"], OTD).valid:
                problems.append("code built from the model fails verify")
            if not inst.evaluate(out["decoded"]) or not inst.evaluate(out["round_trip"]):
                problems.append("decoded assignment does not satisfy the instance")
        elif out["od"][0] < exp_od + 1 or out["otd"][0] < exp_otd + 1:
            problems.append("unsatisfiable instance within the gadget sizes")
        return problems

    return make_pass


# -- all-covers --------------------------------------------------------------------


def _all_covers(od, refs):
    ref = refs["all-covers"]
    graphs = [(f"cycle-{n}", od.families.cycle_graph(n), COVERS_CYCLE_KINDS) for n in COVERS_CYCLES]
    pool = {}
    for name, _n, _p, kind in COVERS_POOL:
        pool.setdefault(name, []).append(kind)
    graphs += [(name, pool_graph(od, ref["pool"][name]), kinds) for name, kinds in pool.items()]
    members = [(f"{hint}-{next(iter(params.values()))}", hint, od.generate(od.FamilySpec(hint, **params)))
               for hint, params in POLY_CASES]

    def make_pass(rng):
        items = []
        for name, g0, kinds in graphs:
            g, perm = relabel(od, g0, rng)
            for kind in kinds:
                key = f"{name}/{kind}"
                items.append(_optima_item(od, key, g, kind, perm, ref["optima"][key]))
        for key, hint, g0 in members:
            g, _ = relabel(od, g0, rng)
            items.append(_polyhedron_item(od, key, g, hint, ref["polyhedra"][key]))
        return items

    return make_pass


def _optima_item(od, label, g, kind, perm, ref):
    ck = od.CodeKind(kind)
    return Item(
        label,
        lambda: od.gamma_all_optima(g, ck, cap=COVERS_CAP),
        lambda out: check_optima(od, g, ck, out, perm, ref),
    )


def _polyhedron_item(od, label, g, hint, ref):
    def run():
        system = od.od_polyhedron_system(g, hint)
        clutter = od.build_clutter(g, od.CodeKind.OD)
        return (
            system,
            od.check_validity(system, clutter),
            od.check_tightness(system, clutter),
            od.integer_hull_equiv(system, clutter),
        )

    def check(out):
        system, validity, tightness, hull = out
        problems = []
        if list(system.size()) != ref["size"]:
            problems.append(f"system size {system.size()} != reference {ref['size']}")
        if not (validity.ok and validity.exhaustive):
            problems.append(f"validity fails: {validity.counterexample}")
        if not tightness.ok:
            problems.append(f"{len(tightness.never_tight)} inequalities never tight")
        if not hull.ok:
            problems.append(f"0/1 hull differs: {hull.direction}")
        return problems

    return Item(label, run, check)
