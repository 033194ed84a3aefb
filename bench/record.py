"""Record the benchmark's reference tables and cross-check them once.

    python3 bench/record.py            # write bench/references.json
    python3 bench/record.py --check    # recompute and compare, write nothing

Values come from the library on the canonical (unrelabelled) graphs and are
then checked on a second route that shares no code with the solver:

* n <= 20: ``brute_force_gamma`` for the value, and for optimum sets an
  exhaustive scan of every vertex set of the optimum size;
* n > 20: scipy's HiGHS ``milp`` on a covering model built here straight from
  the code definitions (skipped, and said so, when scipy does not import),
  and for optimum sets a vertex-order search written here, with its own
  bound, that lists every code of the optimum size.

It also checks that the criterion-6 sweep (4 variables, 6 clauses) still
yields 221 instances; the benchmark's two sweeps are parts of it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import combinations

import workloads as W

DOMINATION = {"OD": "closed", "OTD": "open", "ID": "closed", "ITD": "open", "LD": "closed", "LTD": "open"}
SEPARATION = {"OD": "open", "OTD": "open", "ID": "closed", "ITD": "closed", "LD": "locating", "LTD": "locating"}


# -- an independent covering model -------------------------------------------------------


def code_constraints(n: int, edges, kind: str) -> list[int]:
    """Bitmasks S such that C is a code of the kind iff C meets every S."""
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    closed = [nb[v] | 1 << v for v in range(n)]
    out = list(closed if DOMINATION[kind] == "closed" else nb)
    for u in range(n):
        for v in range(u + 1, n):
            if SEPARATION[kind] == "closed":
                out.append(closed[u] ^ closed[v])
            elif SEPARATION[kind] == "open":
                out.append(nb[u] ^ nb[v])
            else:  # locating: the pair only matters while both lie outside C
                out.append(nb[u] ^ nb[v] | 1 << u | 1 << v)
    if any(m == 0 for m in out):
        raise ValueError(f"graph admits no {kind} code")
    return sorted(set(out))


def is_code(mask: int, constraints) -> bool:
    return all(mask & m for m in constraints)


def milp_value(n: int, constraints) -> int | None:
    """Minimum code size by HiGHS, or None when scipy is missing."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None
    a = np.zeros((len(constraints), n))
    for row, m in enumerate(constraints):
        for v in range(n):
            if m >> v & 1:
                a[row, v] = 1
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"milp failed: {res.message}")
    return round(res.fun)


def codes_of_size(n: int, constraints, k: int) -> list[int]:
    """Every code with exactly k vertices, by a search over vertices 0..n-1.

    A constraint is checked once its highest vertex is decided; the bound is a
    set of pairwise-disjoint constraints inside the undecided suffix."""
    closing = [[] for _ in range(n)]
    for m in constraints:
        closing[m.bit_length() - 1].append(m)
    suffix_bound = [0] * (n + 1)
    for i in range(n):
        inside = sorted((m for m in constraints if m >> i << i == m), key=int.bit_count)
        used = count = 0
        for m in inside:
            if not m & used:
                used |= m
                count += 1
        suffix_bound[i] = count
    found = []

    def rec(i: int, chosen: int, size: int) -> None:
        if i == n:
            found.append(chosen)
            return
        for take in (1, 0):
            c, s = chosen | take << i, size + take
            if s + suffix_bound[i + 1] > k or s + (n - i - 1) < k:
                continue
            if all(c & m for m in closing[i]):
                rec(i + 1, c, s)

    rec(0, 0, 0)
    return found


def bit_list(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# -- cross-checks -------------------------------------------------------------------------


class Log:
    def __init__(self):
        self.counts = {"brute-force": 0, "milp": 0, "milp-skipped": 0, "optima-scan": 0, "optima-search": 0}
        self.mismatches = []

    def agree(self, what: str, route: str, mine, theirs) -> None:
        self.counts[route] += 1
        if mine != theirs:
            self.mismatches.append(f"{what}: library {mine} vs {route} {theirs}")


def cross_check_value(od, log, what, g, kind, value) -> None:
    if g.n <= 20:
        log.agree(what, "brute-force", value, od.brute_force_gamma(g, od.CodeKind(kind))[0])
        return
    theirs = milp_value(g.n, code_constraints(g.n, g.edges(), kind))
    if theirs is None:
        log.counts["milp-skipped"] += 1
    else:
        log.agree(what, "milp", value, theirs)


def cross_check_optima(log, what, g, kind, value, optima) -> None:
    constraints = code_constraints(g.n, g.edges(), kind)
    if g.n <= 20:
        route = "optima-scan"
        found = [sum(1 << v for v in c) for c in combinations(range(g.n), value)]
        found = [m for m in found if is_code(m, constraints)]
    else:
        route = "optima-search"
        found = codes_of_size(g.n, constraints, value)
    log.agree(what, route, W.canonical_digest(optima), W.canonical_digest(bit_list(m) for m in found))


# -- recording ----------------------------------------------------------------------------


def draw_pool(od, name: str, n: int, p: float, kinds) -> dict:
    rng = random.Random(name)
    while True:
        g = od.families.random_od_admissible(n, p, rng)
        if all(od.is_admissible(g, od.CodeKind(k)).ok for k in kinds):
            return {"n": n, "p": p, "edges": [list(e) for e in g.edges()]}


def record(od, log) -> dict:
    refs = {}

    values, pool = {}, {}
    for name, n, p, kinds in W.SPARSE_POOL:
        pool[name] = draw_pool(od, name, n, p, kinds)
    graphs = [(f"cycle-{n}", od.families.cycle_graph(n), W.SPARSE_KINDS) for n in W.SPARSE_CYCLES]
    graphs += [(f"path-{n}", od.families.path_graph(n), W.SPARSE_KINDS) for n in W.SPARSE_PATHS]
    graphs += [(name, W.pool_graph(od, pool[name]), kinds) for name, _n, _p, kinds in W.SPARSE_POOL]
    for name, g, kinds in graphs:
        for kind in kinds:
            key = f"{name}/{kind}"
            values[key] = od.gamma(g, od.CodeKind(kind))[0]
            cross_check_value(od, log, key, g, kind, values[key])
            print(f"  {key}: {values[key]}", flush=True)
    refs["sparse-search"] = {"values": values, "pool": pool}

    optima, pool = {}, {}
    pool_kinds = {}
    for name, n, p, kind in W.COVERS_POOL:
        pool_kinds.setdefault(name, (n, p, []))[2].append(kind)
    for name, (n, p, kinds) in pool_kinds.items():
        pool[name] = draw_pool(od, name, n, p, kinds)
    graphs = [(f"cycle-{n}", od.families.cycle_graph(n), W.COVERS_CYCLE_KINDS) for n in W.COVERS_CYCLES]
    graphs += [(name, W.pool_graph(od, pool[name]), kinds) for name, (_n, _p, kinds) in pool_kinds.items()]
    for name, g, kinds in graphs:
        for kind in kinds:
            key = f"{name}/{kind}"
            value, sets, truncated = od.gamma_all_optima(g, od.CodeKind(kind), cap=W.COVERS_CAP)
            if truncated:
                raise RuntimeError(f"{key}: enumeration reached the cap")
            optima[key] = {"value": value, "optima": len(sets), "digest": W.canonical_digest(sets)}
            cross_check_value(od, log, key, g, kind, value)
            cross_check_optima(log, key, g, kind, value, sets)
            print(f"  {key}: {value}, {len(sets)} optima", flush=True)
    polyhedra = {}
    for hint, params in W.POLY_CASES:
        spec = od.FamilySpec(hint, **params)
        key = f"{hint}-{next(iter(params.values()))}"
        polyhedra[key] = {"size": list(od.od_polyhedron_system(od.generate(spec), hint).size())}
    refs["all-covers"] = {"optima": optima, "pool": pool, "polyhedra": polyhedra}

    refs["slsat-sweep"] = []
    for sweep in W.SLSAT_SWEEPS:
        instances = []
        for inst in od.enumerate_slsat(*sweep):
            gg = od.build_gadget(inst)
            row = {
                "lsat": od.sat_reduction.format_lsat(inst),
                "sat": od.brute_force_sat(inst) is not None,
                "od": od.gamma(gg.graph, od.CodeKind.OD)[0],
                "otd": od.gamma(gg.graph, od.CodeKind.OTD)[0],
            }
            for kind in ("OD", "OTD"):
                what = f"slsat{sweep}#{len(instances)}/{kind}"
                cross_check_value(od, log, what, gg.graph, kind, row[kind.lower()])
            instances.append(row)
        print(f"  slsat sweep {sweep}: {len(instances)} instances", flush=True)
        refs["slsat-sweep"].append({"sweep": list(sweep), "instances": instances})
    criterion6 = sum(1 for _ in od.enumerate_slsat(4, 6))
    if criterion6 != 221:
        log.mismatches.append(f"criterion-6 sweep yields {criterion6} instances, not 221")
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored tables, write nothing")
    args = parser.parse_args()
    od = W.import_odcodes(fresh=False)
    log = Log()
    t0 = time.perf_counter()
    refs = record(od, log)
    print(f"cross-checks: {json.dumps(log.counts)} in {time.perf_counter() - t0:.0f} s")
    for m in log.mismatches:
        print(f"MISMATCH {m}")
    if log.mismatches:
        return 1
    if args.check:
        same = refs == W.load_references()
        print("stored tables match" if same else "stored tables DIFFER")
        return 0 if same else 1
    with open(W.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {W.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
