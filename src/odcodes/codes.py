"""User-facing code semantics: verification, exact code numbers, relations.

verify() checks a candidate set straight against the definitions (domination
plus trace uniqueness), so it is usable on any graph.  gamma() goes through
the clutter covering pipeline and re-verifies its witness; brute_force_gamma()
scans subsets in size order and serves as the independent oracle.

gamma(), gamma_all_optima() and the CLI's gamma share one solve route,
_solve(): above the brute-force guard, a narrow graph goes to a frontier DP
first, and any other graph to min_cover, with min_cover's result either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, islice

from .clutters import Clutter, build_clutter, require_admissible
from .cover import CoverResult, _check_cap, _frontier, _search, min_cover
from .graphs import MAX_VIOLATIONS, CodeKind, Graph, bits, code_masks, induced_subgraph, mask_of

BRUTE_FORCE_LIMIT = 20
DEFAULT_CAP = 10_000  # the most optima a listing holds unless told otherwise
NARROW_WIDTH = 4  # the widest span of a graph edge in a narrow BFS order


@dataclass(frozen=True)
class VerificationReport:
    kind: CodeKind
    valid: bool
    undominated: tuple[int, ...]
    unseparated: tuple[tuple[int, int, frozenset[int]], ...]  # (u, v, shared trace)

    def __bool__(self) -> bool:
        return self.valid


def verify(g: Graph, code, kind: CodeKind) -> VerificationReport:
    """Check domination and separation of a vertex set, reporting violations.

    Works on inadmissible graphs too; at most MAX_VIOLATIONS entries are kept
    per list.
    """
    code = set(code)
    for v in code:
        if not 0 <= v < g.n:
            raise ValueError(f"code vertex {v} out of range for n={g.n}")
    cmask = mask_of(code)
    dom, sep, own = code_masks(g, kind)
    undominated = [v for v, m in enumerate(dom) if not m & cmask][:MAX_VIOLATIONS]

    groups: dict[int, list[int]] = {}
    for v, (m, o) in enumerate(zip(sep, own)):
        if not o & cmask:
            groups.setdefault(m & cmask, []).append(v)
    pairs = (
        (u, v, frozenset(bits(t)))
        for t, members in sorted(groups.items(), key=lambda kv: kv[1])
        for u, v in combinations(members, 2)
    )
    unseparated = tuple(islice(pairs, MAX_VIOLATIONS))

    return VerificationReport(
        kind=kind,
        valid=not undominated and not unseparated,
        undominated=tuple(undominated),
        unseparated=unseparated,
    )


def check_cover_code(g: Graph, code, kind: CodeKind) -> None:
    """Raise AssertionError unless a cover the solver returned is a valid code."""
    report = verify(g, code, kind)
    if not report.valid:
        raise AssertionError(f"cover witness fails {kind.value} verification: {report}")


def check_cover_codes(g: Graph, codes, kind: CodeKind) -> None:
    """check_cover_code for many covers of one graph, on its masks built once.

    Each code is tested straight on the definitions: it meets every dom set
    and leaves distinct traces.  One that fails goes to check_cover_code,
    whose message carries its verify report.
    """
    dom, sep, own = code_masks(g, kind)
    for code in codes:
        cmask = mask_of(code)
        traces = [m & cmask for m, o in zip(sep, own) if not o & cmask]
        if not all(m & cmask for m in dom) or len(set(traces)) < len(traces):
            check_cover_code(g, code, kind)


def gamma(g: Graph, kind: CodeKind) -> tuple[int, frozenset[int]]:
    """Minimum code size and one witness, via the clutter covering pipeline."""
    result = _solve(g, kind)
    return result.value, result.witness


def gamma_all_optima(
    g: Graph, kind: CodeKind, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[frozenset[int], ...], bool]:
    """Minimum code size with every optimal code (up to cap), plus truncation flag."""
    result = _solve(g, kind, cap)
    return result.value, result.all_optima, result.truncated


def _solve(g: Graph, kind: CodeKind, cap: int | None = None) -> CoverResult:
    """min_cover's result on the kind's clutter, with the optima up to cap
    unless cap is None.

    Above BRUTE_FORCE_LIMIT, a graph with a narrow BFS order is solved by the
    frontier DP over it, which lists the optima up to cap in one pass back
    along its links, and one walk pinned at its value follows: it finds the
    witness, the first cover of that size the walk meets, and it lists the
    walk's first cap optima too when the DP did not list them.  A graph that
    is not narrow, or whose DP passes its state cap, goes to min_cover.
    """
    clutter = build_clutter(g, kind)  # raises on inadmissible graphs
    _check_cap(cap)
    order = _narrow_order(g) if g.n > BRUTE_FORCE_LIMIT else None
    found = _frontier(*_dp_edges(g, kind, clutter), order, cap) if order else None
    if found is None:
        result = min_cover(clutter, cap=cap)
    else:
        value, optima = found
        result = _search(clutter, cap if optima is None else None, limit=value)
        if optima is not None:
            result = replace(result, all_optima=tuple(frozenset(bits(m)) for m in optima))
    check_cover_code(g, result.witness, kind)
    if cap is not None:
        check_cover_code(g, result.all_optima[0], kind)
    return result


def _narrow_order(g: Graph) -> list[int] | None:
    """A BFS order in which every edge spans at most NARROW_WIDTH places, or
    None as soon as one cannot.

    Each component is searched from its lowest vertex, neighbours in index
    order.  A vertex's earliest neighbour is the one that places it, so the
    widest edge at the vertices u places runs from u to the last of them.
    While the order is narrow, every vertex already placed lies fewer than
    NARROW_WIDTH places past u, so a u that places none passes.
    """
    order: list[int] = []
    placed = i = 0
    for root in range(g.n):
        if placed >> root & 1:
            continue
        order.append(root)
        placed |= 1 << root
        while i < len(order):
            fresh = g.adj[order[i]] & ~placed
            if len(order) + fresh.bit_count() - 1 - i > NARROW_WIDTH:
                return None
            order += bits(fresh)
            placed |= fresh
            i += 1
    return order


def _dp_edges(g: Graph, kind: CodeKind, clutter: Clutter) -> tuple[list[int], list[int]]:
    """The frontier DP's (hard, spare) edges: a set is a code of the kind
    exactly when it hits every hard edge and misses at most one spare edge.
    Every kind but OD has its clutter as hard edges and no spare edges.

    OD's clutter is wide, for a far pair u, v, with no common neighbour, has
    the edge N(u) | N(v).  As two empty traces N(v) & C with a common
    neighbour miss N(u) ^ N(v), the far pairs only say that at most one
    trace is empty.  So OD's hard edges are every N[v] and the N(u) ^ N(v)
    of the pairs with a common neighbour, and its spare edges every N(v);
    with an isolated vertex, whose trace is the empty one, every nonempty
    N(v) is hard instead.
    """
    if kind is not CodeKind.OD:
        return list(clutter.edges), []
    hard = {m | 1 << v for v, m in enumerate(g.adj)}
    for m in g.adj:
        for u, v in combinations(bits(m), 2):
            hard.add(g.adj[u] ^ g.adj[v])
    if 0 not in g.adj:
        return list(hard), list(g.adj)
    return list(hard | set(g.adj) - {0}), []


def brute_force_gamma(g: Graph, kind: CodeKind) -> tuple[int, frozenset[int]]:
    """Subset scan in size order; the oracle the pipeline is held against."""
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force guarded to n <= {BRUTE_FORCE_LIMIT}")
    require_admissible(g, kind)
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if verify(g, cand, kind).valid:
                return size, frozenset(cand)
    raise AssertionError("admissible graph must have a code")


@dataclass(frozen=True)
class RelationCheck:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    detail: str


def check_relations(g: Graph) -> tuple[RelationCheck, ...]:
    """Evaluate the inter-number inequalities on one graph.

    Covers: the sandwich between the open-separating numbers with closed and
    open domination, the isolated-vertex shift, the locating lower bounds,
    and the log/order bounds.  Inapplicable relations are marked, not passed.
    """
    od, _ = gamma(g, CodeKind.OD)  # raises on OD-inadmissible graphs
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    checks: list[RelationCheck] = []

    def add(name: str, ok: bool | None, detail: str) -> None:
        status = "not-applicable" if ok is None else ("pass" if ok else "fail")
        checks.append(RelationCheck(name, status, detail))

    def add_total(name: str, kind: CodeKind, holds) -> None:
        if isolated or not g.n:
            add(name, None, "graph has an isolated vertex" if isolated else "graph is empty")
        else:
            value, _ = gamma(g, kind)
            add(name, holds(value), f"gamma_{kind.value}={value}, gamma_OD={od}")

    add_total("otd_sandwich", CodeKind.OTD, lambda otd: otd - 1 <= od <= otd)

    if len(isolated) == 1 and g.n >= 2:
        rest = induced_subgraph(g, [v for v in range(g.n) if v != isolated[0]])
        otd_rest, _ = gamma(rest, CodeKind.OTD)
        add(
            "isolated_shift",
            od == otd_rest + 1,
            f"gamma_OD={od}, gamma_OTD(without isolated)={otd_rest}",
        )
    else:
        add(
            "isolated_shift",
            None,
            "graph has no vertex besides its isolated one"
            if len(isolated) == 1
            else "graph does not have exactly one isolated vertex",
        )

    ld, _ = gamma(g, CodeKind.LD)
    add("ld_lower", ld <= od, f"gamma_LD={ld}, gamma_OD={od}")

    add_total("ltd_lower", CodeKind.LTD, lambda ltd: ltd - 1 <= od)

    if not isolated and g.n >= 2:
        lo = math.ceil(math.log2(g.n))
        add(
            "order_bounds",
            lo <= od <= g.n - 1,
            f"ceil(log2 {g.n})={lo}, gamma_OD={od}, n-1={g.n - 1}",
        )
    else:
        add("order_bounds", None, "needs n >= 2 and no isolated vertex")

    return tuple(checks)
