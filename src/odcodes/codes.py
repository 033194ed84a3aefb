"""User-facing code semantics: verification, exact code numbers, relations.

verify() checks a candidate set straight against the definitions (domination
plus trace uniqueness), so it is usable on any graph.  gamma() goes through
the clutter covering pipeline and re-verifies its witness; brute_force_gamma()
scans subsets in size order and serves as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .clutters import InadmissibleGraphError, build_clutter
from .cover import min_cover
from .graphs import CodeKind, Graph, bits, code_masks, induced_subgraph, is_admissible, mask_of

MAX_VIOLATIONS = 100  # cap per violation list in a report
BRUTE_FORCE_LIMIT = 20


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
    dom, sep = code_masks(g, kind)
    undominated = []
    for v, m in enumerate(dom):
        if not m & cmask:
            undominated.append(v)
            if len(undominated) >= MAX_VIOLATIONS:
                break

    trace = [m & cmask for m in sep]
    if kind.separation == "locating":
        pool = [v for v in range(g.n) if not cmask >> v & 1]
    else:
        pool = range(g.n)
    groups: dict[int, list[int]] = {}
    for v in pool:
        groups.setdefault(trace[v], []).append(v)
    unseparated = []
    for t, members in sorted(groups.items(), key=lambda kv: kv[1]):
        if len(members) < 2:
            continue
        shared = frozenset(bits(t))
        for u, v in combinations(members, 2):
            unseparated.append((u, v, shared))
            if len(unseparated) >= MAX_VIOLATIONS:
                break
        if len(unseparated) >= MAX_VIOLATIONS:
            break

    return VerificationReport(
        kind=kind,
        valid=not undominated and not unseparated,
        undominated=tuple(undominated),
        unseparated=tuple(unseparated),
    )


def check_cover_code(g: Graph, code, kind: CodeKind) -> None:
    """Raise AssertionError unless a cover the solver returned is a valid code."""
    report = verify(g, code, kind)
    if not report.valid:
        raise AssertionError(f"cover witness fails {kind.value} verification: {report}")


def gamma(g: Graph, kind: CodeKind) -> tuple[int, frozenset[int]]:
    """Minimum code size and one witness, via the clutter covering pipeline."""
    clutter = build_clutter(g, kind)  # raises on inadmissible graphs
    result = min_cover(clutter)
    check_cover_code(g, result.witness, kind)
    return result.value, result.witness


def gamma_all_optima(
    g: Graph, kind: CodeKind, cap: int = 10_000
) -> tuple[int, tuple[frozenset[int], ...], bool]:
    """Minimum code size with every optimal code (up to cap), plus truncation flag."""
    clutter = build_clutter(g, kind)
    result = min_cover(clutter, enumerate_all=True, cap=cap)
    return result.value, result.all_optima or (), result.truncated


def brute_force_gamma(g: Graph, kind: CodeKind) -> tuple[int, frozenset[int]]:
    """Subset scan in size order; the oracle the pipeline is held against."""
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force guarded to n <= {BRUTE_FORCE_LIMIT}")
    adm = is_admissible(g, kind)
    if not adm.ok:
        raise InadmissibleGraphError(f"graph is not {kind.value}-admissible: {adm.reason}")
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
    adm = is_admissible(g, CodeKind.OD)
    if not adm.ok:
        raise InadmissibleGraphError(f"graph is not OD-admissible: {adm.reason}")
    od, _ = gamma(g, CodeKind.OD)
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    checks: list[RelationCheck] = []

    def add(name: str, ok: bool | None, detail: str) -> None:
        status = "not-applicable" if ok is None else ("pass" if ok else "fail")
        checks.append(RelationCheck(name, status, detail))

    if not isolated and g.n >= 1:
        otd, _ = gamma(g, CodeKind.OTD)
        add(
            "otd_sandwich",
            otd - 1 <= od <= otd,
            f"gamma_OTD={otd}, gamma_OD={od}",
        )
    else:
        add("otd_sandwich", None, "graph has an isolated vertex")

    if len(isolated) == 1 and g.n >= 2:
        rest = induced_subgraph(g, [v for v in range(g.n) if v != isolated[0]])
        otd_rest, _ = gamma(rest, CodeKind.OTD)
        add(
            "isolated_shift",
            od == otd_rest + 1,
            f"gamma_OD={od}, gamma_OTD(without isolated)={otd_rest}",
        )
    else:
        add("isolated_shift", None, "graph does not have exactly one isolated vertex")

    ld, _ = gamma(g, CodeKind.LD)
    add("ld_lower", ld <= od, f"gamma_LD={ld}, gamma_OD={od}")

    if not isolated and g.n >= 1:
        ltd, _ = gamma(g, CodeKind.LTD)
        add("ltd_lower", ltd - 1 <= od, f"gamma_LTD={ltd}, gamma_OD={od}")
    else:
        add("ltd_lower", None, "graph has an isolated vertex")

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
