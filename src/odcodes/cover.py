"""Exact minimum set cover over clutters.

Branch and bound on packed edges: each uncovered edge is one int,
``(size << w) | mask`` with ``w`` the bit length of the widest mask, so a
plain ``list.sort()`` orders edges by size, then mask.  Every node's edge
list is kept in that order.  Taking the branch vertex filters the list and
keeps it sorted; dropping it shrinks the edges that hold it and merges the
two sorted runs.  Forced vertices (singleton edges) therefore sit in the
sorted prefix and are absorbed in one pass.  The lower bound is a greedy
packing of pairwise-disjoint edges in that order, stopped as soon as it
prunes.  Branching picks the most frequent vertex inside a smallest edge,
lowest index on ties.  With one vertex left in the budget, the leaves are
the vertices in every edge, handed on lowest first, which is the order the
branching would take them in.  With two left, the node is pruned unless some
vertex of the first edge leaves edges that one vertex hits.

One walk serves both passes: it prunes at a limit and hands each surviving
leaf to a callback.  The value pass prunes at one below the incumbent and
records improvements; the enumeration pass pins the limit to the optimum and
collects every optimal cover, up to cap.  Everything is deterministic, so
repeated solves yield identical witnesses and node counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

from .clutters import Clutter, Hyperedge
from .graphs import bits, mask_of


@dataclass(frozen=True)
class CoverResult:
    value: int
    witness: frozenset[int]
    nodes_explored: int
    all_optima: tuple[frozenset[int], ...] | None = None
    truncated: bool = False


def greedy_cover(c: Clutter) -> frozenset[int]:
    """Max-coverage greedy cover, ties broken by lowest vertex index.

    Each vertex's count of uncovered edges is taken in one pass and then
    lowered as the edges it holds get covered, so no round rescans them.
    """
    uncovered = list(c.edge_masks())
    if any(m == 0 for m in uncovered):
        raise ValueError("clutter has an empty edge")
    hits = [0] * max(uncovered, default=0).bit_length()
    for m in uncovered:
        for v in bits(m):
            hits[v] += 1
    chosen = 0
    while uncovered:
        b = 1 << hits.index(max(hits))
        chosen |= b
        rest = []
        for m in uncovered:
            if m & b:
                for v in bits(m):
                    hits[v] -= 1
            else:
                rest.append(m)
        uncovered = rest
    return frozenset(bits(chosen))


class _Truncated(Exception):
    """Raised by the enumeration leaf once cap optima are held."""


def min_cover(c: Clutter, enumerate_all: bool = False, cap: int = 10_000) -> CoverResult:
    """Exact minimum cover; with enumerate_all, every optimum up to cap."""
    if enumerate_all and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    masks = set(c.edge_masks())
    if not masks:
        return CoverResult(0, frozenset(), 0, (frozenset(),) if enumerate_all else None)
    if 0 in masks:
        raise ValueError("clutter has an empty edge")

    w = max(masks).bit_length()
    full, one, two = (1 << w) - 1, 1 << w, 2 << w
    greedy = mask_of(greedy_cover(c))
    witness, limit, nodes = greedy, greedy.bit_count() - 1, 0
    optima: list[int] = []

    def improve(selected: int, count: int) -> None:
        nonlocal witness, limit
        witness, limit = selected, count - 1

    def collect(selected: int, count: int) -> None:
        if len(optima) >= cap:
            raise _Truncated
        optima.append(selected)

    leaf = improve

    def walk(edges: list[int], selected: int, count: int) -> None:
        """One node: edges are sorted packed ints, none empty."""
        nonlocal nodes
        nodes += 1
        # Singletons lead the sorted list, and dropping the edges they hit
        # makes no new singleton, so one pass absorbs them all.
        if edges and edges[0] < two:
            forced = 0
            for k in edges:
                if k >= two:
                    break
                forced |= k
            forced &= full
            selected |= forced
            count += forced.bit_count()
            edges = [k for k in edges if not k & forced]
        if not edges:
            if count <= limit:
                leaf(selected, count)
            return
        if count + 1 >= limit:
            # One vertex left: it must lie in every edge, and those are the
            # vertices branching would take, lowest first.  An improving
            # leaf lowers the limit and ends the loop.
            if count + 1 == limit:
                common = reduce(and_, edges, full)
                while common and count < limit:
                    b = common & -common
                    common ^= b
                    leaf(selected | b, count + 1)
            return
        used, bound = 0, count
        for k in edges:
            if not k & used:
                bound += 1
                if bound > limit:
                    return
                used |= k & full
        # The most frequent vertex of edges[0] leaves the shortest include
        # list; the strict < keeps the lowest index on ties.  With two
        # vertices left, no leaf lies below unless some kept list has a vertex
        # in every edge (the AND over no edges is full, so nonzero).
        rest, inc, vbit = edges[0] & full, None, 0
        finishable = count + 2 < limit
        while rest:
            b = rest & -rest
            rest ^= b
            kept = [k for k in edges if not k & b]
            if inc is None or len(kept) < len(inc):
                inc, vbit = kept, b
            if not finishable:
                finishable = reduce(and_, kept, full) != 0
        if not finishable:
            return
        walk(inc, selected | vbit, count + 1)
        dec = one | vbit
        exc = inc + [k - dec for k in edges if k & vbit]
        exc.sort()
        walk(exc, selected, count)

    base = sorted((m.bit_count() << w) | m for m in masks)
    walk(base, 0, 0)
    value = limit + 1
    if any(not m & witness for m in masks):
        raise AssertionError("solver returned a non-cover")

    optima_out: tuple[frozenset[int], ...] | None = None
    truncated = False
    if enumerate_all:
        leaf, limit = collect, value
        try:
            walk(base, 0, 0)
        except _Truncated:
            truncated = True
        optima_out = tuple(frozenset(bits(m)) for m in sorted(optima))

    return CoverResult(value, frozenset(bits(witness)), nodes, optima_out, truncated)


def tau_q_rose(n: int, q: int) -> int:
    """Covering number of the complete q-rose of order n: n - q + 1."""
    if not 2 <= q < n:
        raise ValueError("q-rose needs 2 <= q < n")
    return n - q + 1


def qrose_clutter(n: int, q: int) -> Clutter:
    """The complete q-rose materialized: every q-subset of {0..n-1}."""
    if not 2 <= q < n:
        raise ValueError("q-rose needs 2 <= q < n")
    edges = tuple(
        Hyperedge(mask_of(sub), (f"rose{sorted(sub)}",)) for sub in combinations(range(n), q)
    )
    return Clutter(n, edges)
