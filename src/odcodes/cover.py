"""Exact minimum set cover over clutters.

Branch and bound on edge-index bitsets.  The distinct edges are numbered in
(size, mask) order, and a node's uncovered edges are one int over those
indices.  Per-vertex tables (the edges that hold v) and size classes (the
edges by how many of their vertices are not excluded) make each step a few
big-int operations: taking a vertex clears the edges it holds, excluding it
moves them one class down.  Forced vertices (singleton edges) are absorbed
in one pass.  The lower bound is a greedy packing of pairwise-disjoint
edges by (size, index), stopped as soon as it prunes.  Branching picks the
most frequent vertex inside the least edge by (size, mask), lowest index on
ties.  With one vertex left in the budget, the leaves are the vertices in
every edge, handed on lowest first, the order branching would take them in.
With two left, the node is pruned unless some vertex of a smallest edge
leaves edges that one vertex hits.

The walk prunes at a limit and hands each surviving leaf to one rule.  A
leaf smaller than the witness becomes the witness and restarts the list of
optima; the value pass then prunes at one below it, a listing walk at its
size.  Any other leaf joins the list while fewer than cap are held; past
cap, it marks the list truncated and drops the limit back to strict
improvement.  A leaf at the floor, the size already proven optimal, ends a
walk that will list no more: a value walk at once, a listing walk past cap.
To list every optimum, one walk runs with floor 0: it is the value pass
until its first leaf below the greedy cover, and from there it gathers every
leaf of the least size in walk order.  Only when no leaf beats the greedy
cover does a second walk run, pinned at the greedy size (its floor and its
limit), and it stops at the (cap+1)-th optimum.  Everything is
deterministic, so repeated solves yield identical witnesses and node counts.

min_cover and _search take one switch, cap: None is a value walk, and an
int lists the optima up to cap.  _search can also take the optimum as proven.
Since the leaves at or below a limit do not depend on how the limit moved,
the walk pinned at the optimum meets min_cover's optima in min_cover's
order: its first leaf is min_cover's witness, and its first cap leaves are
min_cover's list.  _frontier is a second exact route, a DP over a vertex
order, cheap when every edge spans few places of the order, which takes
spare edges and lists every optimum up to a cap in one pass back along its
links; the optima it does not list are None.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .clutters import Clutter
from .graphs import bits, mask_of


STATE_CAP = 4_096  # the most states _frontier keeps after a step


@dataclass(frozen=True)
class CoverResult:
    value: int
    witness: frozenset[int]
    nodes_explored: int
    all_optima: tuple[frozenset[int], ...] | None = None
    truncated: bool = False


def _hold(masks) -> list[int]:
    """Transpose the masks: bit i of hold[v] is bit v of masks[i].

    The masks are written as equal-width binary rows, last mask first, so the
    column of vertex v, read top down, is the binary numeral of hold[v].
    """
    width = max(masks, default=0).bit_length()
    rows = "".join([format(m, "b").zfill(width) for m in reversed(masks)])
    return [int(rows[width - 1 - v :: width], 2) for v in range(width)]


def greedy_cover(c: Clutter) -> frozenset[int]:
    """Max-coverage greedy cover, ties broken by lowest vertex index.

    hold[v] has the indices of the edges that hold v, duplicates counted
    apart; each round takes the vertex holding the most uncovered edges and
    clears those it holds.
    """
    masks = c.edges
    if 0 in masks:
        raise ValueError("clutter has an empty edge")
    hold = _hold(masks)
    left, chosen = (1 << len(masks)) - 1, 0
    while left:
        hits = [(left & h).bit_count() for h in hold]
        v = hits.index(max(hits))
        chosen |= 1 << v
        left &= ~hold[v]
    return frozenset(bits(chosen))


class _Stop(Exception):
    """Ends a walk at a leaf of the floor size, the proven optimum: a value
    walk's first, or a listing walk's (cap+1)-th, which truncates the list."""


def min_cover(c: Clutter, cap: int | None = None) -> CoverResult:
    """Exact minimum cover; with cap, every optimum up to cap as well.

    nodes_explored counts the nodes of every walk the solve ran.
    """
    _check_cap(cap)
    return _search(c, cap)


def _check_cap(cap: int | None) -> None:
    """Refuse a listing cap below 1."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def _search(c: Clutter, cap: int | None = None, limit: int | None = None) -> CoverResult:
    """The walk behind min_cover: a value walk when cap is None, else one
    that lists the optima up to cap.

    limit, when given, is the optimum, proven on another route, and the
    walk's floor.  A value solve then ends at the first cover of that size
    it meets: the greedy cover when that is optimal, else the first leaf,
    min_cover's witness.  A listing walk runs once and stops at the
    (cap+1)-th optimum, so it lists what min_cover lists with no proof walk.
    Every leaf of a value walk is a new witness, so only a listing walk
    reads cap.
    """
    masks = set(c.edges)
    if not masks:
        return CoverResult(0, frozenset(), 0, None if cap is None else (frozenset(),))

    greedy = mask_of(greedy_cover(c))
    witness, floor, nodes = greedy, 0, 0
    if limit is None:
        limit = greedy.bit_count() - 1
    elif cap is None and limit >= greedy.bit_count():
        return CoverResult(greedy.bit_count(), frozenset(bits(greedy)), 0)
    else:
        floor = limit
    optima: list[int] = []
    truncated = False

    def leaf(selected: int, count: int) -> None:
        # A smaller leaf restarts the list, and a listing walk then prunes at
        # its size.  Past cap, a leaf drops the limit back to strict
        # improvement.  A leaf at the proven floor ends a walk that will list
        # no more: a value walk at once, a listing walk past cap.
        nonlocal witness, limit, truncated
        if count < witness.bit_count():
            witness, limit, truncated = selected, count - 1 if cap is None else count, False
            optima[:] = [selected]
        elif len(optima) < cap:
            optima.append(selected)
        else:
            truncated, limit = True, count - 1
        if count == floor and (truncated or cap is None):
            raise _Stop

    # Edge i is the i-th distinct mask by (size, mask).  hold[v] has the edges
    # that hold v, root[s] those of size s, skip[v] those missing v; apart[i],
    # built when i is first packed, those missing all of i.
    edge = sorted(masks)
    edge.sort(key=int.bit_count)  # stable, so (size, mask) order
    hold = _hold(edge)
    root = [0] * (edge[-1].bit_count() + 1)
    for i, m in enumerate(edge):
        root[m.bit_count()] |= 1 << i
    skip = [~h for h in hold]
    apart: list[int | None] = [None] * len(edge)
    tops = range(2, len(root))

    def walk(left: int, size: list[int], out: int, selected: int, count: int) -> None:
        """One node: left holds the uncovered edges, and size[s] those of
        them with s vertices outside the excluded ones, out."""
        nonlocal nodes
        nodes += 1
        # Dropping the edges that the singletons hit makes no new singleton,
        # so one pass absorbs them all.
        single = size[1] & left
        if single:
            forced = 0
            while single:
                low = single & -single
                single ^= low
                forced |= edge[low.bit_length() - 1]
            forced &= ~out
            selected |= forced
            count += forced.bit_count()
            while forced:
                low = forced & -forced
                forced ^= low
                left &= skip[low.bit_length() - 1]
        if not left:
            if count <= limit:
                leaf(selected, count)
            return
        if count + 1 >= limit:
            # One vertex left: it must lie in every edge, and those are the
            # vertices branching would take, lowest first.  A leaf that
            # lowers the limit below count + 1 ends the loop.
            if count + 1 == limit:
                for v in bits(edge[(left & -left).bit_length() - 1] & ~out):
                    if count >= limit:
                        break
                    if not left & skip[v]:
                        leaf(selected | 1 << v, count + 1)
            return
        # The branching order alone fixes the leaves at or below the limit,
        # and a valid prune removes none, so the witness, the optima and
        # where cap cuts them do not depend on the packing order; (size,
        # index) packs differently from (size, mask) and moves only nodes.
        free, bound = left, count
        for s in tops:
            pick = size[s] & free
            while pick:
                bound += 1
                if bound > limit:
                    return
                i = (pick & -pick).bit_length() - 1
                m = edge[i]
                if m & out:
                    m &= ~out
                    while m:
                        low = m & -m
                        m ^= low
                        free &= skip[low.bit_length() - 1]
                else:
                    a = apart[i]
                    if a is None:
                        a = apart[i] = ~reduce(or_, [hold[v] for v in bits(m)])
                    free &= a
                pick = size[s] & free
            if not free:
                break
        # Branch on the least (size, mask) edge: the lowest index among the
        # whole edges of size s, or a shrunk one with a smaller mask.
        s = 2
        while not size[s] & left:
            s += 1
        first = size[s] & left
        whole = first & root[s]
        best = edge[(whole & -whole).bit_length() - 1] if whole else None
        shrunk = first ^ whole
        while shrunk:
            low = shrunk & -shrunk
            shrunk ^= low
            m = edge[low.bit_length() - 1] & ~out
            if best is None or m < best:
                best = m
        # Take its vertex that holds the most uncovered edges, lowest on ties.
        # With two vertices left, no leaf lies below unless some vertex b
        # leaves edges that one vertex x hits; x lies in the first two.
        most, v = -1, 0
        finishable = count + 2 < limit
        while best:
            low = best & -best
            best ^= low
            b = low.bit_length() - 1
            hits = (left & hold[b]).bit_count()
            if hits > most:
                most, v = hits, b
            if not finishable:
                kept = left & skip[b]
                two = kept & (kept - 1)
                common = edge[(kept & -kept).bit_length() - 1] & ~out if kept else 0
                if two:
                    common &= edge[(two & -two).bit_length() - 1]
                finishable = not kept
                while common and not finishable:
                    low = common & -common
                    common ^= low
                    finishable = not kept & skip[low.bit_length() - 1]
        if not finishable:
            return
        walk(left & skip[v], size, out, selected | 1 << v, count + 1)
        moved, size = left & hold[v], size[:]
        for s in tops:
            shrink = size[s] & moved
            if shrink:
                size[s] ^= shrink
                size[s - 1] |= shrink
                moved ^= shrink
                if not moved:
                    break
        walk(left, size, out | 1 << v, selected, count)

    def run() -> None:
        try:
            walk((1 << len(edge)) - 1, root, 0, 0, 0)
        except _Stop:
            pass

    run()
    if any(not m & witness for m in masks):
        raise AssertionError("solver returned a non-cover")
    if floor and witness.bit_count() != floor:
        raise AssertionError(f"the optimum given is {floor}, the walk's {witness.bit_count()}")
    if cap is not None and not optima:
        # No leaf beat the greedy cover: list the optima by a walk pinned at
        # its size.
        floor = limit = witness.bit_count()
        run()
    del walk  # it refers to itself; freed here, its tables need no gc pass
    optima_out = None if cap is None else tuple(frozenset(bits(m)) for m in sorted(optima))
    return CoverResult(witness.bit_count(), frozenset(bits(witness)), nodes, optima_out, truncated)


def _frontier(
    edges: list[int], spare: list[int], order: list[int], cap: int | None = None
) -> tuple[int, list[int] | None] | None:
    """Minimum cover of the nonempty edges, which may miss one spare edge, by
    a DP over a vertex order: (value, optima), or None once the states pass
    STATE_CAP.

    An edge starts at its first vertex in the order and must be hit by its
    last, but for one spare edge, marked by a flag bit above the edge bits.
    A state is the set of started, unhit edges and the flag; it keeps the
    fewest vertices taken to reach it and its links, the states a step back
    that reach it with that many.  A vertex that hits no edge of the state is
    never taken: all its edges have started, so the cover without it misses
    the same edges, and no optimum holds it.  Taking every other vertex hits
    each edge at its first vertex, so an end state is always reached.  With
    cap, optima are the sorted masks of the link paths from the empty state
    to an end, built in one pass back along the links that gives up as soon
    as a step holds more than cap of their tails; without cap, or past it,
    they are None.
    """
    firm = (1 << len(edges)) - 1  # the edges that must be hit
    edges = [*edges, *spare]
    flag = 1 << len(edges)
    worse = len(order) + 1  # more than any count
    hold = _hold(edges) + [0] * len(order)
    start, due = [0] * len(order), [0] * len(order)
    step = {v: i for i, v in enumerate(order)}
    for i, m in enumerate(edges):
        steps = [step[v] for v in bits(m)]
        start[min(steps)] |= 1 << i
        due[max(steps)] |= 1 << i
    states = {0: 0}
    trail = [(states, {})]  # each step's states and links, when listing
    for i, v in enumerate(order):
        after, links = {}, {}
        for prev, count in states.items():
            state = prev | start[i]
            late = state & due[i]
            if not (late & firm or late & (late - 1) or late and state & flag):
                left = state ^ late | flag if late else state
                known = after.get(left, worse)
                if count < known:
                    after[left], links[left] = count, [prev]
                elif count == known:
                    links[left].append(prev)
            if state & hold[v]:
                state &= ~hold[v]
                known = after.get(state, worse)
                if count < known - 1:
                    after[state], links[state] = count + 1, [prev]
                elif count == known - 1:
                    links[state].append(prev)
        if len(after) > STATE_CAP:
            return None
        states = after
        if cap is not None:
            trail.append((states, links))
    value = min(states.get(0, worse), states.get(flag, worse))
    if cap is None:
        return value, None
    # Walk the links back once, carrying each state's tails, the masks of its
    # link paths on to an end.  Every state has a min-count link path from
    # the empty state, so the tails held at a step never outnumber the
    # optima, and at the empty state they are the optima.
    tails = {s: [0] for s in (0, flag) if states.get(s) == value}
    for i in range(len(order), 0, -1):
        (before, _), (now, links), bit = trail[i - 1], trail[i], 1 << order[i - 1]
        heads: dict[int, list[int]] = {}
        held = 0
        for s, masks in tails.items():
            for p in links[s]:
                held += len(masks)
                if held > cap:
                    return value, None
                grown = [m | bit for m in masks] if now[s] > before[p] else masks
                heads.setdefault(p, []).extend(grown)
        tails = heads
    return value, sorted(tails[0])


def _check_qrose(n: int, q: int) -> None:
    """Refuse the order and q of a complete q-rose unless 2 <= q < n."""
    if not 2 <= q < n:
        raise ValueError("q-rose needs 2 <= q < n")


def tau_q_rose(n: int, q: int) -> int:
    """Covering number of the complete q-rose of order n: n - q + 1."""
    _check_qrose(n, q)
    return n - q + 1


def qrose_clutter(n: int, q: int) -> Clutter:
    """The complete q-rose materialized: every q-subset of {0..n-1}."""
    _check_qrose(n, q)
    subs = list(combinations(range(n), q))
    return Clutter(n, tuple(map(mask_of, subs)), tuple((f"rose{list(sub)}",) for sub in subs))
