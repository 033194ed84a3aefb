"""Independent brute-force oracles for the test suite.

Everything here is written directly from the definitions with plain Python
sets, deliberately sharing no code path with the library internals, so the
fast bitmask implementations are checked against a second route.
"""

from itertools import combinations, permutations, product


def _naive_sets(g, code, kind):
    """(domination sets, vertices to separate, their traces on the code)."""
    code = set(code)
    nopen = {v: {u for u in range(g.n) if g.has_edge(v, u)} for v in range(g.n)}
    nclosed = {v: nopen[v] | {v} for v in range(g.n)}
    dom = nclosed if kind.domination == "closed" else nopen
    sep = kind.separation
    if sep == "open-sep":
        pool = list(range(g.n))
        trace = {v: frozenset(nopen[v] & code) for v in pool}
    elif sep == "closed-sep":
        pool = list(range(g.n))
        trace = {v: frozenset(nclosed[v] & code) for v in pool}
    else:
        pool = [v for v in range(g.n) if v not in code]
        trace = {v: frozenset(nopen[v] & code) for v in pool}
    return dom, pool, trace


def naive_is_code(g, code, kind) -> bool:
    """Definition-level X-code check using plain sets."""
    dom, pool, trace = _naive_sets(g, code, kind)
    if any(not dom[v] & set(code) for v in range(g.n)):
        return False
    return all(trace[u] != trace[v] for u, v in combinations(pool, 2))


def naive_unseparated(g, code, kind):
    """Every pair left unseparated with its shared trace, in verify's order:
    by the lowest vertex sharing the pair's trace, then by the pair."""
    _, pool, trace = _naive_sets(g, code, kind)
    pairs = [(u, v) for u, v in combinations(pool, 2) if trace[u] == trace[v]]
    first = {t: min(w for w in pool if trace[w] == t) for t in trace.values()}
    return [(u, v, trace[u]) for u, v in sorted(pairs, key=lambda p: (first[trace[p[0]]], p))]


def naive_gamma(g, kind):
    """Smallest X-code by subset scan in size order; None when none exists."""
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if naive_is_code(g, cand, kind):
                return size, frozenset(cand)
    return None


def naive_min_cover(n, edge_sets):
    """Minimum hitting set of the edge family by full subset scan."""
    edge_sets = [set(e) for e in edge_sets]
    for size in range(n + 1):
        for cand in combinations(range(n), size):
            chosen = set(cand)
            if all(e & chosen for e in edge_sets):
                return size, frozenset(cand)
    raise AssertionError("some edge is empty")


def naive_spare_covers(n, hard, spare):
    """Every smallest vertex set that meets each hard edge and misses at most
    one spare edge, by full subset scan in size order: (size, the sets as
    sorted bitmasks)."""
    hard, spare = [set(e) for e in hard], [set(e) for e in spare]
    for size in range(n + 1):
        found = []
        for cand in combinations(range(n), size):
            chosen = set(cand)
            if all(e & chosen for e in hard) and sum(not e & chosen for e in spare) <= 1:
                found.append(sum(1 << v for v in cand))
        if found:
            return size, sorted(found)
    raise AssertionError("some hard edge is empty, or two spare edges are")


def all_covers(n, edge_sets):
    """Every 0/1 cover of the edge family over ground {0..n-1}."""
    masks = [sum(1 << v for v in e) for e in edge_sets]
    out = []
    for x in range(1 << n):
        if all(x & m for m in masks):
            out.append(x)
    return out


def naive_girth(g):
    """Shortest cycle length by DFS over simple paths (small graphs only)."""
    import math

    best = math.inf
    adj = {v: [u for u in range(g.n) if g.has_edge(v, u)] for v in range(g.n)}

    def extend(start, path, seen):
        nonlocal best
        if len(path) > g.n:
            return
        for y in adj[path[-1]]:
            if y == start and len(path) >= 3:
                best = min(best, len(path))
            elif y > start and y not in seen:
                extend(start, path + [y], seen | {y})

    for s in range(g.n):
        extend(s, [s], {s})
    return best


def are_isomorphic(g1, g2) -> bool:
    """Permutation brute force, for tiny graphs in tests."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != sorted(g2.degree(v) for v in range(g2.n)):
        return False
    e2 = {frozenset(e) for e in g2.edges()}
    for perm in permutations(range(g1.n)):
        if all(frozenset((perm[u], perm[v])) in e2 for u, v in g1.edges()):
            return True
    return False


def _reference_greedy(masks):
    """Max-coverage greedy cover as a bitmask, ties broken by lowest vertex.

    Counts, not bitsets: hits[v] is the number of uncovered edges that hold
    v, each copy of a repeated edge counted, and taking v subtracts every
    edge it covers from the counts of that edge's vertices.
    """
    copies = {}
    for m in masks:
        copies[m] = copies.get(m, 0) + 1
    members = {m: [v for v in range(m.bit_length()) if m >> v & 1] for m in copies}
    hits, holding = {}, {}
    for m, k in copies.items():
        for v in members[m]:
            hits[v] = hits.get(v, 0) + k
            holding.setdefault(v, []).append(m)
    order = sorted(hits)
    uncovered = set(copies)
    chosen = 0
    while uncovered:
        best_v = max(order, key=hits.__getitem__)
        chosen |= 1 << best_v
        for m in holding[best_v]:
            if m in uncovered:
                uncovered.remove(m)
                for v in members[m]:
                    hits[v] -= copies[m]
    return chosen


def reference_min_cover(c, cap=None):
    """The list-based branch and bound that predates the packed-edge search.

    Kept verbatim in behaviour (same greedy incumbent, same absorb / sort /
    packing bound / branch order, same node counting) so the library's search
    can be required to walk exactly the same tree; it lists the optima up to
    cap unless cap is None.  Returns the tuple
    (value, witness, nodes_explored, all_optima, truncated).
    """
    enumerate_all = cap is not None

    def members(mask):
        return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)

    def key(m):
        return (m.bit_count(), m)

    def absorb(edges, selected):
        count = 0
        while True:
            forced = 0
            for m in edges:
                if m == 0:
                    return None
                if m.bit_count() == 1:
                    forced |= m
            if not forced:
                break
            selected |= forced
            count += forced.bit_count()
            edges = [m for m in edges if not m & forced]
        return edges, selected, count

    def packing(edges):
        used = count = 0
        for m in edges:
            if not m & used:
                used |= m
                count += 1
        return count

    def branch_vertex(edges):
        best_v, best_freq = -1, -1
        for v in sorted(members(edges[0])):
            freq = sum(1 for m in edges if m >> v & 1)
            if freq > best_freq:
                best_v, best_freq = v, freq
        return best_v

    base = sorted(set(c.edges), key=key)
    if not base:
        return 0, frozenset(), 0, ((frozenset(),) if enumerate_all else None), False
    if any(m == 0 for m in base):
        raise ValueError("clutter has an empty edge")

    greedy = _reference_greedy(c.edges)
    state = {"best": greedy.bit_count(), "witness": greedy, "nodes": 0}

    def search(edges, selected, count):
        state["nodes"] += 1
        absorbed = absorb(edges, selected)
        if absorbed is None:
            return
        edges, selected, extra = absorbed
        count += extra
        if not edges:
            if count < state["best"]:
                state["best"] = count
                state["witness"] = selected
            return
        edges.sort(key=key)
        if count + packing(edges) >= state["best"]:
            return
        vbit = 1 << branch_vertex(edges)
        search([m for m in edges if not m & vbit], selected | vbit, count + 1)
        search([m & ~vbit for m in edges], selected, count)

    search(list(base), 0, 0)
    value = state["best"]
    optima_out = None
    truncated = False
    if enumerate_all:
        optima = []

        def enum(edges, selected, count):
            state["nodes"] += 1
            absorbed = absorb(edges, selected)
            if absorbed is None:
                return True
            edges, selected, extra = absorbed
            count += extra
            if count > value:
                return True
            if not edges:
                if count == value:
                    if len(optima) >= cap:
                        return False
                    optima.append(selected)
                return True
            edges.sort(key=key)
            if count + packing(edges) > value:
                return True
            vbit = 1 << branch_vertex(edges)
            if not enum([m for m in edges if not m & vbit], selected | vbit, count + 1):
                return False
            return enum([m & ~vbit for m in edges], selected, count)

        truncated = not enum(list(base), 0, 0)
        optima_out = tuple(members(m) for m in sorted(optima))
    return value, members(state["witness"]), state["nodes"], optima_out, truncated


def reference_reduce_hypergraph(h):
    """The clutter of the all-pairs scan that predates the lowest-vertex
    index, by a route that uses no such index: merge duplicate edges, keep
    each edge that holds no kept edge, and sort the kept ones by (size,
    member tuple).  The edges go by size, and each kept edge marks the edges
    that hold it at once, the AND of its vertices' columns: bit i of
    column[v] is whether the i-th edge holds v.  An edge that holds a
    dropped one holds what that one holds, so marking from kept edges alone
    drops every superset.  Returns the library's Clutter type."""
    from odcodes.clutters import Clutter

    def members(mask):
        return [v for v, c in enumerate(bin(mask)[:1:-1]) if c == "1"]

    merged = {}
    for m, s in zip(h.edges, h.sources):
        if m == 0:
            raise ValueError(f"empty hyperedge from {(s,)}")
        merged.setdefault(m, []).append(s)
    ordered = sorted(merged, key=int.bit_count)
    # Row i is edge i as a binary numeral over n places, vertex v at place
    # n - 1 - v; column j, read from the last row up, is vertex n - 1 - j's.
    rows = [format(m, f"0{h.n}b") for m in reversed(ordered)]
    column = [int("".join(chars), 2) for chars in zip(*rows)][::-1] if rows else []
    kept, dropped = [], 0
    for i, m in enumerate(ordered):
        if not dropped >> i & 1:
            kept.append(m)
            holders = -1
            for v in members(m):
                holders &= column[v]
            dropped |= holders & ~(1 << i)
    kept.sort(key=lambda m: (m.bit_count(), members(m)))
    return Clutter(h.n, tuple(kept), tuple(tuple(sorted(merged[m])) for m in kept), h.kind)


def reference_saturate(n_vars, clauses):
    """The saturation loop that predates the one-pass padding: recount every
    literal, pad the smallest once-occurring one (by variable, positive
    first) with a fresh y and the clauses (L or y) and (y), and repeat until
    no literal occurs once.  Returns (n_vars, clauses)."""
    clauses = list(clauses)
    while True:
        counts = {}
        for c in clauses:
            for lit in c:
                counts[lit] = counts.get(lit, 0) + 1
        once = sorted((l for l, k in counts.items() if k == 1), key=lambda l: (abs(l), l < 0))
        if not once:
            return n_vars, clauses
        n_vars += 1
        clauses += [frozenset({once[0], n_vars}), frozenset({n_vars})]


def reference_canonical(idx, tables):
    """True when no table maps the ascending universe-index list idx to a
    lexicographically smaller sorted list: idx is its class's representative."""
    first = idx[0]
    for table in tables:
        low = min(table[i] for i in idx)
        if low < first:
            return False
        if low == first and sorted(table[i] for i in idx) < idx:
            return False
    return True


def reference_transform_tables(n_vars, universe):
    """The symmetry tables as the library built them before it composed
    them: one pass per (relabeling, flip) pair, mapping each clause's
    literals and looking the image up by frozenset; identity excluded."""
    position = {c: i for i, c in enumerate(universe)}
    tables = []
    for perm in permutations(range(1, n_vars + 1)):
        for flips in product((1, -1), repeat=n_vars):
            if all(perm[v - 1] == v and flips[v - 1] == 1 for v in range(1, n_vars + 1)):
                continue

            def mapped(lit):
                v = abs(lit)
                sign = (1 if lit > 0 else -1) * flips[v - 1]
                return sign * perm[v - 1]

            tables.append([position[frozenset(mapped(l) for l in c)] for c in universe])
    return tables


def reference_enumerate_slsat(max_vars, max_clauses):
    """The SLSAT enumerator that predates the int search state, kept verbatim
    but for its canonicity test, factored out as reference_canonical, and its
    tables, built by reference_transform_tables: a literal-count dict, a
    pairwise share matrix and per-node rescans of both, testing canonicity
    only at saturated leaves by sorting each table's image.  It shares only
    clause_universe and LsatInstance with the library."""
    from odcodes.sat_reduction import LsatInstance, clause_universe

    for n in range(1, max_vars + 1):
        universe = clause_universe(n)
        tables = reference_transform_tables(n, universe)
        share_ok = [[len(a & b) <= 1 for b in universe] for a in universe]
        counts: dict[int, int] = {}
        chosen: list[int] = []
        results: list[tuple[int, ...]] = []

        def saturated_with_all_vars() -> bool:
            if not chosen:
                return False
            used = set()
            for lit, k in counts.items():
                if k == 1:
                    return False
                if k:
                    used.add(abs(lit))
            return len(used) == n

        def rec(start: int) -> None:
            if saturated_with_all_vars() and reference_canonical(chosen, tables):
                results.append(tuple(chosen))
            if len(chosen) >= max_clauses:
                return
            deficit = sum(1 for k in counts.values() if k == 1)
            unused = n - len({abs(l) for l, k in counts.items() if k})
            if deficit + 2 * unused > 3 * (max_clauses - len(chosen)):
                return
            for i in range(start, len(universe)):
                c = universe[i]
                if any(counts.get(l, 0) >= 2 for l in c):
                    continue
                if any(not share_ok[i][j] for j in chosen):
                    continue
                for l in c:
                    counts[l] = counts.get(l, 0) + 1
                chosen.append(i)
                rec(i + 1)
                chosen.pop()
                for l in c:
                    counts[l] -= 1

        rec(0)
        for idxs in results:
            yield LsatInstance(n, tuple(universe[i] for i in idxs))


def _reference_covers(sys, c):
    """Every 0/1 cover of the clutter in ascending order, by full 2^n scan."""
    if sys.n != c.n:
        raise ValueError("system and clutter sizes differ")
    masks = c.edges
    return [x for x in range(1 << c.n) if all(x & m for m in masks)]


def reference_first_violation(sys):
    """The point test of the system, counted on vertex sets and not on the
    library's masks: a function from a 0/1 point (an int) to the first
    equation (as its vertex) or inequality it breaks, or None."""
    supports = [
        (con, {v for v in range(sys.n) if con.mask >> v & 1}) for con in sys.inequalities
    ]

    def first_violation(x):
        point = {v for v in range(sys.n) if x >> v & 1}
        for v in sys.equalities:
            if v not in point:
                return v
        for con, support in supports:
            if len(point & support) < con.rhs:
                return con
        return None

    return first_violation


def reference_check_validity(sys, c):
    """The 2^n scan that predates the minimal-cover checks: the smallest
    cover as an int that breaks the system, with the constraint it breaks."""
    from odcodes.polyhedra import RankConstraint, ValidityReport

    first_violation = reference_first_violation(sys)
    for x in _reference_covers(sys, c):
        broken = first_violation(x)
        if broken is None:
            continue
        if isinstance(broken, RankConstraint):
            support = [v for v in range(c.n) if broken.mask >> v & 1]
            wording = f"x({support}) >= {broken.rhs}"
        else:
            wording = f"x_{broken} = 1"
        members = frozenset(v for v in range(c.n) if x >> v & 1)
        return ValidityReport(False, (members, wording))
    return ValidityReport(True)


def reference_check_tightness(sys, c):
    """The 2^n scan: each inequality's witness is the smallest cover as an
    int at which it holds with equality."""
    from odcodes.polyhedra import TightnessReport

    pending = dict(enumerate(sys.inequalities))
    witnesses = {}
    for x in _reference_covers(sys, c):
        for i in [i for i, con in pending.items() if (x & con.mask).bit_count() == con.rhs]:
            witnesses[i] = frozenset(v for v in range(c.n) if x >> v & 1)
            del pending[i]
        if not pending:
            break
    return TightnessReport(
        ok=not pending,
        never_tight=tuple(pending[i] for i in sorted(pending)),
        witnesses=tuple((sys.inequalities[i], witnesses[i]) for i in sorted(witnesses)),
    )


def reference_integer_hull_equiv(sys, c):
    """The 2^n scan: the smallest point as an int that is a cover outside
    the system or a system point that is no cover."""
    from odcodes.polyhedra import HullReport

    covers = set(_reference_covers(sys, c))
    first_violation = reference_first_violation(sys)
    for x in range(1 << c.n):
        is_cover = x in covers
        if is_cover != (first_violation(x) is None):
            direction = "cover-outside-system" if is_cover else "system-point-not-cover"
            return HullReport(False, frozenset(v for v in range(c.n) if x >> v & 1), direction)
    return HullReport(True)


def minimum_over_system(sys):
    """Smallest 1-count of a 0/1 point satisfying the system, by full scan.
    The all-ones point always does, as every rhs is at most its support size."""
    first_violation = reference_first_violation(sys)
    return min(x.bit_count() for x in range(1 << sys.n) if first_violation(x) is None)
