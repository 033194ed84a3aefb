"""Deterministic generators for the studied graph families.

Every generator fixes its vertex layout and tags structural roles through
``Graph.labels`` (q1.., s0.., c1.., u1.., w1.., and "u" for a universal
vertex), so downstream role-aware checks can find the parts again.  Where a
closed form for a code number is known, ``predicted_gamma`` exposes it as a
test oracle; pairs the literature leaves open are simply omitted rather than
guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import combinations

from .graphs import CodeKind, Graph, open_twins


# -- generators ------------------------------------------------------------------


def clique(n: int) -> Graph:
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def matching(k: int) -> Graph:
    """k disjoint edges."""
    if k < 1:
        raise ValueError("matching needs k >= 1")
    return Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def _cliques(sizes, base: int) -> tuple[list[tuple[int, int]], dict[int, str]]:
    """Edges and labels of disjoint cliques on consecutive vertices from base;
    vertex a of clique i is labelled k{i}_{a}, both counted from 1."""
    edges: list[tuple[int, int]] = []
    labels = {}
    for i, s in enumerate(sizes, 1):
        block = range(base, base + s)
        labels.update({v: f"k{i}_{a}" for a, v in enumerate(block, 1)})
        edges += combinations(block, 2)
        base += s
    return edges, labels


def union_of_cliques(sizes) -> Graph:
    """Disjoint union of cliques, every component of order >= 2."""
    sizes = tuple(sorted(sizes))
    if len(sizes) < 2:
        raise ValueError("union of cliques needs k >= 2 components")
    if sizes[0] < 2:
        raise ValueError("every component must have order >= 2")
    return Graph.from_edges(sum(sizes), *_cliques(sizes, 0))


def clique_star(sizes) -> Graph:
    """Disjoint cliques joined through one universal vertex (index 0).

    At most one component may have order 1, otherwise two degree-one
    vertices would share the hub as their whole neighborhood.
    """
    sizes = tuple(sorted(sizes))
    if len(sizes) < 2:
        raise ValueError("clique-star needs k >= 2 cliques")
    if any(s < 1 for s in sizes):
        raise ValueError("clique orders must be >= 1")
    if sizes[1] < 2:
        raise ValueError("at most one clique of order 1 is allowed")
    n = 1 + sum(sizes)
    edges, labels = _cliques(sizes, 1)
    edges += [(0, v) for v in range(1, n)]
    return Graph.from_edges(n, edges, {0: "u", **labels})


def fan(k: int) -> Graph:
    """k disjoint edges plus a universal vertex."""
    if k < 2:
        raise ValueError("fan needs k >= 2")
    return clique_star([2] * k)


def half_graph(k: int) -> Graph:
    """Bipartite staircase: u_i adjacent to w_j exactly when i <= j."""
    if k < 1:
        raise ValueError("half-graph needs k >= 1")
    labels = {i: f"u{i + 1}" for i in range(k)}
    labels.update({k + j: f"w{j + 1}" for j in range(k)})
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    return Graph.from_edges(2 * k, edges, labels)


def double_star(k: int) -> Graph:
    """Hub u0 joined to w_1..w_k, each w_i carrying a private leaf u_i."""
    if k < 2:
        raise ValueError("double star needs k >= 2")
    labels = {0: "u0"}
    labels.update({i: f"u{i}" for i in range(1, k + 1)})
    labels.update({k + i: f"w{i}" for i in range(1, k + 1)})
    edges = [(i, k + i) for i in range(1, k + 1)] + [(0, k + i) for i in range(1, k + 1)]
    return Graph.from_edges(2 * k + 1, edges, labels)


def _spider_labels(k: int) -> dict[int, str]:
    labels = {i: f"q{i + 1}" for i in range(k)}
    labels.update({k + i: f"s{i + 1}" for i in range(k)})
    return labels


def thin_spider(k: int) -> Graph:
    """Split graph: clique q_1..q_k, stable s_1..s_k, s_i matched to q_i."""
    if k < 3:
        raise ValueError("headless spider needs k >= 3")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges, _spider_labels(k))


def thick_spider(k: int) -> Graph:
    """Split graph: clique q_1..q_k, stable s_1..s_k, s_i joined to all q_j, j != i."""
    if k < 3:
        raise ValueError("headless spider needs k >= 3")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(j, k + i) for i in range(k) for j in range(k) if j != i]
    return Graph.from_edges(2 * k, edges, _spider_labels(k))


def extended_thin_spider(k: int) -> Graph:
    """Thin spider plus an extra stable vertex s0 joined to q_1..q_{k-1}."""
    if k < 3:
        raise ValueError("extended thin spider needs k >= 3")
    labels = {i: f"q{i + 1}" for i in range(k)}
    labels[k] = "s0"
    labels.update({k + i: f"s{i}" for i in range(1, k + 1)})
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + 1 + i) for i in range(k)]
    edges += [(j, k) for j in range(k - 1)]
    return Graph.from_edges(2 * k + 1, edges, labels)


def thin_sun(k: int, chords=()) -> Graph:
    """Cycle c_1..c_k with chord set (1-based position pairs) and a private
    pendant s_i on every c_i."""
    if k < 3:
        raise ValueError("thin sun needs k >= 3")
    norm = set()
    for i, j in chords:
        if not (1 <= i <= k and 1 <= j <= k) or i == j:
            raise ValueError(f"chord ({i}, {j}) out of range")
        a, b = min(i, j), max(i, j)
        if b - a == 1 or (a == 1 and b == k):
            raise ValueError(f"chord ({i}, {j}) duplicates a cycle edge")
        norm.add((a, b))
    labels = {i: f"c{i + 1}" for i in range(k)}
    labels.update({k + i: f"s{i + 1}" for i in range(k)})
    edges = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
    edges |= {(a - 1, b - 1) for a, b in norm}
    edges |= {(i, k + i) for i in range(k)}
    return Graph.from_edges(2 * k, sorted(edges), labels)


def sunlet(k: int) -> Graph:
    """Chordless thin sun."""
    return thin_sun(k, ())


def all_cycle_chords(k: int) -> tuple[tuple[int, int], ...]:
    """Every non-cycle position pair of a k-cycle, 1-based."""
    out = []
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            if b - a != 1 and not (a == 1 and b == k):
                out.append((a, b))
    return tuple(out)


def almost_complete_thin_sun(l: int) -> Graph:
    """Thin sun on a 2l-cycle whose only missing chords are the antipodal pairs."""
    if l < 3:
        raise ValueError("almost complete thin sun needs l >= 3")
    k = 2 * l
    chords = tuple(
        (a, b) for a, b in all_cycle_chords(k) if (b - a) != l
    )
    return thin_sun(k, chords)


NAMED_GRAPHS = {
    # 4-path with an apex over it
    "gem": (5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
    # complement of the gem: a 4-path plus one isolated vertex
    "gem-complement": (5, [(0, 1), (1, 2), (2, 3)]),
    # triangle 1,2,4 with horns 0 and 3
    "bull": (5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]),
    # 5-path with an extra leaf on its center
    "bow": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
    "2p2": (4, [(0, 1), (2, 3)]),
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "p5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
}


def named_graph(name: str) -> Graph:
    key = name.lower()
    if key == "net":
        return thin_spider(3)
    if key == "sun":
        return thick_spider(3)
    if key not in NAMED_GRAPHS:
        raise ValueError(f"unknown named graph {name!r}")
    n, edges = NAMED_GRAPHS[key]
    return Graph.from_edges(n, edges)


# -- family specs and predictions --------------------------------------------------

# family name -> (generator, the FamilySpec fields it takes: the first is
# required, thin-sun's chords optional).  FAMILIES keeps this order.
_GENERATORS = {
    "clique": (clique, "n"),
    "union-of-cliques": (union_of_cliques, "sizes"),
    "clique-star": (clique_star, "sizes"),
    "fan": (fan, "k"),
    "half-graph": (half_graph, "k"),
    "double-star": (double_star, "k"),
    "thin-spider": (thin_spider, "k"),
    "thick-spider": (thick_spider, "k"),
    "extended-thin-spider": (extended_thin_spider, "k"),
    "sunlet": (sunlet, "k"),
    "thin-sun": (thin_sun, "k", "chords"),
    "almost-complete-thin-sun": (almost_complete_thin_sun, "k"),
    "path": (path_graph, "n"),
    "cycle": (cycle_graph, "n"),
    "matching": (matching, "k"),
    "named": (named_graph, "name"),
}
FAMILIES = tuple(_GENERATORS)


@dataclass(frozen=True)
class FamilySpec:
    """One concrete family member: the family name plus its parameters.

    Conventions: n is a vertex count (clique, path, cycle), k the family
    parameter (and the half cycle length for almost complete thin suns),
    sizes the clique orders, chords 1-based cycle position pairs.
    """

    family: str
    n: int | None = None
    k: int | None = None
    sizes: tuple[int, ...] | None = None
    chords: tuple[tuple[int, int], ...] | None = None
    name: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))
        if self.chords is not None:
            object.__setattr__(self, "chords", tuple(sorted(tuple(c) for c in self.chords)))


@dataclass(frozen=True)
class GammaPrediction:
    kind: CodeKind
    value: int
    source: str


def generate(spec: FamilySpec) -> Graph:
    make, *takes = _GENERATORS[spec.family]
    params = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "family"}
    unused = [name for name, v in params.items() if v is not None and name not in takes]
    if unused:
        raise ValueError(f"family {spec.family!r} does not take {', '.join(unused)}")
    if params[takes[0]] is None:
        raise ValueError(f"family parameter {takes[0]!r} is required")
    return make(*(params[name] for name in takes if params[name] is not None))


_NAMED_PREDICTIONS = {
    "gem": ((CodeKind.OD, 3), (CodeKind.ID, 4)),
    "gem-complement": ((CodeKind.OD, 5), (CodeKind.ID, 4)),
    "bull": ((CodeKind.OD, 3), (CodeKind.ITD, 4)),
    "bow": ((CodeKind.OD, 5), (CodeKind.ITD, 3)),
    "2p2": ((CodeKind.OD, 3), (CodeKind.LTD, 4)),
    "p4": ((CodeKind.OD, 3), (CodeKind.LTD, 2)),
    "p5": ((CodeKind.OD, 3), (CodeKind.OTD, 4)),
    "net": ((CodeKind.OD, 3), (CodeKind.OTD, 3)),
    "sun": ((CodeKind.OD, 4), (CodeKind.OTD, 4)),
}


def predicted_gamma(spec: FamilySpec) -> tuple[GammaPrediction, ...]:
    """Closed-form code numbers known for this family member.

    Only pairs with a published value are emitted; everything returned here
    is an exact expectation for the solver.
    """
    f = spec.family
    preds: list[GammaPrediction] = []

    def add(kind, value, source):
        preds.append(GammaPrediction(kind, value, source))

    if f == "clique" and spec.n >= 2:
        add(CodeKind.OD, spec.n - 1, "clique clutter")
        add(CodeKind.OTD, 2 if spec.n == 2 else spec.n - 1, "clique total-domination")
    elif f == "matching":
        k = spec.k
        add(CodeKind.OD, 2 * k - 1, "matching clutter")
        add(CodeKind.OTD, 2 * k, "component sum")
    elif f == "union-of-cliques":
        sizes = spec.sizes
        twos = sum(1 for s in sizes if s == 2)
        big = sum(s - 1 for s in sizes if s >= 3)
        if twos:
            add(CodeKind.OD, 2 * twos - 1 + big, "union of cliques, case with 2-components")
        else:
            add(CodeKind.OD, big, "union of cliques, all components >= 3")
        add(CodeKind.OTD, 2 * twos + big, "component sum")
    elif f == "clique-star":
        sizes = spec.sizes
        big = sum(s - 1 for s in sizes if s >= 3)
        twos = sum(1 for s in sizes if s == 2)
        if sizes[0] == 1:
            val = 2 * (1 + twos) - 1 + big
            add(CodeKind.OD, val, "clique-star with a 1-component")
            add(CodeKind.OTD, val, "clique-star with a 1-component")
        elif twos:
            add(CodeKind.OD, 2 * twos - 1 + big, "clique-star with 2-components")
            add(CodeKind.OTD, 2 * twos + big, "clique-star with 2-components")
        else:
            add(CodeKind.OD, big, "clique-star, all components >= 3")
            add(CodeKind.OTD, big, "clique-star, all components >= 3")
    elif f == "fan":
        add(CodeKind.OD, 2 * spec.k - 1, "fan clutter")
        add(CodeKind.OTD, 2 * spec.k, "fan clutter")
    elif f == "half-graph":
        add(CodeKind.OD, 2 * spec.k - 1, "half-graph clutter")
        add(CodeKind.OTD, 2 * spec.k, "half-graph extremal order")
    elif f == "double-star":
        add(CodeKind.OD, 2 * spec.k - 1, "double-star clutter")
        add(CodeKind.OTD, 2 * spec.k, "double-star clutter")
    elif f == "thin-spider":
        add(CodeKind.OD, spec.k, "thin spider clutter")
        add(CodeKind.OTD, spec.k, "thin spider clutter")
    elif f == "thick-spider":
        add(CodeKind.OD, spec.k + 1, "thick spider clutter")
        add(CodeKind.OTD, spec.k + 1, "thick spider clutter")
    elif f == "extended-thin-spider":
        # the closed forms hold from k = 4 on; E_3 has extra forced vertices
        if spec.k >= 4:
            add(CodeKind.OD, spec.k, "extended thin spider clutter")
            add(CodeKind.OTD, spec.k + 1, "extended thin spider clutter")
    elif f in ("sunlet", "thin-sun"):
        k = spec.k
        g = generate(spec)
        if k == 3:
            add(CodeKind.OD, 3, "thin spider clutter")
            add(CodeKind.OTD, 3, "thin spider clutter")
        elif k >= 4 and not open_c_twins(g):
            add(CodeKind.OD, k, "thin sun without open C-twins")
            add(CodeKind.OTD, k, "thin sun without open C-twins")
    elif f == "almost-complete-thin-sun":
        add(CodeKind.OD, 3 * spec.k - 1, "almost complete thin sun")
        add(CodeKind.OTD, 3 * spec.k, "almost complete thin sun")
    elif f in ("path", "named"):
        name = f"p{spec.n}" if f == "path" else spec.name.lower()
        for kind, value in _NAMED_PREDICTIONS.get(name, ()):
            add(kind, value, "comparison table")
    return tuple(preds)


# -- role and thin sun helpers -----------------------------------------------------------


def role_sequence(g: Graph, prefix: str) -> list[int]:
    """Vertices labeled prefix1, prefix2, ... (e.g. c1..ck), in index order."""
    found = {}
    for v, lab in g.labels.items():
        tail = lab[len(prefix) :]
        if lab.startswith(prefix) and tail.isdigit():
            found[int(tail)] = v
    return [found[i] for i in sorted(found)]


def open_c_twins(g: Graph) -> list[tuple[int, int]]:
    """Non-adjacent cycle-vertex pairs with the same cycle-restricted
    neighborhood, for graphs generated with thin-sun roles."""
    cycle_vs = role_sequence(g, "c")
    if not cycle_vs:
        raise ValueError("graph carries no thin-sun roles")
    cmask = sum(1 << v for v in cycle_vs)
    pairs = []
    for i, u in enumerate(cycle_vs):
        for v in cycle_vs[i + 1 :]:
            # u lies in N(v) but not in N(u), so adjacent pairs never match
            if g.adj[u] & cmask == g.adj[v] & cmask:
                pairs.append((u, v))
    return pairs


# -- randomized corpus plumbing ------------------------------------------------------


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_od_admissible(
    n: int, p: float, rng: random.Random, forbid_isolated: bool = True, tries: int = 10_000
) -> Graph:
    """Rejection-sample a graph without open twins (and, by default, without
    isolated vertices).  Test plumbing for the randomized property suites."""
    for _ in range(tries):
        g = random_graph(n, p, rng)
        if open_twins(g):
            continue
        if forbid_isolated and any(g.adj[v] == 0 for v in range(n)):
            continue
        return g
    raise RuntimeError(f"no admissible sample found for n={n}, p={p}")
