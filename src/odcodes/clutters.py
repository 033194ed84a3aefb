"""Code hypergraphs and their clutters.

For a graph and a code kind, the hypergraph has one domination edge per
vertex (closed or open neighborhood) and one separation edge per vertex pair
(a symmetric difference, widened by the pair itself for locating kinds).  A
vertex set is a code exactly when it hits every edge, so the covering number
of the hypergraph is the code number.  Reduction removes superset-redundant
edges, yielding the clutter together with its forced vertices (singleton
edges), multi-vertex edges, and the ground-irrelevant vertex set.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .graphs import CodeKind, Graph, _is_int, bits, code_masks, is_admissible, mask_of


class InadmissibleGraphError(ValueError):
    """The graph admits no code of the requested kind."""


class ClutterFormatError(ValueError):
    """Raised when clutter JSON violates the clutter layout."""


def require_admissible(g: Graph, kind: CodeKind) -> None:
    """Raise InadmissibleGraphError, naming the obstruction, unless the graph
    has a code of the kind."""
    adm = is_admissible(g, kind)
    if not adm.ok:
        raise InadmissibleGraphError(f"graph is not {kind.value}-admissible: {adm.reason}")


def _clutter_order(width: int) -> Callable[[int], int]:
    """Sort key of clutter edges below 1 << width: by size, then by member tuple.

    Of two equal-size edges, A's member tuple comes first iff the lowest
    vertex of A ^ B lies in A, that is iff A with its bits reversed over
    width places is the larger int; so the key is the size, shifted past
    width bits, minus that reversal.
    """
    spec = f"0{width}b"

    def key(mask: int) -> int:
        return (mask.bit_count() << width) - int(format(mask, spec)[::-1], 2)

    return key


@dataclass(frozen=True)
class Hyperedge:
    members: int  # bitmask over the graph's vertices
    sources: tuple[str, ...]  # provenance: "N[v]", "N(v)", or "delta(u,v)"

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.members))


@dataclass(frozen=True)
class Hypergraph:
    n: int
    kind: CodeKind
    masks: tuple[int, ...]  # hyperedge i is masks[i], from sources[i]
    sources: tuple[str, ...]  # one per hyperedge: "N[v]", "N(v)" or "delta(u,v)"

    @property
    def edges(self) -> tuple[Hyperedge, ...]:
        return tuple(Hyperedge(m, (s,)) for m, s in zip(self.masks, self.sources))


@dataclass(frozen=True)
class Clutter:
    """Antichain of non-redundant edges, sorted by (size, member tuple)."""

    n: int
    edges: tuple[Hyperedge, ...]
    kind: CodeKind | None = None

    @property
    def f1(self) -> frozenset[int]:
        return frozenset(v for e in self.edges if e.size == 1 for v in e.vertices())

    @property
    def f2(self) -> tuple[Hyperedge, ...]:
        return tuple(e for e in self.edges if e.size >= 2)

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e.vertices())

    @property
    def v0(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.ground

    def edge_masks(self) -> tuple[int, ...]:
        return tuple(e.members for e in self.edges)


def build_hypergraph(g: Graph, kind: CodeKind) -> Hypergraph:
    """All domination and separation edges for the kind.

    Raises InadmissibleGraphError when the graph has no such code (an empty
    separation or domination edge would otherwise appear).
    """
    require_admissible(g, kind)
    dom, sep = code_masks(g, kind)
    tag = "N[{}]" if kind.domination == "closed" else "N({})"
    masks = list(dom)
    sources = [tag.format(v) for v in range(g.n)]
    # a locating pair is only constrained while both lie outside the code,
    # so membership of u or v discharges it
    own = [1 << v if kind.separation == "locating" else 0 for v in range(g.n)]
    for u in range(g.n):
        su, ou, ahead = sep[u], own[u], range(u + 1, g.n)
        masks += [su ^ sep[v] | ou | own[v] for v in ahead]
        sources += [f"delta({u},{v})" for v in ahead]
    return Hypergraph(g.n, kind, tuple(masks), tuple(sources))


def _holds_kept(mask: int, by_low: dict[int, list[int]]) -> bool:
    """Whether mask holds an edge of by_low, which lists edges by lowest vertex."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        for k in by_low.get(low, ()):
            if k & mask == k:
                return True
    return False


def reduce_hypergraph(h: Hypergraph) -> Clutter:
    """Drop duplicate and superset-redundant edges; covering number is kept.

    Duplicates merge into one edge carrying every source tag.  Edges go by
    size, as a proper subset is smaller, each tested against the kept edges
    filed under one of its own vertices as their lowest.  The result is an
    antichain ordered by (size, member tuple).
    """
    merged: dict[int, list[str]] = {}
    for mask, source in zip(h.masks, h.sources):
        merged.setdefault(mask, []).append(source)
    if 0 in merged:
        raise ValueError(f"empty hyperedge from {merged[0]}")
    kept: list[int] = []
    by_low: dict[int, list[int]] = {}
    for mask in sorted(merged, key=int.bit_count):
        if not _holds_kept(mask, by_low):
            kept.append(mask)
            by_low.setdefault(mask & -mask, []).append(mask)
    kept.sort(key=_clutter_order(max(kept, default=0).bit_length()))
    edges = tuple(Hyperedge(m, tuple(sorted(merged[m]))) for m in kept)
    return Clutter(h.n, edges, h.kind)


def build_clutter(g: Graph, kind: CodeKind) -> Clutter:
    return reduce_hypergraph(build_hypergraph(g, kind))


def forced_vertices_direct(g: Graph) -> frozenset[int]:
    """Forced vertices of the open-separation dominating clutter, computed
    without building it: isolated vertices plus every vertex that is the sole
    open-separator of some non-adjacent pair."""
    require_admissible(g, CodeKind.OD)
    forced = mask_of(v for v in range(g.n) if g.adj[v] == 0)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            d = g.delta_open_mask(u, v)
            if d.bit_count() == 1:
                forced |= d
    return frozenset(bits(forced))


def clutter_to_json(c: Clutter) -> dict:
    obj = {
        "schema": 1,
        "n": c.n,
        "kind": c.kind.value if c.kind else None,
        "ground": sorted(c.ground),
        "v0": sorted(c.v0),
        "f1": sorted(c.f1),
        "f2": [list(e.vertices()) for e in c.f2],
        "edges": [
            {"vertices": list(e.vertices()), "sources": list(e.sources)} for e in c.edges
        ],
    }
    return obj


def clutter_from_json(obj: dict) -> Clutter:
    """Accepts the clutter_to_json layout or a bare {"n":..., "edges":[[...]]}."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ClutterFormatError("clutter JSON needs 'n' and 'edges' keys")
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise ClutterFormatError("clutter JSON 'n' must be a non-negative integer")
    if not isinstance(obj["edges"], list):
        raise ClutterFormatError("clutter JSON 'edges' must be a list")
    try:
        kind = CodeKind(obj["kind"]) if obj.get("kind") else None
    except ValueError as exc:
        raise ClutterFormatError(str(exc)) from None
    edges = []
    for entry in obj["edges"]:
        if isinstance(entry, dict):
            if "vertices" not in entry:
                raise ClutterFormatError(f"clutter edge entry {entry!r} has no 'vertices' key")
            verts = entry["vertices"]
            sources = entry.get("sources", [])
            if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
                raise ClutterFormatError(
                    f"clutter edge 'sources' {sources!r} is not a list of strings"
                )
            sources = tuple(sources)
        else:
            verts = entry
            sources = ()
        if not isinstance(verts, list):
            raise ClutterFormatError(f"clutter edge entry {entry!r} is not a vertex list")
        mask = 0
        for v in verts:
            if not _is_int(v) or not 0 <= v < n:
                raise ClutterFormatError(f"edge vertex {v!r} is not an integer in 0 <= v < {n}")
            mask |= 1 << v
        if mask == 0:
            raise ClutterFormatError("empty edge in clutter JSON")
        edges.append(Hyperedge(mask, sources))
    order = _clutter_order(n)
    edges.sort(key=lambda e: order(e.members))
    return Clutter(n, tuple(edges), kind)
