"""Finite simple graphs with the neighborhood algebra used by separation codes.

Vertices are dense 0-based indices.  Every vertex set is a Python int used as
a bitmask (bit v set means vertex v belongs to the set): ``adj[v]`` is N(v),
``closed_mask(v)`` is N[v] and ``delta_open_mask(u, v)`` is N(u) ^ N(v), so
symmetric differences and subset tests stay single int operations.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations


class GraphFormatError(ValueError):
    """Raised when a graph file violates the text or JSON format."""


def mask_of(vertices) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Iterate over the vertex indices set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CodeKind(Enum):
    """The six separation/domination code flavors.

    Each kind pairs a domination rule (closed uses N[v], open uses N(v)) with
    a separation rule (open-sep and closed-sep constrain all vertex pairs,
    locating only pairs outside the code).
    """

    OD = "OD"
    OTD = "OTD"
    ID = "ID"
    ITD = "ITD"
    LD = "LD"
    LTD = "LTD"

    @property
    def domination(self) -> str:
        return _DOMINATION[self]

    @property
    def separation(self) -> str:
        return _SEPARATION[self]


_DOMINATION = {
    CodeKind.OD: "closed",
    CodeKind.OTD: "open",
    CodeKind.ID: "closed",
    CodeKind.ITD: "open",
    CodeKind.LD: "closed",
    CodeKind.LTD: "open",
}

_SEPARATION = {
    CodeKind.OD: "open-sep",
    CodeKind.OTD: "open-sep",
    CodeKind.ID: "closed-sep",
    CodeKind.ITD: "closed-sep",
    CodeKind.LD: "locating",
    CodeKind.LTD: "locating",
}


class Graph:
    """Immutable simple graph: symmetric, loop-free adjacency over 0..n-1.

    ``labels`` is an optional vertex -> string map used to tag structural
    roles (gadget parts, family roles); it never affects the algebra.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: tuple[int, ...], labels: dict[int, str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, m in enumerate(adj):
            if m & ~full:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(m):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric on pair ({u}, {v})")
        if labels:
            for v in labels:
                if not 0 <= v < n:
                    raise ValueError(f"label on out-of-range vertex {v}")
        self.n = n
        self.adj = tuple(adj)
        self.labels = dict(labels) if labels else {}

    @classmethod
    def from_edges(cls, n: int, edges, labels: dict[int, str] | None = None) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), labels)

    # -- neighborhood algebra ------------------------------------------------

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def delta_open_mask(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("symmetric difference needs two distinct vertices")
        return self.adj[u] ^ self.adj[v]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u] >> u + 1 << u + 1)]

    @property
    def m(self) -> int:
        return sum(d.bit_count() for d in self.adj) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- twins and admissibility ---------------------------------------------------


def open_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs u < v with N(u) = N(v)."""
    return _twin_pairs(g.adj)


def _twin_pairs(nbhds: tuple[int, ...]) -> list[tuple[int, int]]:
    groups: dict[int, list[int]] = {}
    for v, m in enumerate(nbhds):
        groups.setdefault(m, []).append(v)
    return sorted(pair for members in groups.values() for pair in combinations(members, 2))


@dataclass(frozen=True)
class Admissibility:
    """Whether a graph admits a code of the given kind, with the obstruction."""

    kind: CodeKind
    ok: bool
    reason: str = ""
    twin_pairs: tuple[tuple[int, int], ...] = ()
    isolated: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def code_masks(g: Graph, kind: CodeKind) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-vertex bitmasks (dom, sep) of a kind: a code meets every dom[v],
    and its traces on the sep[v] tell apart every two vertices (for locating
    kinds, every two outside the code).  The one map from a kind to closed
    or open neighborhoods."""
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    dom = closed if kind.domination == "closed" else g.adj
    sep = closed if kind.separation == "closed-sep" else g.adj
    return dom, sep


def is_admissible(g: Graph, kind: CodeKind) -> Admissibility:
    """Existence test for a kind: no empty edge in its code hypergraph, so no
    empty dom[v] (an isolated vertex under total domination) and, unless the
    kind is locating, no two equal sep sets (twins)."""
    dom, sep = code_masks(g, kind)
    twins = () if kind.separation == "locating" else tuple(_twin_pairs(sep))
    isolated = tuple(v for v, m in enumerate(dom) if not m)
    reasons = []
    if twins:
        flavor = "open" if kind.separation == "open-sep" else "closed"
        reasons.append(f"{flavor} twins: {list(twins)}")
    if isolated:
        reasons.append(f"isolated vertices: {list(isolated)}")
    return Admissibility(
        kind=kind,
        ok=not reasons,
        reason="; ".join(reasons),
        twin_pairs=twins,
        isolated=isolated,
    )


# -- metric and structural checks ----------------------------------------------


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; math.inf for forests.

    BFS from every vertex; a non-tree edge (x, y) seen from root r closes a
    cycle of length at most dist[x] + dist[y] + 1, and the minimum over all
    roots is exact.
    """
    best = math.inf
    n = g.n
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            if 2 * dist[x] >= best:
                break
            for y in bits(g.adj[x]):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
    return best


def is_bipartite(g: Graph) -> tuple[bool, list[int] | None]:
    """BFS 2-coloring; returns (True, colors) or (False, None)."""
    colors = [-1] * g.n
    for root in range(g.n):
        if colors[root] >= 0:
            continue
        colors[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            for y in bits(g.adj[x]):
                if colors[y] < 0:
                    colors[y] = 1 - colors[x]
                    q.append(y)
                elif colors[y] == colors[x]:
                    return False, None
    return True, colors


def max_degree(g: Graph) -> int:
    return max((d.bit_count() for d in g.adj), default=0)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 plus a shifted copy of g2 (indices offset by g1.n), no cross edges."""
    shift = g1.n
    adj = list(g1.adj) + [m << shift for m in g2.adj]
    labels = dict(g1.labels)
    labels.update({v + shift: s for v, s in g2.labels.items()})
    return Graph(g1.n + g2.n, tuple(adj), labels)


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph induced by the kept vertices, reindexed densely in order."""
    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    labels = {index[v]: s for v, s in g.labels.items() if v in index}
    return Graph.from_edges(len(keep), edges, labels)


# -- text and JSON formats -----------------------------------------------------
#
# Text: first line "n m", then m lines "u v" with 0 <= u < v < n.  Lines
# starting with "#" are comments; "#role V NAME" comments round-trip labels,
# at most one per vertex.
# JSON: {"n": ..., "edges": [[u, v], ...], "labels": {"0": "q1", ...}}.
# A label's vertex is written in plain decimal: no sign, padding or underscore.
# So is every field of the text form, though a minus sign may lead it.

_VERTEX_NUMBER = re.compile(r"0|[1-9][0-9]*")


def _is_decimal(field: str) -> bool:
    """Plain decimal with an optional leading minus: no plus sign, padding,
    underscore or non-ASCII digit, all of which int() would accept."""
    return _VERTEX_NUMBER.fullmatch(field.removeprefix("-")) is not None


def parse_graph(text: str) -> Graph:
    header = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["role"]:
                if len(parts) != 3:
                    raise GraphFormatError(
                        f"line {lineno}: #role needs a vertex and a label, got {line!r}"
                    )
                if not _VERTEX_NUMBER.fullmatch(parts[1]):
                    raise GraphFormatError(f"line {lineno}: malformed #role vertex {parts[1]!r}")
                if int(parts[1]) in labels:
                    raise GraphFormatError(f"line {lineno}: vertex {parts[1]} is labelled twice")
                labels[int(parts[1])] = parts[2]
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {line!r}")
        if not all(map(_is_decimal, fields)):
            raise GraphFormatError(f"line {lineno}: non-integer field in {line!r}")
        a, b = int(fields[0]), int(fields[1])
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    n, m = header
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be non-negative")
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, file has {len(edges)}")
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge ({u}, {v}) violates 0 <= u < v < n")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge")
    for v in labels:
        if not 0 <= v < n:
            raise GraphFormatError(f"#role comment names out-of-range vertex {v}")
    try:
        return Graph.from_edges(n, edges, labels)
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    lines += [f"#role {v} {g.labels[v]}" for v in sorted(g.labels)]
    return "\n".join(lines) + "\n"


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python but not in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}")
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError("JSON graph needs 'n' and 'edges' keys")
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise GraphFormatError("'n' must be a non-negative integer")
    if not isinstance(obj["edges"], list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for e in obj["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise GraphFormatError(f"malformed edge entry {e!r}")
        edges.append((e[0], e[1]))
    raw_labels = obj.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise GraphFormatError("'labels' must be an object")
    labels = {}
    for k, s in raw_labels.items():
        if not _VERTEX_NUMBER.fullmatch(k):
            raise GraphFormatError(f"malformed label key {k!r}")
        if not isinstance(s, str):
            raise GraphFormatError(f"label of vertex {k} must be a string, got {json.dumps(s)}")
        # the text format writes a label as one whitespace-free field
        if s.split() != [s]:
            raise GraphFormatError(
                f"label of vertex {k} must be non-empty and free of whitespace, got {json.dumps(s)}"
            )
        labels[int(k)] = s
    try:
        return Graph.from_edges(n, edges, labels)
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def graph_to_json(g: Graph) -> dict:
    obj: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels:
        obj["labels"] = {str(v): g.labels[v] for v in sorted(g.labels)}
    return obj


def load_graph(text: str) -> Graph:
    """Parse either format, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph(text)
