#!/usr/bin/env python3
"""Walk one graph through the whole pipeline, printing every intermediate.

A code of kind OD must dominate every vertex (some closed neighborhood
member chosen) and open-separate every pair (their open neighborhoods must
intersect the code differently).  Both requirements become hyperedges to
hit, so the minimum code is a minimum cover of a small hypergraph.
"""

from odcodes import CodeKind, build_hypergraph, gamma, generate, verify
from odcodes.families import FamilySpec
from odcodes.clutters import reduce_hypergraph
from odcodes.graphs import bits

g = generate(FamilySpec("path", n=4))
print(f"graph: 4-path, edges {g.edges()}\n")

h = build_hypergraph(g, CodeKind.OD)
print("hypergraph edges (domination first, then pair separators):")
for mask, source in zip(h.edges, h.sources):
    print(f"  {source:12s} -> {list(bits(mask))}")

c = reduce_hypergraph(h)
print("\nafter removing superset-redundant edges:")
for mask, sources in zip(c.edges, c.sources):
    print(f"  {list(bits(mask))}   from {', '.join(sources)}")
print(f"forced vertices (singletons): {sorted(c.f1)}")
print(f"never needed:                 {sorted(c.v0) or 'none'}")

value, witness = gamma(g, CodeKind.OD)
print(f"\nminimum OD-code: size {value}, witness {sorted(witness)}")

report = verify(g, witness, CodeKind.OD)
print(f"verification: valid={report.valid}")

print("\nEvery kind on the same graph:")
for kind in CodeKind:
    v, w = gamma(g, kind)
    print(f"  gamma_{kind.value:3s} = {v}   witness {sorted(w)}")
