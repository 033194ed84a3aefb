#!/usr/bin/env python3
"""Closed-form code numbers of the graph families versus the exact solver.

Each family carries published formulas for its OD and OTD numbers; this
table recomputes both sides for small parameters.  The interesting story is
the gap column: for some families the two numbers coincide, for others the
total-domination variant always costs one extra vertex.
"""

from odcodes import CodeKind, gamma, generate, predicted_gamma
from odcodes.families import FamilySpec

SPECS = [
    FamilySpec("clique", n=6),
    FamilySpec("matching", k=4),
    FamilySpec("union-of-cliques", sizes=(2, 2, 3)),
    FamilySpec("clique-star", sizes=(1, 2, 3)),
    FamilySpec("fan", k=3),
    FamilySpec("half-graph", k=4),
    FamilySpec("double-star", k=4),
    FamilySpec("thin-spider", k=5),
    FamilySpec("thick-spider", k=5),
    FamilySpec("extended-thin-spider", k=5),
    FamilySpec("sunlet", k=6),
    FamilySpec("almost-complete-thin-sun", k=3),
]

print(f"{'family':32s} {'n':>3s}  {'OD':>9s}  {'OTD':>9s}  gap")
for spec in SPECS:
    g = generate(spec)
    predicted = {p.kind: p.value for p in predicted_gamma(spec)}
    values, cells = {}, {}
    for kind in (CodeKind.OD, CodeKind.OTD):
        value = values[kind] = gamma(g, kind)[0]
        want = predicted.get(kind)
        mark = "=" if want == value else ("?" if want is None else "!")
        cells[kind] = f"{value}{mark}"
    name = spec.family + (
        f"({spec.n})" if spec.n else f"({spec.k})" if spec.k else f"{list(spec.sizes)}"
    )
    gap = values[CodeKind.OTD] - values[CodeKind.OD]
    print(f"{name:32s} {g.n:3d}  {cells[CodeKind.OD]:>9s}  {cells[CodeKind.OTD]:>9s}  {gap}")

print("\n'=' solver equals the closed form; every gap is 0 or 1.")
