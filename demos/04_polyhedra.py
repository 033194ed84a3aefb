#!/usr/bin/env python3
"""Covering polyhedra: defining systems checked against all 0/1 covers.

For each family the known constraint system (forced-vertex equations plus
rank inequalities) is emitted and then held against every 0/1 cover: valid
on every cover, each inequality tight somewhere, and the 0/1 points of the
system exactly the covers.  The checks are exact at every n: both point sets
are up-sets, so the clutter's minimal covers and its maximal non-covers
V - e decide them without walking all 2^n points.
"""

from odcodes import CodeKind, build_clutter, generate
from odcodes.families import FamilySpec
from odcodes.polyhedra import (
    check_tightness,
    check_validity,
    integer_hull_equiv,
    od_polyhedron_system,
    qrose_system,
)
from odcodes.cover import qrose_clutter

print("complete q-rose, n=5, q=3: a pure rank system")
sys_ = qrose_system(5, 3)
for c in sys_.inequalities[:4]:
    print(f"  x({sorted(c.support)}) >= {c.rhs}")
print(f"  ... {len(sys_.inequalities)} inequalities in total")
print(f"  hull check: {integer_hull_equiv(sys_, qrose_clutter(5, 3)).ok}\n")

CASES = [
    ("half-graph", FamilySpec("half-graph", k=4)),
    ("thin-spider", FamilySpec("thin-spider", k=4)),
    ("thick-spider", FamilySpec("thick-spider", k=4)),
    ("extended-thin-spider", FamilySpec("extended-thin-spider", k=4)),
    ("sunlet", FamilySpec("sunlet", k=5)),
    ("almost-complete-thin-sun", FamilySpec("almost-complete-thin-sun", k=3)),
]

for hint, spec in CASES:
    g = generate(spec)
    system = od_polyhedron_system(g, hint)
    clutter = build_clutter(g, CodeKind.OD)
    eq, ineq = system.size()
    validity = check_validity(system, clutter).ok
    tight = check_tightness(system, clutter).ok
    hull = integer_hull_equiv(system, clutter).ok
    print(
        f"{hint:26s} n={g.n:2d}  equations={eq:2d} inequalities={ineq:3d}  "
        f"valid={validity} tight={tight} hull={hull}"
    )

print("\nThe half-graph system is almost all equations: its polyhedron is a")
print("single segment, matching its exactly two minimum codes.")
