"""Constraint systems for covering polyhedra and their 0/1-point checks.

A system pairs forced-vertex equations (x_v = 1) with rank inequalities
sum(x_v for v in support) >= rhs over an implicit non-negative orthant.  The
checks are exhaustive over 0/1 points at small sizes: validity (every cover
satisfies the system), tightness (every inequality is achieved with equality
by some cover), and hull equivalence (the system's 0/1 points are exactly
the covers).  Fractional geometry, dimension arguments, and facet proofs are
deliberately out of reach of this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations

from .clutters import Clutter, build_clutter
from .cover import min_cover
from .families import FamilySpec, generate, role_sequence
from .graphs import CodeKind, Graph, bits, mask_of


@dataclass(frozen=True)
class RankConstraint:
    support: frozenset[int]
    rhs: int
    source: str = ""
    mask: int = field(init=False, repr=False, compare=False)  # the support as a bitmask

    def __post_init__(self):
        if not 1 <= self.rhs <= len(self.support):
            raise ValueError(f"rank constraint needs 1 <= rhs <= |support|, got {self.rhs}")
        object.__setattr__(self, "mask", mask_of(self.support))

    def tight(self, point_mask: int) -> bool:
        return (point_mask & self.mask).bit_count() == self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    """Equations x_v = 1, rank inequalities, implicit x >= 0 over n variables."""

    n: int
    equalities: tuple[int, ...]
    inequalities: tuple[RankConstraint, ...]

    def __post_init__(self):
        for v in self.equalities:
            if not 0 <= v < self.n:
                raise ValueError(f"equality on out-of-range vertex {v}")
        for c in self.inequalities:
            if any(not 0 <= v < self.n for v in c.support):
                raise ValueError("inequality support out of range")

    def first_violation(self, point_mask: int) -> int | RankConstraint | None:
        """The first equation (as its vertex) or inequality the 0/1 point
        breaks, or None."""
        for v in self.equalities:
            if not point_mask >> v & 1:
                return v
        for c in self.inequalities:
            if (point_mask & c.mask).bit_count() < c.rhs:
                return c
        return None

    def satisfied_by(self, point_mask: int) -> bool:
        return self.first_violation(point_mask) is None

    def size(self) -> tuple[int, int]:
        return len(self.equalities), len(self.inequalities)


def _rank_family(vertices, q: int, source: str):
    """Constraints x(V') >= |V'| - q + 1 for all V' with |V'| >= q."""
    vertices = sorted(vertices)
    out = []
    for size in range(q, len(vertices) + 1):
        for sub in combinations(vertices, size):
            out.append(RankConstraint(frozenset(sub), size - q + 1, source))
    return out


def qrose_system(n: int, q: int) -> ConstraintSystem:
    """Defining system of the complete q-rose polyhedron: x(V') >= |V'|-q+1
    for every subset of at least q of the n ground vertices."""
    if not 2 <= q < n:
        raise ValueError("q-rose needs 2 <= q < n")
    return ConstraintSystem(n, (), tuple(_rank_family(range(n), q, "rose rank")))


# -- role helpers -----------------------------------------------------------------


def _role_mismatch(hint: str, why: str) -> ValueError:
    return ValueError(f"graph does not carry the roles of a {hint}: {why}")


FAMILY_HINTS = (
    "clique",
    "matching",
    "fan",
    "half-graph",
    "thick-spider",
    "thin-spider",
    "extended-thin-spider",
    "sunlet",
    "almost-complete-thin-sun",
    "generic",
)


def _require_member(g: Graph, hint: str) -> None:
    """Raise unless g equals the hinted family member of its order under the
    vertex map its role labels define."""
    n = g.n
    if hint in ("fan", "extended-thin-spider"):
        k = (n - 1) // 2
    else:
        k = n // 4 if hint == "almost-complete-thin-sun" else n // 2
    try:
        member = generate(FamilySpec(hint, k=k))
    except ValueError as exc:
        raise _role_mismatch(hint, str(exc)) from None
    at = {lab: v for v, lab in g.labels.items()}
    if member.n != n or set(member.labels.values()) - at.keys():
        raise _role_mismatch(hint, f"labels differ from those of its k = {k} member")
    image = [at[member.labels[v]] for v in range(n)]
    edges = [(image[u], image[v]) for u, v in member.edges()]
    if Graph.from_edges(n, edges).adj != g.adj:
        raise _role_mismatch(hint, f"adjacency differs from its k = {k} member")


def od_polyhedron_system(g: Graph, hint: str) -> ConstraintSystem:
    """The published defining system of the open-separation domination
    polyhedron for the hinted family, over all of the graph's vertices.

    A hinted graph must be the family member up to a relabelling that keeps
    its role labels; "generic" falls back to forced-vertex equations plus one
    inequality per multi-vertex clutter edge.
    """
    if hint not in FAMILY_HINTS:
        raise ValueError(f"unknown family hint {hint!r}")
    n = g.n

    if hint == "clique":
        if g.m != n * (n - 1) // 2 or n < 2:
            raise _role_mismatch(hint, "not a complete graph on >= 2 vertices")
        return ConstraintSystem(n, (), tuple(_rank_family(range(n), 2, "clique rank")))

    if hint == "matching":
        if n % 2 or any(g.degree(v) != 1 for v in range(n)):
            raise _role_mismatch(hint, "not a perfect matching")
        return ConstraintSystem(n, (), tuple(_rank_family(range(n), 2, "matching rank")))

    if hint == "generic":  # read the clutter itself
        clutter = build_clutter(g, CodeKind.OD)
        equalities = tuple(sorted(clutter.f1))
        ineqs = tuple(
            RankConstraint(frozenset(e.vertices()), 1, "clutter edge") for e in clutter.f2
        )
        return ConstraintSystem(n, equalities, ineqs)

    _require_member(g, hint)
    if hint == "fan":
        rest = [v for v in range(n) if g.labels[v] != "u"]
        return ConstraintSystem(n, (), tuple(_rank_family(rest, 2, "fan rank")))

    if hint == "half-graph":
        us = role_sequence(g, "u")
        ws = role_sequence(g, "w")
        equalities = tuple(us[1:]) + tuple(ws[:-1])
        facet = RankConstraint(frozenset({us[0], ws[-1]}), 1, "half-graph facet")
        return ConstraintSystem(n, tuple(sorted(equalities)), (facet,))

    if hint in ("thick-spider", "thin-spider", "extended-thin-spider"):
        qs = role_sequence(g, "q")
        ss = role_sequence(g, "s")
        k = len(qs)
        if hint == "extended-thin-spider":
            ss = ss[1:]  # s1..sk after s0
        ineqs = list(_rank_family(qs, 2, "clique-part rank"))
        if hint == "thick-spider":
            ineqs += _rank_family(ss, k - 1, "stable-part rank")
            return ConstraintSystem(n, (), tuple(ineqs))
        pairs = range(k) if hint == "thin-spider" else range(k - 1)
        for i in pairs:
            ineqs.append(RankConstraint(frozenset({qs[i], ss[i]}), 1, "leg cover"))
        equalities = () if hint == "thin-spider" else (ss[-1],)
        ineqs.sort(key=lambda c: (len(c.support), sorted(c.support)))
        return ConstraintSystem(n, equalities, tuple(ineqs))

    cs = role_sequence(g, "c")
    ss = role_sequence(g, "s")
    k = len(cs)
    constraints: dict[tuple[frozenset[int], int], RankConstraint] = {}

    def put(c: RankConstraint) -> None:
        constraints.setdefault((c.support, c.rhs), c)

    if hint == "sunlet":
        if k < 5:
            raise _role_mismatch(hint, "sunlet system stated for k >= 5")
        for i in range(k):
            block = [ss[i], cs[(i - 1) % k], cs[i], cs[(i + 1) % k]]
            for c in _rank_family(block, 2, "pendant block rank"):
                put(c)
    else:  # almost complete thin sun
        l = k // 2
        for i in range(l):
            put(RankConstraint(frozenset({ss[i], ss[i + l]}), 1, "antipodal pendants"))
        for i in range(k):
            put(RankConstraint(frozenset({ss[i], cs[i]}), 1, "pendant edge"))
    for c in _rank_family(cs, 2, "cycle rank"):
        put(c)
    ineqs = sorted(constraints.values(), key=lambda c: (len(c.support), sorted(c.support)))
    return ConstraintSystem(n, (), tuple(ineqs))


# -- 0/1 point checks ---------------------------------------------------------------

ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    exhaustive: bool
    counterexample: tuple[frozenset[int], str] | None = None  # (cover, constraint)


@dataclass(frozen=True)
class TightnessReport:
    ok: bool
    never_tight: tuple[RankConstraint, ...]
    witnesses: tuple[tuple[RankConstraint, frozenset[int]], ...]


@dataclass(frozen=True)
class HullReport:
    ok: bool
    witness: frozenset[int] | None = None
    direction: str = ""  # "cover-outside-system" | "system-point-not-cover"


def _covers(sys: ConstraintSystem, c: Clutter) -> tuple[bool, Iterator[int]]:
    """(exhaustive, covers) for the checks: every 0/1 cover in ascending order
    up to the enumeration limit, otherwise the enumerated minimum covers.
    The covers are lazy, so a caller that refuses the sampled ones searches
    nothing."""
    if sys.n != c.n:
        raise ValueError("system and clutter sizes differ")
    exhaustive = c.n <= ENUMERATION_LIMIT

    def covers():
        if not exhaustive:
            yield from map(mask_of, min_cover(c, enumerate_all=True, cap=5000).all_optima)
            return
        masks = c.edge_masks()
        for x in range(1 << c.n):
            if all(x & m for m in masks):
                yield x

    return exhaustive, covers()


def check_validity(sys: ConstraintSystem, c: Clutter) -> ValidityReport:
    """Does every 0/1 cover satisfy the system?  Exhaustive up to the
    enumeration limit, otherwise checked over enumerated minimum covers."""
    exhaustive, covers = _covers(sys, c)
    for x in covers:
        broken = sys.first_violation(x)
        if broken is None:
            continue
        if isinstance(broken, RankConstraint):
            wording = f"x({sorted(broken.support)}) >= {broken.rhs}"
        else:
            wording = f"x_{broken} = 1"
        return ValidityReport(False, exhaustive, (frozenset(bits(x)), wording))
    return ValidityReport(True, exhaustive)


def check_tightness(sys: ConstraintSystem, c: Clutter) -> TightnessReport:
    """Is every inequality achieved with equality by some cover?"""
    _, covers = _covers(sys, c)
    pending = dict(enumerate(sys.inequalities))
    witnesses = {}
    for x in covers:
        hit = [i for i, con in pending.items() if con.tight(x)]
        for i in hit:
            witnesses[i] = frozenset(bits(x))
            del pending[i]
        if not pending:
            break
    return TightnessReport(
        ok=not pending,
        never_tight=tuple(pending[i] for i in sorted(pending)),
        witnesses=tuple((sys.inequalities[i], witnesses[i]) for i in sorted(witnesses)),
    )


def integer_hull_equiv(sys: ConstraintSystem, c: Clutter) -> HullReport:
    """Are the system's 0/1 points exactly the covers of the clutter?"""
    exhaustive, covers = _covers(sys, c)
    if not exhaustive:
        raise ValueError(f"hull equivalence is enumerated only up to n = {ENUMERATION_LIMIT}")
    covers = set(covers)
    for x in range(1 << c.n):
        is_cover = x in covers
        if is_cover != sys.satisfied_by(x):
            direction = "cover-outside-system" if is_cover else "system-point-not-cover"
            return HullReport(False, frozenset(bits(x)), direction)
    return HullReport(True)


def minimum_over_system(sys: ConstraintSystem) -> int:
    """Smallest 1-count of a 0/1 point satisfying the system (enumerated).
    The all-ones point always does, as every rhs is at most its support size."""
    if sys.n > ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded")
    return min(x.bit_count() for x in range(1 << sys.n) if sys.satisfied_by(x))
