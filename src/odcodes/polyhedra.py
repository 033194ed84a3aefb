"""Constraint systems for covering polyhedra and their 0/1-point checks.

A system pairs forced-vertex equations (x_v = 1) with rank inequalities
sum(x_v for v in support) >= rhs over an implicit non-negative orthant.  Each
support, like each 0/1 point and cover, is a vertex bitmask; sets appear only
in the reports' witnesses and in ``RankConstraint.support``.  The checks are
exact at every size: validity (every cover satisfies the system),
tightness (every inequality is achieved with equality by some cover), and
hull equivalence (the system's 0/1 points are exactly the covers).  Both the
system's 0/1 points and the covers are up-sets, so by blocker duality the
checks need only the clutter's minimal covers and its maximal non-covers
V - e, never all 2^n points.

The point test folds each slack class.  On a 0/1 point, x(S) >= |S| - d says
the point misses at most d vertices of S; so for S inside T the inequality on
T implies the one on S at the same slack d, and a point meets the system iff
it meets each class's inclusion-maximal supports.  A rank family
x(V') >= |V'| - q + 1 over V' inside U is one class and folds to U alone.

Fractional geometry, dimension arguments, and facet proofs are deliberately
out of reach of this module.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

from .clutters import Clutter, _clutter_order, build_clutter
from .cover import _check_qrose
from .families import FamilySpec, generate, role_sequence
from .graphs import CodeKind, Graph, bits


@dataclass(frozen=True)
class RankConstraint:
    """The rank inequality x(S) >= rhs.  S is stored once, as the bitmask
    ``mask``; ``support`` rebuilds it as a frozenset for display."""

    mask: int
    rhs: int
    source: str = ""

    def __post_init__(self):
        if not 1 <= self.rhs <= self.mask.bit_count():
            raise ValueError(f"rank constraint needs 1 <= rhs <= |support|, got {self.rhs}")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(bits(self.mask))


@dataclass(frozen=True)
class ConstraintSystem:
    """Equations x_v = 1, rank inequalities, implicit x >= 0 over n variables.

    The 0/1 point test reads only the inequalities with an inclusion-maximal
    support in their slack class |S| - rhs: a point missing at most d
    vertices of T misses at most d of any S inside T."""

    n: int
    equalities: tuple[int, ...]
    inequalities: tuple[RankConstraint, ...]

    def __post_init__(self):
        for v in self.equalities:
            if not 0 <= v < self.n:
                raise ValueError(f"equality on out-of-range vertex {v}")
        for c in self.inequalities:
            if c.mask >> self.n:
                raise ValueError("inequality support out of range")

    @cached_property
    def _maximal(self) -> tuple[tuple[int, int], ...]:
        """The (mask, rhs) pairs whose support no other support of the same
        slack strictly holds: each class, largest first, keeps a mask unless
        a kept, strictly larger one holds it."""
        classes = defaultdict(lambda: defaultdict(set))  # slack -> size -> masks
        for c in self.inequalities:
            size = c.mask.bit_count()
            classes[size - c.rhs][size].add(c.mask)
        out = []
        for slack, by_size in classes.items():
            kept: list[int] = []
            for size in sorted(by_size, reverse=True):
                group = by_size[size]
                for k in kept:
                    group = {m for m in group if m & k != m}
                kept += group
            out += [(m, m.bit_count() - slack) for m in kept]
        return tuple(out)

    def satisfied_by(self, point_mask: int) -> bool:
        return all(point_mask >> v & 1 for v in self.equalities) and all(
            (point_mask & m).bit_count() >= rhs for m, rhs in self._maximal
        )

    def first_violation(self, point_mask: int) -> int | RankConstraint | None:
        """The first equation (as its vertex) or inequality the 0/1 point
        breaks, or None.  Only a failing point scans the whole system."""
        if self.satisfied_by(point_mask):
            return None
        for v in self.equalities:
            if not point_mask >> v & 1:
                return v
        for c in self.inequalities:
            if (point_mask & c.mask).bit_count() < c.rhs:
                return c
        raise AssertionError("the folded inequalities break a point the system keeps")

    def size(self) -> tuple[int, int]:
        return len(self.equalities), len(self.inequalities)


# The most inequalities one rank family expands to.  qrose_system(18, 2) has
# 262,125 of them and takes about 0.45 s and 55 MB peak RSS to build (2 vCPUs,
# Python 3.11); each vertex more about doubles both.
RANK_FAMILY_MAX = 1 << 18


def _rank_family(vertices, q: int, source: str):
    """Constraints x(V') >= |V'| - q + 1 for all V' with |V'| >= q.  Above
    RANK_FAMILY_MAX of them it raises ValueError before building one."""
    vbits = [1 << v for v in sorted(vertices)]
    count = sum(math.comb(len(vbits), size) for size in range(q, len(vbits) + 1))
    if count > RANK_FAMILY_MAX:
        raise ValueError(f"the {source} family has {count} inequalities, over {RANK_FAMILY_MAX}")
    out = []
    for size in range(q, len(vbits) + 1):
        for sub in combinations(vbits, size):
            out.append(RankConstraint(sum(sub), size - q + 1, source))
    return out


def qrose_system(n: int, q: int) -> ConstraintSystem:
    """Defining system of the complete q-rose polyhedron: x(V') >= |V'|-q+1
    for every subset of at least q of the n ground vertices."""
    _check_qrose(n, q)
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
        ineqs = tuple(RankConstraint(m, 1, "clutter edge") for m in clutter.f2)
        return ConstraintSystem(n, tuple(sorted(clutter.f1)), ineqs)

    _require_member(g, hint)
    if hint == "fan":
        rest = [v for v in range(n) if g.labels[v] != "u"]
        return ConstraintSystem(n, (), tuple(_rank_family(rest, 2, "fan rank")))

    if hint == "half-graph":
        us = role_sequence(g, "u")
        ws = role_sequence(g, "w")
        equalities = tuple(us[1:]) + tuple(ws[:-1])
        facet = RankConstraint(1 << us[0] | 1 << ws[-1], 1, "half-graph facet")
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
            ineqs.append(RankConstraint(1 << qs[i] | 1 << ss[i], 1, "leg cover"))
        equalities = () if hint == "thin-spider" else (ss[-1],)
        order = _clutter_order(n)
        ineqs.sort(key=lambda c: order(c.mask))
        return ConstraintSystem(n, equalities, tuple(ineqs))

    cs = role_sequence(g, "c")
    ss = role_sequence(g, "s")
    k = len(cs)
    if hint == "sunlet":
        if k < 5:
            raise _role_mismatch(hint, "sunlet system stated for k >= 5")
        ineqs = []
        for i in range(k):
            block = [ss[i], cs[(i - 1) % k], cs[i], cs[(i + 1) % k]]
            ineqs += _rank_family(block, 2, "pendant block rank")
    else:  # almost complete thin sun
        l = k // 2
        pairs = [(ss[i], ss[i + l], "antipodal pendants") for i in range(l)]
        pairs += [(ss[i], cs[i], "pendant edge") for i in range(k)]
        ineqs = [RankConstraint(1 << a | 1 << b, 1, source) for a, b, source in pairs]
    unique: dict[tuple[int, int], RankConstraint] = {}
    for c in ineqs + _rank_family(cs, 2, "cycle rank"):
        unique.setdefault((c.mask, c.rhs), c)
    order = _clutter_order(n)
    return ConstraintSystem(n, (), tuple(sorted(unique.values(), key=lambda c: order(c.mask))))


# -- 0/1 point checks ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    exhaustive: bool  # always True: the checks are exact at every n
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


def _minimal_covers(c: Clutter) -> list[int]:
    """Every inclusion-minimal cover of the clutter's edges, ascending as ints.

    MMCS (Murakami and Uno 2014): branch on the candidates of an uncovered
    edge with the fewest, leave each tried vertex out of the later branches,
    and grow only while every chosen vertex alone hits some edge; so each
    minimal cover is found once, in time that grows with their number."""
    out = []

    def grow(chosen, crit, cand, uncov):
        if not uncov:
            out.append(chosen)
            return
        branch = min((m & cand for m in uncov), key=int.bit_count)
        cand &= ~branch
        for v in bits(branch):
            vbit = 1 << v
            kept = {u: [m for m in own if not m & vbit] for u, own in crit.items()}
            if all(kept.values()):
                kept[v] = [m for m in uncov if m & vbit]
                grow(chosen | vbit, kept, cand, [m for m in uncov if not m & vbit])
            cand |= vbit

    grow(0, {}, (1 << c.n) - 1, list(c.edges))
    return sorted(out)


def check_validity(sys: ConstraintSystem, c: Clutter) -> ValidityReport:
    """Does every 0/1 cover satisfy the system?  Exact at every n: a cover
    below a breaking one breaks the system too, so the smallest breaking
    cover as an int is a minimal cover."""
    if sys.n != c.n:
        raise ValueError("system and clutter sizes differ")
    for x in _minimal_covers(c):
        broken = sys.first_violation(x)
        if broken is None:
            continue
        if isinstance(broken, RankConstraint):
            wording = f"x({sorted(broken.support)}) >= {broken.rhs}"
        else:
            wording = f"x_{broken} = 1"
        return ValidityReport(False, True, (frozenset(bits(x)), wording))
    return ValidityReport(True, True)


def check_tightness(sys: ConstraintSystem, c: Clutter) -> TightnessReport:
    """Is every inequality achieved with equality by some cover?  Exact at
    every n: over the covers x(S) takes each value from tau(E[S]), the cover
    number of the edges inside S, up to |S|, its least at a minimal cover.
    The witness is the first minimal cover with x(S) <= rhs, topped up with
    the lowest vertices of S it lacks: if tau(E[S]) = rhs, the least one."""
    if sys.n != c.n:
        raise ValueError("system and clutter sizes differ")
    covers, found, never = _minimal_covers(c), [], []
    for con in sys.inequalities:
        for x in covers:
            if (x & con.mask).bit_count() <= con.rhs:
                break
        else:
            never.append(con)
            continue
        rest = lack = con.mask & ~x
        for _ in range(con.rhs - (x & con.mask).bit_count()):
            rest &= rest - 1  # move the lowest vertex x lacks out of the rest
        found.append((con, x | lack ^ rest))
    as_set = cache(lambda m: frozenset(bits(m)))
    return TightnessReport(not never, tuple(never), tuple((con, as_set(m)) for con, m in found))


def integer_hull_equiv(sys: ConstraintSystem, c: Clutter) -> HullReport:
    """Are the system's 0/1 points exactly the covers?  Exact at every n: both
    are up-sets and the maximal non-covers are the V - e for edges e, so they
    agree iff the system is valid and breaks at every V - e.  A failure's
    witness is the validity counterexample, else the least V - e it keeps."""
    validity = check_validity(sys, c)
    if not validity.ok:
        return HullReport(False, validity.counterexample[0], "cover-outside-system")
    full = (1 << c.n) - 1
    for x in sorted({full & ~m for m in c.edges}):
        if sys.satisfied_by(x):
            return HullReport(False, frozenset(bits(x)), "system-point-not-cover")
    return HullReport(True)
