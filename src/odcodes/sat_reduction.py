"""Linear SAT instances, their saturation, and the code-number gadget graph.

An LSAT instance restricts CNF hard: at most 3 literals per clause, every
literal in at most two clauses, two clauses sharing at most one literal.  The
saturated variant (SL-SAT) additionally wants each occurring literal in
exactly two clauses; saturation pads once-occurring literals with fresh
always-true helper variables.  From a saturated instance the gadget graph is
built so that its open-separating domination number lands at 3n + 2m - 1
exactly for satisfiable instances (3n + 2m with total domination), and codes
of that size decode back into satisfying assignments.

Literals are signed 1-based ints (DIMACS style); clauses are frozensets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .graphs import Graph, _is_decimal, bits


class LsatFormatError(ValueError):
    """Raised when text or clause data violates the LSAT constraints."""


def _lit_key(lit: int) -> tuple[int, bool]:
    return (abs(lit), lit < 0)


def _clause_key(clause: frozenset[int]) -> tuple:
    return (len(clause), tuple(sorted(clause, key=_lit_key)))


@dataclass(frozen=True)
class LsatInstance:
    n_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "clauses", tuple(sorted((frozenset(c) for c in self.clauses), key=_clause_key))
        )
        self.validate()

    def validate(self) -> None:
        seen = set()
        for c in self.clauses:
            if not c:
                raise LsatFormatError("empty clause")
            if len(c) > 3:
                raise LsatFormatError(f"clause {_fmt_clause(c)} has more than 3 literals")
            for lit in c:
                v = abs(lit)
                if not 1 <= v <= self.n_vars:
                    raise LsatFormatError(f"literal {lit} out of range (n={self.n_vars})")
                if -lit in c:
                    raise LsatFormatError(
                        f"clause {_fmt_clause(c)} contains both literals of variable {v}"
                    )
            if c in seen:
                raise LsatFormatError(f"duplicate clause {_fmt_clause(c)}")
            seen.add(c)
        for lit, k in self.literal_counts().items():
            if k > 2:
                raise LsatFormatError(f"literal {lit} appears in {k} clauses (limit 2)")
        for a, b in combinations(self.clauses, 2):
            if len(a & b) > 1:
                raise LsatFormatError(
                    f"clauses {_fmt_clause(a)} and {_fmt_clause(b)} share more than one literal"
                )

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def literal_counts(self) -> dict[int, int]:
        return dict(Counter(lit for c in self.clauses for lit in c))

    @property
    def saturated(self) -> bool:
        return all(k == 2 for k in self.literal_counts().values())

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """True when the (total) assignment satisfies every clause."""
        missing = [v for v in range(1, self.n_vars + 1) if v not in assignment]
        if missing:
            raise ValueError(f"assignment misses variables {missing}")
        return all(any(assignment[abs(l)] == (l > 0) for l in c) for c in self.clauses)


def _fmt_clause(c) -> str:
    return "(" + " ".join(str(l) for l in sorted(c, key=_lit_key)) + ")"


# -- text format -------------------------------------------------------------------
#
# Header "p lsat <n_vars> <n_clauses>", then DIMACS clause lines (integers
# terminated by 0, possibly spanning lines).  "c ..." lines are comments.
# Every number is plain decimal; a minus sign negates a literal.


def parse_lsat(text: str) -> LsatInstance:
    header = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise LsatFormatError(f"line {lineno}: second header line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "lsat":
                raise LsatFormatError(f"line {lineno}: header must be 'p lsat <vars> <clauses>'")
            if not all(map(_is_decimal, fields[2:])):
                raise LsatFormatError(f"line {lineno}: non-integer header counts")
            header = (int(fields[2]), int(fields[3]))
            continue
        if header is None:
            raise LsatFormatError(f"line {lineno}: clause data before header")
        fields = line.split()
        if not all(map(_is_decimal, fields)):
            raise LsatFormatError(f"line {lineno}: non-integer token")
        tokens += map(int, fields)
    if header is None:
        raise LsatFormatError("missing 'p lsat' header")
    n_vars, n_clauses = header
    if n_vars < 0 or n_clauses < 0:
        raise LsatFormatError("header counts must be non-negative")
    clauses = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            clause = frozenset(current)
            if len(clause) < len(current):
                lit = next(l for l, k in Counter(current).items() if k > 1)
                text = " ".join(map(str, current))
                raise LsatFormatError(f"clause ({text}) repeats literal {lit}")
            clauses.append(clause)
            current = []
        else:
            current.append(t)
    if current:
        raise LsatFormatError("last clause is not terminated by 0")
    if len(clauses) != n_clauses:
        raise LsatFormatError(f"header announces {n_clauses} clauses, file has {len(clauses)}")
    return LsatInstance(n_vars, tuple(clauses))


def format_lsat(inst: LsatInstance) -> str:
    lines = [f"p lsat {inst.n_vars} {inst.n_clauses}"]
    for c in inst.clauses:
        lines.append(" ".join(str(l) for l in sorted(c, key=_lit_key)) + " 0")
    return "\n".join(lines) + "\n"


# -- saturation --------------------------------------------------------------------


def saturate(inst: LsatInstance) -> LsatInstance:
    """Pad every once-occurring literal L with a fresh variable y and the two
    clauses (L or y) and (y), until each occurring literal occurs twice.

    Satisfiability is unchanged: the helpers can always be set true.  The
    result stays within 3n variables and m + 4n clauses of the input.
    """
    n0, m0 = inst.n_vars, inst.n_clauses
    n_vars = inst.n_vars
    clauses = list(inst.clauses)
    # padding L makes L and its helper occur twice and moves no other count,
    # so the once-literals of the input are all there is to pad
    once = sorted((l for l, k in inst.literal_counts().items() if k == 1), key=_lit_key)
    for lit in once:
        n_vars += 1
        clauses += [frozenset({lit, n_vars}), frozenset({n_vars})]
    out = LsatInstance(n_vars, tuple(clauses))
    if not (out.n_vars <= 3 * n0 and out.n_clauses <= m0 + 4 * n0):
        raise AssertionError("saturation outgrew 3n variables or m + 4n clauses")
    if not out.saturated:
        raise AssertionError("saturation left a once-occurring literal")
    return out


# brute_force_sat scans at most 2**24 truth-table rows.
BRUTE_FORCE_MAX_VARS = 24


def brute_force_sat(inst: LsatInstance) -> dict[int, bool] | None:
    """Truth-table scan; first satisfying assignment in binary order, or None."""
    if inst.n_vars > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force guarded to {BRUTE_FORCE_MAX_VARS} variables")
    for bitsword in range(1 << inst.n_vars):
        assignment = {v: bool(bitsword >> (v - 1) & 1) for v in range(1, inst.n_vars + 1)}
        if inst.evaluate(assignment):
            return assignment
    return None


# -- gadget graph -------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetGraph:
    """Reduction output: per variable x a 3-path v1-v2-v3 hung on the literal
    vertices w1/w2 (present when x or -x occurs), per clause a 3-path
    u1-u2-u3, and u1 joined to the w-vertex of every literal in the clause.

    Each vertex's role is its label in the graph: "w1:x3", "v2:x3" or
    "u1:c2" for variable 3 and clause 2, both counted from 1.
    """

    graph: Graph
    instance: LsatInstance


def build_gadget(inst: LsatInstance) -> GadgetGraph:
    """Construct the gadget graph of a saturated instance.

    Every variable must occur: a variable with no literal in any clause would
    make its path endpoints open twins and the output graph would admit no
    open-separating code.
    """
    if not inst.saturated:
        raise ValueError("gadget construction needs a saturated instance")
    counts = inst.literal_counts()
    for v in range(1, inst.n_vars + 1):
        if v not in counts and -v not in counts:
            raise ValueError(
                f"variable {v} occurs in no clause; its gadget would carry open twins"
            )
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    w: dict[int, int] = {}  # literal -> its w-vertex

    def fresh(label: str) -> int:
        labels[len(labels)] = label
        return len(labels) - 1

    for x in range(1, inst.n_vars + 1):
        for lit, role in ((x, "w1"), (-x, "w2")):
            if lit in counts:
                w[lit] = fresh(f"{role}:x{x}")
        v1, v2, v3 = (fresh(f"v{i}:x{x}") for i in (1, 2, 3))
        edges += [(w[lit], v1) for lit in (x, -x) if lit in counts]
        edges += [(v1, v2), (v2, v3)]

    for j, clause in enumerate(inst.clauses, 1):
        u1, u2, u3 = (fresh(f"u{i}:c{j}") for i in (1, 2, 3))
        edges += [(u1, u2), (u2, u3)]
        edges += [(w[lit], u1) for lit in sorted(clause, key=_lit_key)]

    graph = Graph.from_edges(len(labels), edges, labels)
    if graph.n != 3 * inst.n_clauses + 3 * inst.n_vars + len(counts):
        raise AssertionError(f"gadget has {graph.n} vertices, off its layout")
    return GadgetGraph(graph, inst)


def expected_od_size(gg: GadgetGraph) -> int:
    return 3 * gg.instance.n_vars + 2 * gg.instance.n_clauses - 1


def expected_otd_size(gg: GadgetGraph) -> int:
    return 3 * gg.instance.n_vars + 2 * gg.instance.n_clauses


def assignment_to_code(gg: GadgetGraph, assignment: dict[int, bool], total: bool = False):
    """Build the witness code from a satisfying assignment.

    Picks v1 for every variable except the first, v2 for all, u1 and u2 for
    every clause, and per variable the w-vertex of its true literal (or of
    its only existing literal).  With total=True the dropped v1 is added
    back, growing the code by one.
    """
    if not gg.instance.evaluate(assignment):
        raise ValueError("assignment does not satisfy the instance")
    role = {label: v for v, label in gg.graph.labels.items()}
    xs = range(1, gg.instance.n_vars + 1)
    code = {role[f"v1:x{x}"] for x in xs if x > 1 or total} | {role[f"v2:x{x}"] for x in xs}
    code |= {role[f"u{i}:c{j}"] for j in range(1, gg.instance.n_clauses + 1) for i in (1, 2)}
    for x in xs:
        ws = [role[r] for r in (f"w1:x{x}", f"w2:x{x}") if r in role]
        code.add(ws[0] if len(ws) == 1 else ws[not assignment[x]])
    expected = expected_otd_size(gg) if total else expected_od_size(gg)
    if len(code) != expected:
        raise AssertionError(f"witness code has {len(code)} vertices, expected {expected}")
    return frozenset(code)


def code_to_assignment(gg: GadgetGraph, code) -> dict[int, bool]:
    """Read an assignment off a code that holds exactly one w-vertex per
    variable; raises when some variable has zero or two of them selected."""
    chosen = {gg.graph.labels.get(v) for v in code}
    assignment: dict[int, bool] = {}
    for x in range(1, gg.instance.n_vars + 1):
        present = [r for r in ("w1", "w2") if f"{r}:x{x}" in chosen]
        if len(present) != 1:
            raise ValueError(
                f"variable x{x} has {len(present)} of its w-vertices in the code, need exactly 1"
            )
        assignment[x] = present == ["w1"]
    return assignment


def auxiliary_graph(inst: LsatInstance) -> Graph:
    """Clause-literal incidence graph of a saturated instance: clause vertices
    first, then the occurring literals sorted by variable, positive first."""
    if not inst.saturated:
        raise ValueError("auxiliary graph is defined for saturated instances")
    occurring = sorted(inst.literal_counts(), key=_lit_key)
    labels = {j: f"c{j + 1}" for j in range(inst.n_clauses)}
    index = {lit: inst.n_clauses + i for i, lit in enumerate(occurring)}
    labels.update({v: f"x{lit}" if lit > 0 else f"-x{-lit}" for lit, v in index.items()})
    edges = [(j, index[lit]) for j, clause in enumerate(inst.clauses) for lit in clause]
    return Graph.from_edges(inst.n_clauses + len(occurring), edges, labels)


# -- exhaustive tiny-instance enumeration --------------------------------------------


def clause_universe(n_vars: int) -> list[frozenset[int]]:
    """Every admissible clause over the given variables, canonically ordered."""
    lits = sorted(
        [v for v in range(1, n_vars + 1)] + [-v for v in range(1, n_vars + 1)], key=_lit_key
    )
    out = []
    for size in (1, 2, 3):
        for combo in combinations(lits, size):
            if any(-l in combo for l in combo):
                continue
            out.append(frozenset(combo))
    return sorted(out, key=_clause_key)


def _transform_tables(n_vars: int, universe: list[frozenset[int]]) -> list[list[int]]:
    """Universe-index permutation for every variable relabeling and polarity
    flip (identity excluded): each relabeling table composed with each flip
    table, one frozenset per clause and base table rather than per pair."""
    position = {c: i for i, c in enumerate(universe)}

    def table(mapped) -> list[int]:
        return [position[frozenset(map(mapped, c))] for c in universe]

    relabelings = [
        table(lambda lit, p=p: p[abs(lit) - 1] if lit > 0 else -p[abs(lit) - 1])
        for p in permutations(range(1, n_vars + 1))
    ]
    flips = [
        table(lambda lit, s=s: lit * s[abs(lit) - 1]) for s in product((1, -1), repeat=n_vars)
    ]
    # both lists start at their identity, so the first composite is the identity
    return [[f[i] for i in p] for p in relabelings for f in flips][1:]


def _lanes(tables: list[list[int]], size: int) -> tuple[list[int], int, int]:
    """Pack tables over a universe of the given size into lanes, for _canonical.

    Returns (cols, ones, guard).  Lane t of every int is a run of whole bytes
    holding a bit per universe index and, above them, a guard bit; cols[i] has
    the bit tables[t][i] in lane t, ones the low bit of every lane and guard
    the guard bit.  Whole-byte lanes let a column be one bytes join.
    """
    width = size // 8 + 1
    lane = [(1 << v).to_bytes(width, "little") for v in range(size)]
    cols = [
        int.from_bytes(b"".join(map(lane.__getitem__, col)), "little") for col in zip(*tables)
    ]
    ones = int.from_bytes(lane[0] * len(tables), "little")
    return cols, ones, ones << size


def _canonical(img: int, mask: int, ones: int, guard: int) -> bool:
    """True when no table maps the index set mask to a lexicographically
    smaller sorted list, img being the OR of cols[i] over mask's indices.

    Lane t of img is mask's image under table t.  Two equal-size sets compare
    as their sorted lists do by the lowest index where they differ, so each
    lane of d = img ^ mask * ones | guard has its lowest bit at that index (at
    the guard when they agree), d & ~(d - ones) isolates those bits, every
    lane being nonzero so no borrow crosses lanes, and mask is canonical when
    none of them lies in an image.
    """
    d = img ^ mask * ones | guard
    return not d & ~(d - ones) & img


# Above 6 variables the lanes alone would take about 12 GB.  At 6 they hold
# 232 clauses x 46,079 tables x 240-bit lanes, about 320 MB, and
# enumerate_slsat(6, 3) peaks at about 440 MB RSS.
SAT_MAX_K = 6


def enumerate_slsat(max_vars: int, max_clauses: int):
    """Yield one representative per isomorphism class of saturated instances.

    Exhausts every clause set with at most max_clauses clauses over exactly n
    variables (each occurring) for n = 1..max_vars; two instances are
    isomorphic when a variable relabeling plus polarity flips maps one onto
    the other.  Representatives are the index-wise minimal members of their
    class, so the output is deterministic.  A prefix is tested for minimality
    before it expands (orderly generation), since no minimal set extends a
    non-minimal one.

    The search state is five ints: the clauses that may still join, the
    literals used once and twice, literal l being bit 2(|l| - 1) + (l < 0),
    the chosen clause indices as a mask, and their images under every
    symmetry table packed into lanes, which one _canonical call tests at once.
    Above SAT_MAX_K variables it raises ValueError before building a table.
    """
    if max_vars > SAT_MAX_K:
        raise ValueError(f"max_vars is at most {SAT_MAX_K}, got {max_vars}")
    for n in range(1, max_vars + 1):
        universe = clause_universe(n)
        cols, ones, guard = _lanes(_transform_tables(n, universe), len(universe))
        lits = [sum(1 << 2 * (abs(l) - 1) + (l < 0) for l in c) for c in universe]
        later = [
            sum(1 << j for j in range(i + 1, len(lits)) if (a & lits[j]).bit_count() <= 1)
            for i, a in enumerate(lits)
        ]
        holding = [sum(1 << i for i, a in enumerate(lits) if a >> b & 1) for b in range(2 * n)]
        positives = sum(1 << 2 * v for v in range(n))
        results: list[int] = []

        def rec(allowed: int, once: int, twice: int, img: int, mask: int) -> None:
            used = once | twice  # folded onto the positive bits: the variables in use
            unused = n - ((used | used >> 1) & positives).bit_count()
            saturated = not once and not unused
            left = max_clauses - mask.bit_count()
            grows = left > 0 and once.bit_count() + 2 * unused <= 3 * left
            # Canonicity is hereditary: if a table g maps the prefix P below P, it maps
            # every S extending P below S (the j smallest of g(S) are <= those of g(P)).
            if (saturated or grows and left >= 2) and not _canonical(img, mask, ones, guard):
                return
            if saturated:
                results.append(mask)
            if not grows:
                return
            for i in bits(allowed):
                reached = once & lits[i]  # literals taking their second use
                child = allowed & later[i]
                for b in bits(reached):
                    child &= ~holding[b]
                rec(child, once ^ lits[i], twice | reached, img | cols[i], mask | 1 << i)

        rec((1 << len(universe)) - 1, 0, 0, 0, 0)
        del rec  # it refers to itself; freed here, its tables need no gc pass
        for mask in results:
            yield LsatInstance(n, tuple(universe[i] for i in bits(mask)))
