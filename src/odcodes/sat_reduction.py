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
            clauses.append(frozenset(current))
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
    assert out.n_vars <= 3 * n0 and out.n_clauses <= m0 + 4 * n0
    assert out.saturated
    return out


def brute_force_sat(inst: LsatInstance, limit: int = 24) -> dict[int, bool] | None:
    """Truth-table scan; first satisfying assignment in binary order, or None."""
    if inst.n_vars > limit:
        raise ValueError(f"brute force guarded to {limit} variables")
    for bitsword in range(1 << inst.n_vars):
        assignment = {v: bool(bitsword >> (v - 1) & 1) for v in range(1, inst.n_vars + 1)}
        if inst.evaluate(assignment):
            return assignment
    return None


# -- gadget graph -------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetGraph:
    """Reduction output: per variable a 3-path v1-v2-v3 hung on the literal
    vertices w1/w2 (present when the literal occurs), per clause a 3-path
    u1-u2-u3, and u1 joined to the w-vertex of every literal in the clause."""

    graph: Graph
    instance: LsatInstance
    w_pos: tuple[int | None, ...]  # by variable, 0-based
    w_neg: tuple[int | None, ...]
    v_triples: tuple[tuple[int, int, int], ...]
    u_triples: tuple[tuple[int, int, int], ...]

    @property
    def n_vars(self) -> int:
        return self.instance.n_vars

    @property
    def n_clauses(self) -> int:
        return self.instance.n_clauses

    @property
    def roles(self) -> dict[int, str]:
        return self.graph.labels


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
    w_pos: list[int | None] = []
    w_neg: list[int | None] = []
    v_triples: list[tuple[int, int, int]] = []

    def fresh(label: str) -> int:
        labels[len(labels)] = label
        return len(labels) - 1

    for x in range(1, inst.n_vars + 1):
        wp = fresh(f"w1:x{x}") if x in counts else None
        wn = fresh(f"w2:x{x}") if -x in counts else None
        v1 = fresh(f"v1:x{x}")
        v2 = fresh(f"v2:x{x}")
        v3 = fresh(f"v3:x{x}")
        if wp is not None:
            edges.append((wp, v1))
        if wn is not None:
            edges.append((wn, v1))
        edges += [(v1, v2), (v2, v3)]
        w_pos.append(wp)
        w_neg.append(wn)
        v_triples.append((v1, v2, v3))

    u_triples: list[tuple[int, int, int]] = []
    for j, clause in enumerate(inst.clauses, 1):
        u1 = fresh(f"u1:c{j}")
        u2 = fresh(f"u2:c{j}")
        u3 = fresh(f"u3:c{j}")
        edges += [(u1, u2), (u2, u3)]
        for lit in sorted(clause, key=_lit_key):
            w = w_pos[abs(lit) - 1] if lit > 0 else w_neg[abs(lit) - 1]
            edges.append((w, u1))
        u_triples.append((u1, u2, u3))

    graph = Graph.from_edges(len(labels), edges, labels)
    assert graph.n == 3 * inst.n_clauses + 3 * inst.n_vars + len(counts)
    return GadgetGraph(
        graph,
        inst,
        tuple(w_pos),
        tuple(w_neg),
        tuple(v_triples),
        tuple(u_triples),
    )


def expected_od_size(gg: GadgetGraph) -> int:
    return 3 * gg.n_vars + 2 * gg.n_clauses - 1


def expected_otd_size(gg: GadgetGraph) -> int:
    return 3 * gg.n_vars + 2 * gg.n_clauses


def assignment_to_code(gg: GadgetGraph, assignment: dict[int, bool], total: bool = False):
    """Build the witness code from a satisfying assignment.

    Picks v1 for every variable except the first, v2 for all, u1 and u2 for
    every clause, and per variable the w-vertex of its true literal (or of
    its only existing literal).  With total=True the dropped v1 is added
    back, growing the code by one.
    """
    if not gg.instance.evaluate(assignment):
        raise ValueError("assignment does not satisfy the instance")
    code = {v1 for v1, _, _ in gg.v_triples[1:]} | {v2 for _, v2, _ in gg.v_triples}
    code |= {u for u1, u2, _ in gg.u_triples for u in (u1, u2)}
    for x in range(1, gg.n_vars + 1):
        wp, wn = gg.w_pos[x - 1], gg.w_neg[x - 1]
        if wp is not None and wn is not None:
            code.add(wp if assignment[x] else wn)
        elif wp is not None:
            code.add(wp)
        else:
            code.add(wn)
    if total:
        code.add(gg.v_triples[0][0])
    assert len(code) == (expected_otd_size(gg) if total else expected_od_size(gg))
    return frozenset(code)


def code_to_assignment(gg: GadgetGraph, code) -> dict[int, bool]:
    """Read an assignment off a code that holds exactly one w-vertex per
    variable; raises when some variable has zero or two of them selected."""
    code = set(code)
    assignment: dict[int, bool] = {}
    for x in range(1, gg.n_vars + 1):
        wp, wn = gg.w_pos[x - 1], gg.w_neg[x - 1]
        present = [w for w in (wp, wn) if w is not None and w in code]
        if len(present) != 1:
            raise ValueError(
                f"variable x{x} has {len(present)} of its w-vertices in the code, need exactly 1"
            )
        assignment[x] = present[0] == wp
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
    flip (identity excluded)."""
    position = {c: i for i, c in enumerate(universe)}
    tables = []
    for perm in permutations(range(1, n_vars + 1)):
        for flips in product((1, -1), repeat=n_vars):
            if all(perm[v - 1] == v and flips[v - 1] == 1 for v in range(1, n_vars + 1)):
                continue

            def mapped(lit: int) -> int:
                v = abs(lit)
                sign = (1 if lit > 0 else -1) * flips[v - 1]
                return sign * perm[v - 1]

            tables.append([position[frozenset(mapped(l) for l in c)] for c in universe])
    return tables


def enumerate_slsat(max_vars: int, max_clauses: int):
    """Yield one representative per isomorphism class of saturated instances.

    Exhausts every clause set with at most max_clauses clauses over exactly n
    variables (each occurring) for n = 1..max_vars; two instances are
    isomorphic when a variable relabeling plus polarity flips maps one onto
    the other.  Representatives are the index-wise minimal members of their
    class, so the output is deterministic.

    The search state is three ints: the clauses that may still join, and the
    literals used once and twice, literal l being bit 2(|l| - 1) + (l < 0).
    """
    for n in range(1, max_vars + 1):
        universe = clause_universe(n)
        tables = _transform_tables(n, universe)
        lits = [sum(1 << 2 * (abs(l) - 1) + (l < 0) for l in c) for c in universe]
        later = [
            sum(1 << j for j in range(i + 1, len(lits)) if (a & lits[j]).bit_count() <= 1)
            for i, a in enumerate(lits)
        ]
        holding = [sum(1 << i for i, a in enumerate(lits) if a >> b & 1) for b in range(2 * n)]
        positives = sum(1 << 2 * v for v in range(n))
        chosen: list[int] = []
        results: list[tuple[int, ...]] = []

        def canonical() -> bool:
            idx = chosen  # already sorted ascending
            first = idx[0]
            for table in tables:
                low = min(table[i] for i in idx)
                if low < first:
                    return False
                if low == first and sorted(table[i] for i in idx) < idx:
                    return False
            return True

        def rec(allowed: int, once: int, twice: int) -> None:
            used = once | twice  # folded onto the positive bits: the variables in use
            unused = n - ((used | used >> 1) & positives).bit_count()
            if chosen and not once and not unused and canonical():
                results.append(tuple(chosen))
            left = max_clauses - len(chosen)
            if left <= 0 or once.bit_count() + 2 * unused > 3 * left:
                return
            for i in bits(allowed):
                reached = once & lits[i]  # literals taking their second use
                child = allowed & later[i]
                for b in bits(reached):
                    child &= ~holding[b]
                chosen.append(i)
                rec(child, once ^ lits[i], twice | reached)
                chosen.pop()

        rec((1 << len(universe)) - 1, 0, 0)
        for idxs in results:
            yield LsatInstance(n, tuple(universe[i] for i in idxs))
