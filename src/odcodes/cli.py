"""Command line front end.

One subcommand per pipeline, each a thin shell over the library: generate,
clutter, gamma, verify, relations, reduce-sat, sat-roundtrip, tau,
polyhedron, and paper-report.  Each handler computes one result dict and
renders its text from that dict; ``main`` prints the dict as JSON (--json,
schema version 1) or the text.  Exit status: 0 on success/valid/pass, 1 on
invalid/fail or when stdout cannot be written, 2 on usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from time import perf_counter

from . import reports
from .clutters import (
    ClutterFormatError,
    InadmissibleGraphError,
    build_clutter,
    clutter_from_json,
    clutter_to_json,
)
from .codes import DEFAULT_CAP, _solve, check_cover_codes, check_relations, verify
from .cover import min_cover, qrose_clutter
from .families import FAMILIES, FamilySpec, generate
from .graphs import (
    CodeKind,
    GraphFormatError,
    _is_decimal,
    graph_to_json,
    graph_to_text,
    load_graph,
)
from .polyhedra import (
    FAMILY_HINTS,
    check_tightness,
    check_validity,
    integer_hull_equiv,
    od_polyhedron_system,
    qrose_system,
)
from .sat_reduction import (
    SAT_MAX_K,
    LsatFormatError,
    build_gadget,
    expected_od_size,
    expected_otd_size,
    parse_lsat,
    saturate,
)

SCHEMA = 1


class UsageError(Exception):
    pass


class _Refused(UsageError):
    """argparse refused the command line; parser is the one that refused it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises _Refused where argparse would print usage and exit 2, so that
    main reports the refusal the way --json asks, as it does a handler's."""

    def error(self, message):
        raise _Refused(self, message)


# the error code of each failure main reports, most specific class first
ERROR_CODES = (
    (InadmissibleGraphError, "inadmissible"),
    ((GraphFormatError, LsatFormatError, ClutterFormatError, UnicodeDecodeError, OSError), "format"),
    ((UsageError, ValueError), "usage"),
)

CHECKS = {"validity": check_validity, "tightness": check_tightness, "hull": integer_hull_equiv}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _kind(value: str) -> CodeKind:
    try:
        return CodeKind(value.upper())
    except ValueError:
        raise UsageError(f"unknown code kind {value!r}")


def _join(values) -> str:
    return " ".join(map(str, values))


def _integer(value: str) -> int:
    """Every integer option value is read here, in plain decimal as the file
    parsers read theirs; int() alone would take '1_0', '+3', ' 2' or non-ASCII
    digits."""
    if not _is_decimal(value):
        raise argparse.ArgumentTypeError(f"expects a plain decimal integer, got {value!r}")
    return int(value)


def _parsed(name: str, form: str, value: str, parse):
    """parse(value), or a UsageError naming the parameter and its expected form."""
    try:
        return parse(value)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"{name} expects {form}, got {value!r}") from None


def _sizes(value: str, name: str = "parameter sizes") -> tuple[int, ...]:
    form = "integers joined by '+', e.g. 2+2+3"
    return _parsed(name, form, value, lambda v: tuple(map(_integer, v.split("+"))))


def _chords(value: str) -> tuple[tuple[int, int], ...]:
    def pair(text: str) -> tuple[int, int]:
        a, b = text.split("-")
        return _integer(a), _integer(b)

    form = "a-b pairs joined by '+', e.g. 1-3+2-4"
    return _parsed(
        "parameter chords", form, value, lambda v: tuple(map(pair, v.split("+"))) if v else ()
    )


def _parse_params(raw: str | None) -> dict:
    """k=4,sizes=2+2+3,chords=1-3+2-4,name=gem,n=5"""
    params: dict = {}
    if not raw:
        return params
    for item in raw.split(","):
        if "=" not in item:
            raise UsageError(f"malformed parameter {item!r}, expected key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in params:
            raise UsageError(f"parameter {key} given twice")
        if key in ("k", "n"):
            params[key] = _parsed(f"parameter {key}", "an integer", value, _integer)
        elif key == "sizes":
            params["sizes"] = _sizes(value)
        elif key == "chords":
            params["chords"] = _chords(value)
        elif key == "name":
            params["name"] = value
        else:
            raise UsageError(f"unknown parameter {key!r}")
    return params


# -- subcommand handlers ---------------------------------------------------------
#
# Each returns (exit status, result dict, text).  paper-report alone returns
# its text as a generator that runs one section per chunk, so that text mode
# prints each section as it finishes, and its status as a function that main
# calls once the generator is spent.


def cmd_generate(args):
    g = generate(FamilySpec(args.family, **_parse_params(args.params)))
    return 0, {"command": "generate", "graph": graph_to_json(g)}, graph_to_text(g)


def cmd_clutter(args):
    c = build_clutter(load_graph(_read(args.graph)), _kind(args.kind))
    obj = {"command": "clutter", **clutter_to_json(c)}
    lines = [f"n {obj['n']}  kind {obj['kind']}", "ground: " + _join(obj["ground"])]
    lines += [f"{key}: " + (_join(obj[key]) or "(empty)") for key in ("v0", "f1")]
    lines.append("f2:")
    lines += [
        "  " + _join(e["vertices"]) + "   # " + ",".join(e["sources"])
        for e in obj["edges"]
        if len(e["vertices"]) >= 2
    ]
    return 0, obj, "\n".join(lines)


def _cover_fields(res) -> dict:
    fields = {"value": res.value, "witness": sorted(res.witness)}
    if res.all_optima is not None:
        fields["optima"] = [sorted(w) for w in res.all_optima]
        fields["truncated"] = res.truncated
    return fields


def _cap(args) -> int | None:
    """The most optima to list: --cap, DEFAULT_CAP by default, with
    --enumerate; None without it, where --cap is refused."""
    if args.enumerate:
        return DEFAULT_CAP if args.cap is None else args.cap
    if args.cap is not None:
        raise UsageError("--cap needs --enumerate")
    return None


def cmd_gamma(args):
    cap = _cap(args)
    g = load_graph(_read(args.graph))
    kind = _kind(args.kind)
    res = _solve(g, kind, cap)
    check_cover_codes(g, (res.witness, *(res.all_optima or ())), kind)
    obj = {"command": "gamma", "kind": kind.value, **_cover_fields(res)}
    lines = [f"gamma[{obj['kind']}] = {obj['value']}", "witness: " + _join(obj["witness"])]
    if "optima" in obj:
        lines.append(f"optima ({len(obj['optima'])}{', truncated' if obj['truncated'] else ''}):")
        lines += ["  " + _join(w) for w in obj["optima"]]
    return 0, obj, "\n".join(lines)


def cmd_verify(args):
    g = load_graph(_read(args.graph))
    kind = _kind(args.kind)
    form = "comma-separated vertex numbers, e.g. 0,2,3"
    code = _parsed(
        "--code", form, args.code, lambda v: sorted({_integer(t) for t in v.split(",") if t})
    )
    rep = verify(g, code, kind)
    obj = {
        "command": "verify",
        "kind": kind.value,
        "code": code,
        "valid": rep.valid,
        "undominated": list(rep.undominated),
        "unseparated": [[u, v, sorted(t)] for u, v, t in rep.unseparated],
    }
    lines = [f"valid: {'yes' if obj['valid'] else 'no'}"]
    if obj["undominated"]:
        lines.append("undominated: " + _join(obj["undominated"]))
    lines += [f"unseparated: {u},{v} (shared trace {t})" for u, v, t in obj["unseparated"]]
    return (0 if obj["valid"] else 1), obj, "\n".join(lines)


def cmd_relations(args):
    checks = [asdict(c) for c in check_relations(load_graph(_read(args.graph)))]
    text = "\n".join(f"{c['name']:16s} {c['status']:15s} {c['detail']}" for c in checks)
    status = 0 if all(c["status"] != "fail" for c in checks) else 1
    return status, {"command": "relations", "checks": checks}, text


def _gadget(path: str):
    """Parse, saturate and reduce an LSAT file: (input, saturated, gadget,
    OD target, OTD target)."""
    inst = parse_lsat(_read(path))
    saturated = saturate(inst)
    gg = build_gadget(saturated)
    return inst, saturated, gg, expected_od_size(gg), expected_otd_size(gg)


def cmd_reduce_sat(args):
    inst, saturated, gg, od, otd = _gadget(args.formula)
    if args.emit_graph:
        with open(args.emit_graph, "w", encoding="utf-8") as fh:
            fh.write(graph_to_text(gg.graph))
    if args.emit_roles:
        with open(args.emit_roles, "w", encoding="utf-8") as fh:
            roles = {str(v): lab for v, lab in sorted(gg.graph.labels.items())}
            json.dump({"schema": SCHEMA, "roles": roles}, fh, sort_keys=True)
    obj = {
        "command": "reduce-sat",
        "input": {"vars": inst.n_vars, "clauses": inst.n_clauses},
        "saturated": {"vars": saturated.n_vars, "clauses": saturated.n_clauses},
        "gadget": {"n": gg.graph.n, "m": gg.graph.m, "od_target": od, "otd_target": otd},
    }
    lines = [
        f"{key}: {obj[key]['vars']} vars, {obj[key]['clauses']} clauses"
        for key in ("input", "saturated")
    ]
    gadget = obj["gadget"]
    lines.append(f"gadget graph: {gadget['n']} vertices, {gadget['m']} edges")
    lines.append(f"targets: od {gadget['od_target']}, otd {gadget['otd_target']}")
    return 0, obj, "\n".join(lines)


def cmd_sat_roundtrip(args):
    _, _, gg, od_target, otd_target = _gadget(args.formula)
    res = reports.check_sat_instance(gg)
    satisfiable = res.model is not None
    rows = [
        ["satisfiable", str(satisfiable)],
        ["gamma_OD", f"{res.od} (target {od_target})"],
        ["gamma_OTD", f"{res.otd} (target {otd_target})"],
    ]
    if satisfiable:
        rows.append(["assignment-to-code", "valid" if res.sizes_ok and res.codes_ok else "INVALID"])
        rows.append(["code-to-assignment", "satisfies" if res.decoded_ok else "DOES NOT SATISFY"])
    ok = res.sizes_ok and res.codes_ok and res.decoded_ok
    rows.append(["verdict", "consistent" if ok else "INCONSISTENT"])
    obj = {"command": "sat-roundtrip", "rows": rows, "ok": ok}
    return (0 if ok else 1), obj, "\n".join(f"{k:22s} {v}" for k, v in obj["rows"])


def cmd_tau(args):
    cap = _cap(args)
    try:
        obj = json.loads(_read(args.clutter))
    except json.JSONDecodeError as exc:
        raise ClutterFormatError(f"invalid JSON: {exc}") from None
    c = clutter_from_json(obj)
    res = min_cover(c, cap)
    obj = {"command": "tau", "nodes_explored": res.nodes_explored, **_cover_fields(res)}
    text = f"tau = {obj['value']}\nwitness: {_join(obj['witness'])}"
    if "optima" in obj:
        text += f"\noptima: {len(obj['optima'])}" + (" (truncated)" if obj["truncated"] else "")
    return 0, obj, text


def _refuse_unread(args, options, read, context: str) -> None:
    """Refuse the first of options, in their order, that is set and that
    context does not read."""
    for dest in options:
        if getattr(args, dest) is not None and dest not in read:
            raise UsageError(f"--{dest.replace('_', '-')} is not valid with {context}")


def cmd_polyhedron(args):
    options = ("k", "n", "q", "sizes", "generic_family", "graph")
    if args.family == "qrose":
        _refuse_unread(args, options, ("n", "q"), "--family qrose")
        if args.n is None or args.q is None:
            raise UsageError("qrose needs --n and --q")
        sys_ = qrose_system(args.n, args.q)
        clutter = qrose_clutter(args.n, args.q)
        label = f"qrose n={args.n} q={args.q}"
    else:
        if args.family == "generic" and args.graph is not None:
            _refuse_unread(args, options, ("graph",), "--graph")
            g = load_graph(_read(args.graph))
            label = f"generic {args.graph}"
        else:
            generic = args.family == "generic"
            read = ("k", "n", "sizes", "generic_family") if generic else ("k", "n", "sizes")
            _refuse_unread(args, options, read, f"--family {args.family}")
            params = {key: v for key, v in (("k", args.k), ("n", args.n)) if v is not None}
            if args.sizes is not None:
                params["sizes"] = _sizes(args.sizes, "--sizes")
            spec_family = args.generic_family if generic else args.family
            if spec_family is None:
                raise UsageError("--family generic needs --generic-family or --graph")
            g = generate(FamilySpec(spec_family, **params))
            label = f"{args.family} " + ",".join(f"{k}={v}" for k, v in params.items())
        sys_ = od_polyhedron_system(g, args.family)
        clutter = build_clutter(g, CodeKind.OD)
    names = CHECKS if args.check == "all" else (args.check,)
    checks = {name: CHECKS[name](sys_, clutter).ok for name in names}
    obj = {
        "command": "polyhedron",
        "family": args.family,
        "equalities": sorted(sys_.equalities),
        "inequalities": [
            {"support": sorted(c.support), "rhs": c.rhs, "source": c.source}
            for c in sys_.inequalities
        ],
        "checks": checks,
    }
    lines = [label, *(f"x_{v} = 1" for v in obj["equalities"])]
    lines += [f"x({_join(c['support'])}) >= {c['rhs']}" for c in obj["inequalities"]]
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]
    return (0 if all(checks.values()) else 1), obj, "\n".join(lines)


# the option each paper-report section reads, and the keywords its value (None if unset) gives
SECTION_OPTIONS = {
    "families": ("max_k", lambda k: {} if k is None else {"max_n": k}),
    "qrose": ("max_k", lambda k: {} if k is None else {"max_n": min(k, 10)}),
    "sat": ("max_k", lambda k: {"max_vars": 3 if k is None else k}),
    "bounds": ("seed", lambda seed: {} if seed is None else {"seed": seed}),
}
# the largest --max-k the sat and families sections take; a larger one is
# refused before any section runs (qrose caps its own at 10)
MAX_K_BOUNDS = {"sat": SAT_MAX_K, "families": reports.FAMILIES_MAX_N}


def cmd_paper_report(args):
    if args.section == "all":
        names = list(reports.REPORT_SECTIONS)
    elif args.section in reports.REPORT_SECTIONS:
        names = [args.section]
    else:
        raise UsageError(
            f"unknown section {args.section!r}; pick from {', '.join(reports.REPORT_SECTIONS)} or all"
        )
    if args.section != "all":
        read, _ = SECTION_OPTIONS.get(args.section, (None, None))
        _refuse_unread(args, ("max_k", "seed"), (read,), f"section {args.section}")
    for name, bound in MAX_K_BOUNDS.items():
        if name in names and (args.max_k or 0) > bound:
            raise UsageError(f"--max-k for the {name} section is at most {bound}, got {args.max_k}")
    obj = {"command": "paper-report", "ok": True, "sections": []}

    def sections():
        for name in names:
            start = perf_counter()
            dest, keywords = SECTION_OPTIONS.get(name, (None, lambda _: {}))
            rep = reports.REPORT_SECTIONS[name](**keywords(vars(args).get(dest)))
            elapsed = perf_counter() - start
            section = {"title": rep.title, "ok": rep.ok, "rows": [asdict(r) for r in rep.rows]}
            obj["sections"].append(section)
            obj["ok"] = obj["ok"] and section["ok"]
            head = f"== {section['title']}: {'PASS' if section['ok'] else 'FAIL'}"
            lines = [f"{head} ({len(section['rows'])} rows, {elapsed:.2f}s)"]
            lines += [
                f"  [{'ok ' if r['ok'] else 'FAIL'}] {r['label']}: "
                f"expected {r['expected']}, got {r['actual']}"
                for r in section["rows"]
                if args.verbose or not r["ok"]
            ]
            yield "\n".join(lines)

    return (lambda: 0 if obj["ok"] else 1), obj, sections()


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="odcodes",
        description="Open-separating dominating codes: solvers, families, reductions, polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family member in graph text format")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", help="k=4 | n=6 | sizes=2+2+3 | chords=1-3+2-4 | name=gem")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("clutter", help="build and reduce the code hypergraph of a graph")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    p.set_defaults(fn=cmd_clutter)

    p = sub.add_parser("gamma", help="exact minimum code size of a graph")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    p.add_argument("--enumerate", action="store_true", help="list all optimal codes")
    p.add_argument("--cap", type=_integer, help=f"most optima to list (default {DEFAULT_CAP})")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("verify", help="check a candidate code")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    p.add_argument("--code", required=True, help="comma-separated vertex list")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("relations", help="inter-number inequalities on one graph")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("reduce-sat", help="saturate a linear SAT formula and build its gadget graph")
    p.add_argument("formula")
    p.add_argument("--emit-graph", metavar="PATH")
    p.add_argument("--emit-roles", metavar="PATH")
    p.set_defaults(fn=cmd_reduce_sat)

    p = sub.add_parser("sat-roundtrip", help="full equivalence check on one formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_sat_roundtrip)

    p = sub.add_parser("tau", help="minimum cover of a clutter JSON file")
    p.add_argument("clutter")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=_integer, help=f"most optima to list (default {DEFAULT_CAP})")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("polyhedron", help="emit and check a family constraint system")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_HINTS) + ("qrose",))
    p.add_argument("--k", type=_integer)
    p.add_argument("--n", type=_integer)
    p.add_argument("--q", type=_integer)
    p.add_argument("--sizes")
    p.add_argument("--generic-family", help="family used to build the graph for --family generic")
    p.add_argument("--graph", help="graph file for --family generic")
    p.add_argument("--check", default="all", choices=("validity", "tightness", "hull", "all"))
    p.set_defaults(fn=cmd_polyhedron)

    p = sub.add_parser("paper-report", help="recompute the published result tables")
    p.add_argument("section", help=f"one of {', '.join(reports.REPORT_SECTIONS)} or all")
    p.add_argument("--max-k", type=_integer, help="size cap for families/qrose/sat sections")
    p.add_argument("--seed", type=_integer, help="random seed for the bounds section")
    p.add_argument("--verbose", action="store_true", help="print passing rows too")
    p.set_defaults(fn=cmd_paper_report)

    for p in sub.choices.values():  # last, so that --json ends each option list
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


class _OutputError(Exception):
    """stdout refused a write; kept apart from the commands' own OSErrors."""


def _emit(chunk: str) -> None:
    """Print one piece of output and flush it, so a failed write shows here."""
    try:
        print(chunk, end="" if chunk.endswith("\n") else "\n", flush=True)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _asks_json(argv: list[str]) -> bool:
    """Whether a command line that argparse refused gives --json, or a prefix
    of it as argparse would read one, before any bare --."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    return any(len(arg) > 2 and "--json".startswith(arg) for arg in head)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    json_mode = _asks_json(argv)
    try:
        try:
            args = build_parser().parse_args(argv)
            json_mode = getattr(args, "json", False)
            status, obj, text = args.fn(args)
            for chunk in [text] if isinstance(text, str) else text:
                if not json_mode:
                    _emit(chunk)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        except (UsageError, ValueError, OSError) as exc:
            code = next(code for types, code in ERROR_CODES if isinstance(exc, types))
            if json_mode:
                _emit(json.dumps({"schema": SCHEMA, "error": {"code": code, "message": str(exc)}}))
            elif isinstance(exc, _Refused):
                exc.parser.print_usage(sys.stderr)
                print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
            else:
                print(f"error: {exc}", file=sys.stderr)
            return 1 if code == "inadmissible" else 2
        if json_mode:
            _emit(json.dumps({"schema": SCHEMA, **obj}, sort_keys=True))
    except _OutputError as exc:
        # What stdout still buffers goes to devnull, so the flush at exit
        # cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc.__cause__, BrokenPipeError):
            print(f"error: cannot write output: {exc.__cause__}", file=sys.stderr)
        return 1
    return status() if callable(status) else status


if __name__ == "__main__":
    sys.exit(main())
