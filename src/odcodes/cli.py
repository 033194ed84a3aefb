"""Command line front end.

One subcommand per pipeline, each a thin shell over the library: generate,
clutter, gamma, verify, relations, reduce-sat, sat-roundtrip, tau,
polyhedron, and paper-report.  Exit status: 0 on success/valid/pass, 1 on
invalid/fail, 2 on usage or format errors.  Every subcommand takes --json
for machine-readable output (schema version 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reports
from .clutters import (
    InadmissibleGraphError,
    build_clutter,
    clutter_from_json,
    clutter_to_json,
)
from .codes import check_cover_code, check_relations, gamma, verify
from .cover import min_cover
from .families import FAMILIES, FamilySpec, generate
from .graphs import CodeKind, GraphFormatError, graph_to_json, graph_to_text, load_graph
from .polyhedra import (
    FAMILY_HINTS,
    check_tightness,
    check_validity,
    integer_hull_equiv,
    od_polyhedron_system,
    qrose_system,
)
from .sat_reduction import (
    LsatFormatError,
    brute_force_sat,
    build_gadget,
    code_to_assignment,
    assignment_to_code,
    expected_od_size,
    expected_otd_size,
    parse_lsat,
    saturate,
)

SCHEMA = 1


class UsageError(Exception):
    pass


def _emit(obj: dict, json_mode: bool, text: str) -> None:
    if json_mode:
        obj = {"schema": SCHEMA, **obj}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _fail(message: str, code: str, json_mode: bool) -> int:
    if json_mode:
        print(json.dumps({"schema": SCHEMA, "error": {"code": code, "message": message}}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2 if code in ("usage", "format") else 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _kind(value: str) -> CodeKind:
    try:
        return CodeKind(value.upper())
    except ValueError:
        raise UsageError(f"unknown code kind {value!r}")


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
        if key in ("k", "n"):
            params[key] = int(value)
        elif key == "sizes":
            params["sizes"] = tuple(int(s) for s in value.split("+"))
        elif key == "chords":
            chords = []
            if value:
                for pair in value.split("+"):
                    a, b = pair.split("-")
                    chords.append((int(a), int(b)))
            params["chords"] = tuple(chords)
        elif key == "name":
            params["name"] = value
        else:
            raise UsageError(f"unknown parameter {key!r}")
    return params


# -- subcommand handlers ---------------------------------------------------------


def cmd_generate(args) -> int:
    spec = FamilySpec(args.family, **_parse_params(args.params))
    g = generate(spec)
    _emit({"command": "generate", "graph": graph_to_json(g)}, args.json, graph_to_text(g))
    return 0


def cmd_clutter(args) -> int:
    g = load_graph(_read(args.graph))
    c = build_clutter(g, _kind(args.kind))
    lines = [f"n {c.n}  kind {args.kind.upper()}"]
    lines.append("ground: " + " ".join(map(str, sorted(c.ground))))
    lines.append("v0: " + (" ".join(map(str, sorted(c.v0))) or "(empty)"))
    lines.append("f1: " + (" ".join(map(str, sorted(c.f1))) or "(empty)"))
    lines.append("f2:")
    for e in c.f2:
        lines.append("  " + " ".join(map(str, e.vertices())) + "   # " + ",".join(e.sources))
    _emit({"command": "clutter", **clutter_to_json(c)}, args.json, "\n".join(lines))
    return 0


def cmd_gamma(args) -> int:
    g = load_graph(_read(args.graph))
    kind = _kind(args.kind)
    if args.enumerate:
        c = build_clutter(g, kind)
        res = min_cover(c, enumerate_all=True, cap=args.cap)
        value, witness = res.value, res.witness
        for code in (witness, *res.all_optima):
            check_cover_code(g, code, kind)
        optima = [sorted(w) for w in res.all_optima]
        obj = {
            "command": "gamma",
            "kind": kind.value,
            "value": value,
            "witness": sorted(witness),
            "optima": optima,
            "truncated": res.truncated,
        }
        text = f"gamma[{kind.value}] = {value}\nwitness: {' '.join(map(str, sorted(witness)))}\n"
        text += f"optima ({len(optima)}{', truncated' if res.truncated else ''}):\n"
        text += "".join("  " + " ".join(map(str, w)) + "\n" for w in optima)
        _emit(obj, args.json, text)
        return 0
    value, witness = gamma(g, kind)
    _emit(
        {"command": "gamma", "kind": kind.value, "value": value, "witness": sorted(witness)},
        args.json,
        f"gamma[{kind.value}] = {value}\nwitness: {' '.join(map(str, sorted(witness)))}",
    )
    return 0


def cmd_verify(args) -> int:
    g = load_graph(_read(args.graph))
    kind = _kind(args.kind)
    code = sorted({int(tok) for tok in args.code.split(",") if tok != ""})
    rep = verify(g, code, kind)
    obj = {
        "command": "verify",
        "kind": kind.value,
        "code": code,
        "valid": rep.valid,
        "undominated": list(rep.undominated),
        "unseparated": [[u, v, sorted(t)] for u, v, t in rep.unseparated],
    }
    lines = [f"valid: {'yes' if rep.valid else 'no'}"]
    if rep.undominated:
        lines.append("undominated: " + " ".join(map(str, rep.undominated)))
    for u, v, t in rep.unseparated:
        lines.append(f"unseparated: {u},{v} (shared trace {sorted(t)})")
    _emit(obj, args.json, "\n".join(lines))
    return 0 if rep.valid else 1


def cmd_relations(args) -> int:
    g = load_graph(_read(args.graph))
    checks = check_relations(g)
    obj = {
        "command": "relations",
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail} for c in checks],
    }
    text = "\n".join(f"{c.name:16s} {c.status:15s} {c.detail}" for c in checks)
    _emit(obj, args.json, text)
    return 0 if all(c.status != "fail" for c in checks) else 1


def cmd_reduce_sat(args) -> int:
    inst = parse_lsat(_read(args.formula))
    saturated = saturate(inst)
    gg = build_gadget(saturated)
    if args.emit_graph:
        with open(args.emit_graph, "w", encoding="utf-8") as fh:
            fh.write(graph_to_text(gg.graph))
    if args.emit_roles:
        with open(args.emit_roles, "w", encoding="utf-8") as fh:
            json.dump(
                {"schema": SCHEMA, "roles": {str(v): lab for v, lab in sorted(gg.roles.items())}},
                fh,
                sort_keys=True,
            )
    obj = {
        "command": "reduce-sat",
        "input": {"vars": inst.n_vars, "clauses": inst.n_clauses},
        "saturated": {"vars": saturated.n_vars, "clauses": saturated.n_clauses},
        "gadget": {
            "n": gg.graph.n,
            "m": gg.graph.m,
            "od_target": expected_od_size(gg),
            "otd_target": expected_otd_size(gg),
        },
    }
    text = (
        f"input: {inst.n_vars} vars, {inst.n_clauses} clauses\n"
        f"saturated: {saturated.n_vars} vars, {saturated.n_clauses} clauses\n"
        f"gadget graph: {gg.graph.n} vertices, {gg.graph.m} edges\n"
        f"targets: od {expected_od_size(gg)}, otd {expected_otd_size(gg)}"
    )
    _emit(obj, args.json, text)
    return 0


def cmd_sat_roundtrip(args) -> int:
    inst = parse_lsat(_read(args.formula))
    saturated = saturate(inst)
    gg = build_gadget(saturated)
    model = brute_force_sat(saturated)
    od, od_witness = gamma(gg.graph, CodeKind.OD)
    otd, _ = gamma(gg.graph, CodeKind.OTD)
    rows = []
    satisfiable = model is not None
    rows.append(("satisfiable", str(satisfiable)))
    rows.append(("gamma_OD", f"{od} (target {expected_od_size(gg)})"))
    rows.append(("gamma_OTD", f"{otd} (target {expected_otd_size(gg)})"))
    ok = (od == expected_od_size(gg)) == satisfiable and (otd == expected_otd_size(gg)) == satisfiable
    if satisfiable:
        code = assignment_to_code(gg, model)
        ok &= verify(gg.graph, code, CodeKind.OD).valid
        rows.append(("assignment-to-code", "valid" if ok else "INVALID"))
        decoded = code_to_assignment(gg, od_witness)
        decoded_ok = saturated.evaluate(decoded)
        ok &= decoded_ok
        rows.append(("code-to-assignment", "satisfies" if decoded_ok else "DOES NOT SATISFY"))
    rows.append(("verdict", "consistent" if ok else "INCONSISTENT"))
    obj = {"command": "sat-roundtrip", "rows": [list(r) for r in rows], "ok": ok}
    _emit(obj, args.json, "\n".join(f"{k:22s} {v}" for k, v in rows))
    return 0 if ok else 1


def cmd_tau(args) -> int:
    c = clutter_from_json(json.loads(_read(args.clutter)))
    res = min_cover(c, enumerate_all=args.enumerate, cap=args.cap)
    obj = {
        "command": "tau",
        "value": res.value,
        "witness": sorted(res.witness),
        "nodes_explored": res.nodes_explored,
    }
    text = f"tau = {res.value}\nwitness: {' '.join(map(str, sorted(res.witness)))}"
    if args.enumerate:
        obj["optima"] = [sorted(w) for w in res.all_optima]
        obj["truncated"] = res.truncated
        text += f"\noptima: {len(res.all_optima)}" + (" (truncated)" if res.truncated else "")
    _emit(obj, args.json, text)
    return 0


def cmd_polyhedron(args) -> int:
    if args.family == "qrose":
        if args.n is None or args.q is None:
            raise UsageError("qrose needs --n and --q")
        sys_ = qrose_system(args.n, args.q)
        from .cover import qrose_clutter

        clutter = qrose_clutter(args.n, args.q)
        label = f"qrose n={args.n} q={args.q}"
    elif args.family == "generic" and args.graph:
        g = load_graph(_read(args.graph))
        sys_ = od_polyhedron_system(g, "generic")
        clutter = build_clutter(g, CodeKind.OD)
        label = f"generic {args.graph}"
    else:
        params: dict = {}
        if args.k is not None:
            params["k"] = args.k
        if args.n is not None:
            params["n"] = args.n
        if args.sizes:
            params["sizes"] = tuple(int(s) for s in args.sizes.split("+"))
        spec_family = args.generic_family if args.family == "generic" else args.family
        if spec_family is None:
            raise UsageError("--family generic needs --generic-family or --graph")
        g = generate(FamilySpec(spec_family, **params))
        sys_ = od_polyhedron_system(g, args.family)
        clutter = build_clutter(g, CodeKind.OD)
        label = f"{args.family} " + ",".join(f"{k}={v}" for k, v in params.items())
    checks = {}
    if args.check in ("validity", "all"):
        checks["validity"] = check_validity(sys_, clutter).ok
    if args.check in ("tightness", "all"):
        checks["tightness"] = check_tightness(sys_, clutter).ok
    if args.check in ("hull", "all"):
        checks["hull"] = integer_hull_equiv(sys_, clutter).ok
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
    lines = [label]
    lines += [f"x_{v} = 1" for v in sorted(sys_.equalities)]
    lines += [
        "x(" + " ".join(map(str, sorted(c.support))) + f") >= {c.rhs}" for c in sys_.inequalities
    ]
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]
    _emit(obj, args.json, "\n".join(lines))
    return 0 if all(checks.values()) else 1


def cmd_paper_report(args) -> int:
    if args.section == "all":
        sections = list(reports.REPORT_SECTIONS)
    elif args.section in reports.REPORT_SECTIONS:
        sections = [args.section]
    else:
        raise UsageError(
            f"unknown section {args.section!r}; pick from {', '.join(reports.REPORT_SECTIONS)} or all"
        )
    all_ok = True
    out = []
    for name in sections:
        fn = reports.REPORT_SECTIONS[name]
        kwargs = {}
        if name == "families" and args.max_k:
            kwargs["max_n"] = args.max_k
        if name == "qrose" and args.max_k:
            kwargs["max_n"] = min(args.max_k, 10)
        if name == "sat":
            kwargs["max_vars"] = args.max_k or 3
        if name == "bounds":
            kwargs["seed"] = args.seed
        rep = fn(**kwargs)
        all_ok &= rep.ok
        out.append(rep)
        if not args.json:
            status = "PASS" if rep.ok else "FAIL"
            print(f"== {rep.title}: {status} ({len(rep.rows)} rows, {rep.elapsed:.2f}s)")
            shown = rep.rows if args.verbose else rep.failures
            for r in shown:
                mark = "ok " if r.ok else "FAIL"
                print(f"  [{mark}] {r.label}: expected {r.expected}, got {r.actual}")
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "command": "paper-report",
                    "ok": all_ok,
                    "sections": [
                        {
                            "title": rep.title,
                            "ok": rep.ok,
                            "rows": [
                                {
                                    "label": r.label,
                                    "expected": r.expected,
                                    "actual": r.actual,
                                    "ok": r.ok,
                                }
                                for r in rep.rows
                            ],
                        }
                        for rep in out
                    ],
                },
                sort_keys=True,
            )
        )
    return 0 if all_ok else 1


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odcodes",
        description="Open-separating dominating codes: solvers, families, reductions, polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("generate", help="emit a family member in graph text format")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", help="k=4 | n=6 | sizes=2+2+3 | chords=1-3+2-4 | name=gem")
    add_json(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("clutter", help="build and reduce the code hypergraph of a graph")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    add_json(p)
    p.set_defaults(fn=cmd_clutter)

    p = sub.add_parser("gamma", help="exact minimum code size of a graph")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    p.add_argument("--enumerate", action="store_true", help="list all optimal codes")
    p.add_argument("--cap", type=int, default=10_000)
    add_json(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("verify", help="check a candidate code")
    p.add_argument("graph")
    p.add_argument("--kind", default="OD")
    p.add_argument("--code", required=True, help="comma-separated vertex list")
    add_json(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("relations", help="inter-number inequalities on one graph")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("reduce-sat", help="saturate a linear SAT formula and build its gadget graph")
    p.add_argument("formula")
    p.add_argument("--emit-graph", metavar="PATH")
    p.add_argument("--emit-roles", metavar="PATH")
    add_json(p)
    p.set_defaults(fn=cmd_reduce_sat)

    p = sub.add_parser("sat-roundtrip", help="full equivalence check on one formula")
    p.add_argument("formula")
    add_json(p)
    p.set_defaults(fn=cmd_sat_roundtrip)

    p = sub.add_parser("tau", help="minimum cover of a clutter JSON file")
    p.add_argument("clutter")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=int, default=10_000)
    add_json(p)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("polyhedron", help="emit and check a family constraint system")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_HINTS) + ("qrose",))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--sizes")
    p.add_argument("--generic-family", help="family used to build the graph for --family generic")
    p.add_argument("--graph", help="graph file for --family generic")
    p.add_argument("--check", default="all", choices=("validity", "tightness", "hull", "all"))
    add_json(p)
    p.set_defaults(fn=cmd_polyhedron)

    p = sub.add_parser("paper-report", help="recompute the published result tables")
    p.add_argument("section", help=f"one of {', '.join(reports.REPORT_SECTIONS)} or all")
    p.add_argument("--max-k", type=int, help="size cap for families/qrose/sat sections")
    p.add_argument("--seed", type=int, default=reports.DEFAULT_SEED)
    p.add_argument("--verbose", action="store_true", help="print passing rows too")
    add_json(p)
    p.set_defaults(fn=cmd_paper_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    json_mode = getattr(args, "json", False)
    try:
        return args.fn(args)
    except (UsageError, GraphFormatError, LsatFormatError, OSError) as exc:
        return _fail(str(exc), "format" if not isinstance(exc, UsageError) else "usage", json_mode)
    except InadmissibleGraphError as exc:
        return _fail(str(exc), "inadmissible", json_mode)
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc), "usage", json_mode)


if __name__ == "__main__":
    sys.exit(main())
