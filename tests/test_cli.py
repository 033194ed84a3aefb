import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from odcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refusal(capsys, *argv):
    """(exit status, error code, message) of a refused command, after
    checking that text mode and --json report the same message."""
    code, out, err = run(capsys, *argv)
    json_code, json_out, json_err = run(capsys, *argv, "--json")
    error = json.loads(json_out)["error"]
    assert out == "" and json_err == "" and json_code == code
    assert err == f"error: {error['message']}\n"
    return code, error["code"], error["message"]


SUBCOMMANDS = (
    "generate",
    "clutter",
    "gamma",
    "verify",
    "relations",
    "reduce-sat",
    "sat-roundtrip",
    "tau",
    "polyhedron",
    "paper-report",
)


def test_every_subcommand_takes_json_as_its_last_option(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "{" + ",".join(SUBCOMMANDS) + "}" in out
    for name in SUBCOMMANDS:
        code, out, _ = run(capsys, name, "--help")
        options = out.split("options:\n")[1].splitlines()
        flags = [line.split()[0] for line in options if line.startswith("  -")]
        assert code == 0 and flags[-1] == "--json", name


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def lsat_file(tmp_path):
    path = tmp_path / "f.lsat"
    path.write_text("p lsat 2 3\n1 0\n2 0\n1 2 0\n")
    return str(path)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("generate", "--family", "thin-sun", "--params", "k=5,chords=1-3-4"),
            "parameter chords expects a-b pairs joined by '+', e.g. 1-3+2-4, got '1-3-4'",
        ),
        (
            ("generate", "--family", "fan", "--params", "k=abc"),
            "parameter k expects an integer, got 'abc'",
        ),
        (
            ("generate", "--family", "clique-star", "--params", "sizes=2+x"),
            "parameter sizes expects integers joined by '+', e.g. 2+2+3, got '2+x'",
        ),
        (
            ("polyhedron", "--family", "thin-spider", "--k", "4", "--sizes", "2+y"),
            "--sizes expects integers joined by '+', e.g. 2+2+3, got '2+y'",
        ),
        (
            ("verify", "{graph}", "--code", "0,x"),
            "--code expects comma-separated vertex numbers, e.g. 0,2,3, got '0,x'",
        ),
        (
            ("generate", "--family", "fan", "--params", "k"),
            "malformed parameter 'k', expected key=value",
        ),
        # int() would read each of these; option values are plain decimal
        (
            ("verify", "{graph}", "--code", "1_0"),
            "--code expects comma-separated vertex numbers, e.g. 0,2,3, got '1_0'",
        ),
        (
            ("verify", "{graph}", "--code", "\u0661"),
            "--code expects comma-separated vertex numbers, e.g. 0,2,3, got '\u0661'",
        ),
        (
            ("generate", "--family", "fan", "--params", "k=+3"),
            "parameter k expects an integer, got '+3'",
        ),
        (
            ("generate", "--family", "clique-star", "--params", "sizes=2_0+2"),
            "parameter sizes expects integers joined by '+', e.g. 2+2+3, got '2_0+2'",
        ),
        (
            ("generate", "--family", "thin-sun", "--params", "k=5,chords=1-0_3"),
            "parameter chords expects a-b pairs joined by '+', e.g. 1-3+2-4, got '1-0_3'",
        ),
        (
            ("polyhedron", "--family", "thin-spider", "--k", "4", "--sizes", "2_0+2"),
            "--sizes expects integers joined by '+', e.g. 2+2+3, got '2_0+2'",
        ),
        (
            ("generate", "--family", "cycle", "--params", "n=4,n=5"),
            "parameter n given twice",
        ),
    ],
    ids=[
        "chords",
        "k",
        "sizes",
        "polyhedron-sizes",
        "verify-code",
        "params-without-equals",
        "code-underscore",
        "code-arabic-indic-digit",
        "k-plus-sign",
        "params-sizes-underscore",
        "chords-underscore",
        "polyhedron-sizes-underscore",
        "params-twice",
    ],
)
def test_malformed_value_names_parameter_and_form(capsys, p4_file, argv, message):
    argv = [a.format(graph=p4_file) for a in argv]
    assert refusal(capsys, *argv) == (2, "usage", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "{graph}", "--enumerate", "--cap", "1_0"),
        ("tau", "{graph}", "--enumerate", "--cap", " 2"),
        ("polyhedron", "--family", "half-graph", "--k", "+2"),
        ("polyhedron", "--family", "clique", "--n", "0_4"),
        ("polyhedron", "--family", "qrose", "--n", "4", "--q", "\u0662"),
        ("paper-report", "sat", "--max-k", "1_0"),
        ("paper-report", "bounds", "--seed", "+3"),
    ],
    ids=["cap", "tau-cap", "k", "n", "q", "max-k", "seed"],
)
def test_integer_option_not_in_plain_decimal_is_refused(capsys, p4_file, argv):
    argv = [a.format(graph=p4_file) for a in argv]
    option, value = argv[-2:]
    message = f"argument {option}: expects a plain decimal integer, got {value!r}"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: odcodes ") and err.endswith(f": error: {message}\n")
    assert argparse_refusal_as_json(capsys, *argv) == message


def argparse_refusal_as_json(capsys, *argv):
    """The message of a command line that argparse refuses, after checking
    that --json reports it on stdout as a usage error with exit 2."""
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (2, "")
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["error"]["code"] == "usage"
    return obj["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("paper-report", "sat", "--max-k", "1_0"),
            "argument --max-k: expects a plain decimal integer, got '1_0'",
        ),
        (
            ("gamma", "{graph}", "--cap", "abc"),
            "argument --cap: expects a plain decimal integer, got 'abc'",
        ),
        (("gamma",), "the following arguments are required: graph"),
        (("gamma", "{graph}", "--kind"), "argument --kind: expected one argument"),
        (("gamma", "{graph}", "--bogus"), "unrecognized arguments: --bogus"),
    ],
    ids=["max-k", "cap", "missing-graph", "missing-value", "unknown-flag"],
)
def test_argparse_refusal_under_json_is_a_usage_object(capsys, p4_file, argv, message):
    argv = [a.format(graph=p4_file) for a in argv]
    assert argparse_refusal_as_json(capsys, *argv) == message


def test_abbreviated_json_flag_counts_for_an_argparse_refusal(capsys):
    code, out, _ = run(capsys, "paper-report", "sat", "--max-k", "1_0", "--js")
    assert code == 2 and json.loads(out)["error"]["code"] == "usage"
    # after a bare --, a --json token is an argument, not the flag
    code, out, err = run(capsys, "gamma", "--bogus", "--", "--json")
    assert (code, out) == (2, "") and "unrecognized arguments" in err


def test_empty_polyhedron_sizes_is_refused(capsys):
    argv = ("polyhedron", "--family", "clique", "--n", "4", "--sizes", "")
    message = "--sizes expects integers joined by '+', e.g. 2+2+3, got ''"
    assert refusal(capsys, *argv) == (2, "usage", message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("--family", "qrose", "--n", "40", "--q", "2"),
            "the rose rank family has 1099511627735 inequalities, over 262144",
        ),
        (
            ("--family", "clique", "--n", "40"),
            "the clique rank family has 1099511627735 inequalities, over 262144",
        ),
    ],
    ids=["qrose-40", "clique-40"],
)
def test_polyhedron_past_the_rank_family_bound_is_refused(capsys, argv, message):
    assert refusal(capsys, "polyhedron", *argv) == (2, "usage", message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gamma", "{graph}", "--cap", "0"), "--cap needs --enumerate"),
        (("gamma", "{graph}", "--cap", "5"), "--cap needs --enumerate"),
        (("tau", "{clutter}", "--cap", "-3"), "--cap needs --enumerate"),
        (("paper-report", "p4", "--max-k", "3"), "--max-k is not valid with section p4"),
        (("paper-report", "bounds", "--max-k", "3"), "--max-k is not valid with section bounds"),
        (("paper-report", "families", "--seed", "1"), "--seed is not valid with section families"),
        (("paper-report", "oracle", "--seed", "1"), "--seed is not valid with section oracle"),
    ],
    ids=[
        "gamma-cap-zero",
        "gamma-cap",
        "tau-cap-negative",
        "p4-max-k",
        "bounds-max-k",
        "families-seed",
        "oracle-seed",
    ],
)
def test_option_the_command_does_not_read_is_refused(
    capsys, monkeypatch, p4_file, tmp_path, argv, message
):
    from odcodes import reports

    def must_not_run(**kwargs):
        raise AssertionError("a section ran")

    for name in reports.REPORT_SECTIONS:
        monkeypatch.setitem(reports.REPORT_SECTIONS, name, must_not_run)
    clutter = tmp_path / "c.json"
    clutter.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    argv = [a.format(graph=p4_file, clutter=clutter) for a in argv]
    assert refusal(capsys, *argv) == (2, "usage", message)


class TestGenerate:
    def test_text_output_with_roles(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "half-graph", "--params", "k=2")
        assert code == 0
        assert out.splitlines()[0] == "4 3"
        assert "#role 0 u1" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "fan", "--params", "k=2", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["schema"] == 1 and obj["graph"]["n"] == 5

    def test_sizes_and_chords_params(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "clique-star", "--params", "sizes=2+2+3"
        )
        assert code == 0 and out.splitlines()[0].startswith("8 ")
        code, out, _ = run(
            capsys, "generate", "--family", "thin-sun", "--params", "k=5,chords=1-3+2-4"
        )
        assert code == 0 and out.splitlines()[0] == "10 12"

    def test_bad_params_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "fan", "--params", "k=1")
        assert code == 2
        code, _, _ = run(capsys, "generate", "--family", "fan", "--params", "bogus=3")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        assert run(capsys, "generate", "--family", "fan", "--wat")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--family", "fan", "--params", "k=3,n=9"),
            ("generate", "--family", "clique", "--params", "n=4,name=gem"),
            ("polyhedron", "--family", "half-graph", "--k", "2", "--n", "3"),
        ],
        ids=["generate-fan", "generate-clique", "polyhedron-half-graph"],
    )
    def test_parameter_the_family_does_not_take(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "does not take" in err


class TestGraphCommands:
    def test_gamma(self, capsys, p4_file):
        code, out, _ = run(capsys, "gamma", p4_file, "--kind", "OD")
        assert code == 0 and out.splitlines()[0] == "gamma[OD] = 3"

    def test_gamma_json_enumerate(self, capsys, p4_file):
        code, out, _ = run(capsys, "gamma", p4_file, "--kind", "OD", "--enumerate", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["value"] == 3
        assert sorted(obj["optima"]) == [[0, 1, 3], [0, 2, 3]]

    def test_gamma_inadmissible_exit1(self, capsys, tmp_path):
        path = tmp_path / "twins.txt"
        path.write_text("2 0\n")
        code, _, err = run(capsys, "gamma", str(path), "--kind", "OD")
        assert code == 1 and "open twins" in err

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_gamma_inadmissible_comes_before_the_cap_guard(self, capsys, tmp_path, cap):
        path = tmp_path / "twins.txt"
        path.write_text("2 0\n")
        code, error, message = refusal(capsys, "gamma", str(path), "--enumerate", "--cap", cap)
        assert (code, error) == (1, "inadmissible") and "open twins" in message

    def test_clutter_json_roundtrips_into_tau(self, capsys, p4_file, tmp_path):
        code, out, _ = run(capsys, "clutter", p4_file, "--kind", "OD", "--json")
        assert code == 0
        cpath = tmp_path / "c.json"
        cpath.write_text(out)
        code, out, _ = run(capsys, "tau", str(cpath), "--enumerate")
        assert code == 0 and out.splitlines()[0] == "tau = 3"

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('{"n": 3, "edges": [{"sources": ["x"]}]}', "vertices"),
            ('{"n": 2.5, "edges": [[0, 1]]}', "'n'"),
            ('{"n": "3", "edges": [[0, 1]]}', "'n'"),
            ('{"n": true, "edges": [[0]]}', "'n'"),
            ('{"n": 3, "edges": [[0, 1.9]]}', "edge vertex 1.9"),
            ('{"n": 3, "edges": [[0, true]]}', "edge vertex True"),
            ('{"n": 3, "edges": [5]}', "not a vertex list"),
            ('{"n": 3, "edges": 5}', "'edges'"),
            ('{"n": 3, "edges": [{"vertices": [0, 1], "sources": 5}]}', "'sources'"),
            ('{"n": 3, "edges": [{"vertices": [0, 1], "sources": "ab"}]}', "'sources'"),
            ('{"n": 3, "edges": [[0, 1]]', "invalid JSON: "),
        ],
        ids=[
            "edge-without-vertices",
            "float-n",
            "string-n",
            "bool-n",
            "float-vertex",
            "bool-vertex",
            "int-edge",
            "int-edges",
            "int-sources",
            "string-sources",
            "truncated",
        ],
    )
    def test_tau_rejects_malformed_clutter_json(self, capsys, tmp_path, text, needle):
        cpath = tmp_path / "c.json"
        cpath.write_text(text)
        code, error_code, message = refusal(capsys, "tau", str(cpath))
        assert code == 2 and error_code == "format" and needle in message

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 2, "edges": [[0, 1.9]]}', "malformed edge entry [0, 1.9]"),
            ('{"n": true, "edges": []}', "'n' must be a non-negative integer"),
            ('{"n": 2, "edges": [[0, true]]}', "malformed edge entry [0, True]"),
            ('{"n": 2, "edges": [[0, 1]], "labels": [1]}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]], "labels": []}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]], "labels": 0}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]], "labels": ""}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]], "labels": false}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]], "labels": null}', "'labels' must be an object"),
            ('{"n": 2, "edges": [[0, 1]]', "invalid JSON: "),
            ('{"edges": [[0, 1]]}', "JSON graph needs 'n' and 'edges' keys"),
            ('{"n": 2}', "JSON graph needs 'n' and 'edges' keys"),
            ('{"n": 2, "edges": {"0": 1}}', "'edges' must be a list"),
        ],
        ids=[
            "float-endpoint",
            "bool-n",
            "bool-endpoint",
            "labels-list",
            "labels-empty-list",
            "labels-zero",
            "labels-empty-string",
            "labels-false",
            "labels-null",
            "invalid-json",
            "no-n",
            "no-edges",
            "edges-object",
        ],
    )
    def test_malformed_json_graph(self, capsys, tmp_path, text, message):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, error_code, got = refusal(capsys, "gamma", str(path))
        assert (code, error_code) == (2, "format") and got.startswith(message)

    @pytest.mark.parametrize("command,cap", [("gamma", "0"), ("gamma", "-2"), ("tau", "0")])
    def test_enumerate_cap_below_one_is_usage_error(self, capsys, p4_file, tmp_path, command, cap):
        target = tmp_path / "c.json"
        target.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
        target = p4_file if command == "gamma" else str(target)
        code, out, err = run(capsys, command, target, "--enumerate", "--cap", cap)
        assert code == 2 and out == "" and "cap must be at least 1" in err

    def test_gamma_enumerate_verifies_every_optimum(self, capsys, tmp_path, monkeypatch):
        # the bad optimum is planted through min_cover, so the graph must be
        # one with no narrow order, which the solve walks
        from odcodes import codes
        from odcodes.cover import CoverResult
        from odcodes.families import thick_spider
        from odcodes.graphs import graph_to_text

        g = thick_spider(4)
        assert codes._narrow_order(g) is None
        path = tmp_path / "spider.txt"
        path.write_text(graph_to_text(g))
        real = codes.min_cover

        def with_bad_optimum(c, **kw):
            res = real(c, **kw)
            bad = frozenset({0, 1})
            return CoverResult(res.value, res.witness, 0, res.all_optima + (bad,), False)

        monkeypatch.setattr(codes, "min_cover", with_bad_optimum)
        with pytest.raises(AssertionError, match="fails OD verification"):
            run(capsys, "gamma", str(path), "--kind", "OD", "--enumerate")

    def test_gamma_enumerate_refuses_a_non_code_planted_among_the_optima(
        self, capsys, p4_file, monkeypatch
    ):
        # the check tests every optimum on masks built once; a failure still
        # reports the planted code's full verify report
        from odcodes import cli
        from odcodes.codes import _solve, verify
        from odcodes.cover import CoverResult
        from odcodes.families import path_graph
        from odcodes.graphs import CodeKind

        def with_planted(g, kind, cap):
            res = _solve(g, kind, cap)
            optima = (res.all_optima[0], frozenset({0, 1}), *res.all_optima[1:])
            return CoverResult(res.value, res.witness, 0, optima, False)

        monkeypatch.setattr(cli, "_solve", with_planted)
        report = verify(path_graph(4), {0, 1}, CodeKind.OD)
        message = f"cover witness fails OD verification: {report}"
        with pytest.raises(AssertionError) as raised:
            run(capsys, "gamma", p4_file, "--kind", "OD", "--enumerate")
        assert str(raised.value) == message

    def test_verify_exit_codes(self, capsys, p4_file):
        assert run(capsys, "verify", p4_file, "--kind", "OD", "--code", "0,1,3")[0] == 0
        code, out, _ = run(capsys, "verify", p4_file, "--kind", "OD", "--code", "0,1")
        assert code == 1 and "unseparated" in out

    def test_relations(self, capsys, p4_file):
        code, out, _ = run(capsys, "relations", p4_file)
        assert code == 0 and "otd_sandwich" in out and "fail" not in out

    def test_bad_kind(self, capsys, p4_file):
        assert run(capsys, "gamma", p4_file, "--kind", "XX")[0] == 2

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1\n")
        code, _, err = run(capsys, "gamma", str(path))
        assert code == 2 and "loop" in err

    def test_missing_file(self, capsys):
        assert run(capsys, "gamma", "/nonexistent/file.txt")[0] == 2


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("gamma", "2 1\n0 1 2\n", "line 2: expected two integers, got '0 1 2'"),
        ("gamma", "2 1\n0 x\n", "line 2: non-integer field in '0 x'"),
        ("gamma", "# no header\n", "missing 'n m' header line"),
        ("gamma", "-1 0\n", "header counts must be non-negative"),
        ("reduce-sat", "p lsat 1 1\np lsat 1 1\n1 0\n", "line 2: second header line"),
        ("reduce-sat", "p lsat x 1\n1 0\n", "line 1: non-integer header counts"),
        ("reduce-sat", "p lsat 1 1\n1 a 0\n", "line 2: non-integer token"),
        ("reduce-sat", "c no header\n", "missing 'p lsat' header"),
        ("reduce-sat", "p lsat -1 0\n", "header counts must be non-negative"),
        ("reduce-sat", "p lsat 2 2\n1 1 2 0\n-1 0\n", "clause (1 1 2) repeats literal 1"),
        (
            "tau",
            '{"n": 3, "edges": [[0, 0, 1], [1, 2]]}',
            "clutter edge [0, 0, 1] lists vertex 0 twice",
        ),
    ],
    ids=[
        "graph-three-fields",
        "graph-non-integer",
        "graph-no-header",
        "graph-negative-header",
        "lsat-second-header",
        "lsat-non-integer-header",
        "lsat-non-integer-token",
        "lsat-no-header",
        "lsat-negative-header",
        "lsat-repeated-literal",
        "clutter-repeated-vertex",
    ],
)
def test_malformed_file_is_a_format_error(capsys, tmp_path, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert refusal(capsys, command, str(path)) == (2, "format", message)


@pytest.mark.parametrize("command", ["gamma", "reduce-sat", "tau"])
def test_file_not_utf8_is_a_format_error(capsys, tmp_path, command):
    path = tmp_path / "input"
    path.write_bytes(bytes.fromhex("ff fe 33 20 30 0a"))
    code, error, message = refusal(capsys, command, str(path))
    assert (code, error) == (2, "format") and "can't decode byte 0xff" in message


class TestSatCommands:
    def test_reduce_sat_emits_files(self, capsys, lsat_file, tmp_path):
        gpath = tmp_path / "g.txt"
        rpath = tmp_path / "r.json"
        code, out, _ = run(
            capsys,
            "reduce-sat",
            lsat_file,
            "--emit-graph",
            str(gpath),
            "--emit-roles",
            str(rpath),
        )
        assert code == 0 and "gadget graph: 17 vertices" in out
        roles = json.loads(rpath.read_text())["roles"]
        assert roles["0"] == "w1:x1"
        from odcodes.graphs import parse_graph

        assert parse_graph(gpath.read_text()).n == 17

    def test_reduce_sat_rejects_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.lsat"
        path.write_text("p lsat 1 1\n1 -1 0\n")
        code, _, err = run(capsys, "reduce-sat", str(path))
        assert code == 2 and "both literals" in err

    def test_sat_roundtrip(self, capsys, lsat_file):
        code, out, _ = run(capsys, "sat-roundtrip", lsat_file)
        assert code == 0 and "consistent" in out

    def test_sat_roundtrip_json(self, capsys, lsat_file):
        code, out, _ = run(capsys, "sat-roundtrip", lsat_file, "--json")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_sat_roundtrip_unsatisfiable_below_target_is_inconsistent(
        self, capsys, tmp_path, monkeypatch
    ):
        # an unsatisfiable formula must give gamma above both targets;
        # a value below them is as wrong as one equal to them
        from odcodes import reports

        path = tmp_path / "unsat.lsat"
        path.write_text("p lsat 1 2\n1 0\n-1 0\n")
        assert run(capsys, "sat-roundtrip", str(path))[0] == 0
        monkeypatch.setattr(reports, "gamma", lambda g, kind: (1, frozenset({0})))
        code, out, _ = run(capsys, "sat-roundtrip", str(path))
        assert code == 1 and "INCONSISTENT" in out


P11 = "11 10\n" + "".join(f"{v} {v + 1}\n" for v in range(10))


def p11_json(labels):
    return json.dumps({"n": 11, "edges": [[v, v + 1] for v in range(10)], "labels": labels})


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("g.json", p11_json({"1_0": "q1"}), "malformed label key '1_0'"),
        ("g.json", p11_json({"01": "q1"}), "malformed label key '01'"),
        ("g.json", p11_json({"+1": "q1"}), "malformed label key '+1'"),
        ("g.json", p11_json({" 1": "q1"}), "malformed label key ' 1'"),
        ("g.json", p11_json({"1": None}), "label of vertex 1 must be a string, got null"),
        ("g.json", p11_json({"1": 7}), "label of vertex 1 must be a string, got 7"),
        ("g.json", p11_json({"1": True}), "label of vertex 1 must be a string, got true"),
        (
            "g.json",
            p11_json({"1": "a b"}),
            'label of vertex 1 must be non-empty and free of whitespace, got "a b"',
        ),
        (
            "g.json",
            p11_json({"1": ""}),
            'label of vertex 1 must be non-empty and free of whitespace, got ""',
        ),
        (
            "g.json",
            p11_json({"1": "\t"}),
            'label of vertex 1 must be non-empty and free of whitespace, got "\\t"',
        ),
        ("g.txt", P11 + "#role 1_0 q1\n", "line 12: malformed #role vertex '1_0'"),
        ("g.txt", P11 + "#role 01 q1\n", "line 12: malformed #role vertex '01'"),
        ("g.txt", P11 + "#role +1 q1\n", "line 12: malformed #role vertex '+1'"),
        (
            "g.txt",
            P11 + "#role 1 a b\n",
            "line 12: #role needs a vertex and a label, got '#role 1 a b'",
        ),
        ("g.txt", P11 + "#role 0\n", "line 12: #role needs a vertex and a label, got '#role 0'"),
        ("g.txt", P11 + "#role 11 q1\n", "#role comment names out-of-range vertex 11"),
        ("g.txt", P11 + "#role 1 a\n#role 1 b\n", "line 13: vertex 1 is labelled twice"),
    ],
    ids=[
        "key-underscore",
        "key-leading-zero",
        "key-sign",
        "key-space",
        "value-null",
        "value-int",
        "value-bool",
        "value-space",
        "value-empty",
        "value-tab",
        "role-underscore",
        "role-leading-zero",
        "role-sign",
        "role-three-fields",
        "role-one-field",
        "role-out-of-range",
        "role-twice",
    ],
)
def test_label_vertex_must_be_plain_decimal_and_label_a_string(
    capsys, tmp_path, name, text, message
):
    # the path has 11 vertices, so "1_0" read as vertex 10 would be in range
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path), "--code", "0")
    assert code == 2 and out == "" and err == f"error: {message}\n"


class TestPolyhedron:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--family", "fan", "--k", "3", "--q", "2"), "--q is not valid with --family fan"),
            (
                ("--family", "qrose", "--n", "5", "--q", "3", "--k", "9", "--sizes", "2+2"),
                "--k is not valid with --family qrose",
            ),
            (
                ("--family", "qrose", "--n", "4", "--q", "2", "--graph", "{graph}"),
                "--graph is not valid with --family qrose",
            ),
            (
                ("--family", "fan", "--k", "3", "--graph", "{graph}", "--generic-family", "clique"),
                "--generic-family is not valid with --family fan",
            ),
            (
                ("--family", "fan", "--k", "3", "--graph", "{graph}"),
                "--graph is not valid with --family fan",
            ),
            (
                ("--family", "generic", "--graph", "{graph}", "--k", "3"),
                "--k is not valid with --graph",
            ),
            (
                ("--family", "generic", "--graph", "{graph}", "--generic-family", "clique"),
                "--generic-family is not valid with --graph",
            ),
            (
                ("--family", "generic", "--generic-family", "clique", "--n", "4", "--q", "2"),
                "--q is not valid with --family generic",
            ),
        ],
        ids=[
            "q-on-fan",
            "k-on-qrose",
            "graph-on-qrose",
            "generic-family-on-fan",
            "graph-on-fan",
            "k-with-graph",
            "generic-family-with-graph",
            "q-on-generic",
        ],
    )
    def test_flag_the_family_does_not_read(self, capsys, p4_file, argv, message):
        argv = [a.format(graph=p4_file) for a in argv]
        code, out, err = run(capsys, "polyhedron", *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_family_check_all(self, capsys):
        code, out, _ = run(capsys, "polyhedron", "--family", "thick-spider", "--k", "4")
        assert code == 0
        assert "check validity: pass" in out and "check hull: pass" in out

    def test_hull_check_past_16_vertices(self, capsys):
        code, out, _ = run(
            capsys, "polyhedron", "--family", "half-graph", "--k", "9", "--check", "hull"
        )
        assert code == 0 and out.splitlines()[-1] == "check hull: pass"

    def test_qrose(self, capsys):
        code, out, _ = run(
            capsys, "polyhedron", "--family", "qrose", "--n", "4", "--q", "2", "--json"
        )
        obj = json.loads(out)
        assert code == 0 and obj["checks"] == {"validity": True, "tightness": True, "hull": True}

    def test_generic_from_file(self, capsys, p4_file):
        code, out, _ = run(
            capsys, "polyhedron", "--family", "generic", "--graph", p4_file, "--json"
        )
        obj = json.loads(out)
        assert code == 0 and obj["equalities"] == [0, 3]

    def test_qrose_missing_params(self, capsys):
        assert run(capsys, "polyhedron", "--family", "qrose")[0] == 2


class TestPaperReport:
    def test_single_section(self, capsys):
        code, out, _ = run(capsys, "paper-report", "p4")
        assert code == 0 and "PASS" in out

    def test_json_section(self, capsys):
        code, out, _ = run(capsys, "paper-report", "table1", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["ok"] is True
        assert len(obj["sections"]) == 1

    def test_unknown_section(self, capsys):
        assert run(capsys, "paper-report", "nope")[0] == 2

    def test_families_respects_max_k(self, capsys):
        code, out, _ = run(capsys, "paper-report", "families", "--max-k", "8", "--json")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_text_prints_each_section_as_it_finishes(self, capsys, monkeypatch):
        from odcodes import cli, reports

        row = reports.ReportRow("row", "1", "1", True)
        printed_before_second = []

        def second():
            printed_before_second.append(capsys.readouterr().out)
            return reports.Report("second", (row,))

        sections = {"first": lambda: reports.Report("first", (row,)), "second": second}
        monkeypatch.setattr(reports, "REPORT_SECTIONS", sections)
        monkeypatch.setattr(cli, "perf_counter", lambda: 0.0)
        code, out, _ = run(capsys, "paper-report", "all")
        assert code == 0
        assert printed_before_second == ["== first: PASS (1 rows, 0.00s)\n"]
        assert out == "== second: PASS (1 rows, 0.00s)\n"

    @pytest.mark.parametrize(
        "section,max_k", [("families", "1"), ("families", "0"), ("qrose", "2"), ("qrose", "0")]
    )
    def test_section_without_rows_fails(self, capsys, section, max_k):
        code, out, _ = run(capsys, "paper-report", section, "--max-k", max_k)
        assert code == 1 and "FAIL (0 rows" in out

    @pytest.mark.parametrize("section", ["sat", "all"])
    @pytest.mark.parametrize("max_k", ["7", "8", "100"])
    def test_sat_max_k_above_six_is_refused_before_any_section_runs(
        self, capsys, monkeypatch, section, max_k
    ):
        # at 7 variables the enumerator's tables alone take gigabytes, so no
        # section may start; every one is patched to fail if called
        from odcodes import reports

        def must_not_run(**kwargs):
            raise AssertionError("a section ran")

        for name in reports.REPORT_SECTIONS:
            monkeypatch.setitem(reports.REPORT_SECTIONS, name, must_not_run)
        code, error, message = refusal(capsys, "paper-report", section, "--max-k", max_k)
        assert (code, error) == (2, "usage")
        assert message == f"--max-k for the sat section is at most 6, got {max_k}"

    def test_sat_max_k_six_is_accepted(self, capsys, monkeypatch):
        from odcodes import reports

        calls = []
        row = reports.ReportRow("row", "1", "1", True)

        def sat(**kwargs):
            calls.append(kwargs)
            return reports.Report("sat", (row,))

        monkeypatch.setitem(reports.REPORT_SECTIONS, "sat", sat)
        assert run(capsys, "paper-report", "sat", "--max-k", "6")[0] == 0
        assert calls == [{"max_vars": 6}]

    @pytest.mark.parametrize("max_k", ["31", "200"])
    def test_families_max_k_above_thirty_is_refused_before_any_section_runs(
        self, capsys, monkeypatch, max_k
    ):
        # at 200 the partition listing alone grows until memory runs out
        from odcodes import reports

        def must_not_run(**kwargs):
            raise AssertionError("a section ran")

        for name in reports.REPORT_SECTIONS:
            monkeypatch.setitem(reports.REPORT_SECTIONS, name, must_not_run)
        code, error, message = refusal(capsys, "paper-report", "families", "--max-k", max_k)
        assert (code, error) == (2, "usage")
        assert message == f"--max-k for the families section is at most 30, got {max_k}"

    def test_families_max_k_thirty_is_accepted(self, capsys, monkeypatch):
        from odcodes import reports

        calls = []
        row = reports.ReportRow("row", "1", "1", True)

        def families(**kwargs):
            calls.append(kwargs)
            return reports.Report("families", (row,))

        monkeypatch.setitem(reports.REPORT_SECTIONS, "families", families)
        assert run(capsys, "paper-report", "families", "--max-k", "30")[0] == 0
        assert calls == [{"max_n": 30}]

    @pytest.mark.parametrize("max_k", ["11", "200"])
    def test_qrose_max_k_above_ten_is_refused_before_any_section_runs(
        self, capsys, monkeypatch, max_k
    ):
        # the qrose section's time grows about x3-4 per vertex
        from odcodes import reports

        def must_not_run(**kwargs):
            raise AssertionError("a section ran")

        for name in reports.REPORT_SECTIONS:
            monkeypatch.setitem(reports.REPORT_SECTIONS, name, must_not_run)
        code, error, message = refusal(capsys, "paper-report", "qrose", "--max-k", max_k)
        assert (code, error) == (2, "usage")
        assert message == f"--max-k for the qrose section is at most 10, got {max_k}"

    def test_qrose_max_k_ten_is_accepted(self, capsys, monkeypatch):
        from odcodes import reports

        calls = []
        row = reports.ReportRow("row", "1", "1", True)

        def qrose(**kwargs):
            calls.append(kwargs)
            return reports.Report("qrose", (row,))

        monkeypatch.setitem(reports.REPORT_SECTIONS, "qrose", qrose)
        assert run(capsys, "paper-report", "qrose", "--max-k", "10")[0] == 0
        assert calls == [{"max_n": 10}]

    def test_sat_title_reads_its_own_default(self, capsys):
        code, out, _ = run(capsys, "paper-report", "sat", "--json")
        [section] = json.loads(out)["sections"]
        assert code == 0 and section["title"] == "SAT equivalence (vars <= 3, clauses <= 6)"

    def test_each_bound_names_a_section_keyword(self):
        # every bounded section reads its bound through the keyword the
        # option table feeds, and its own default lies within the bound
        import inspect

        from odcodes import cli, reports

        for name, bound in reports.SECTION_BOUNDS.items():
            assert name in reports.REPORT_SECTIONS
            dest, keyword = cli.SECTION_OPTIONS[name]
            parameter = inspect.signature(reports.REPORT_SECTIONS[name]).parameters[keyword]
            assert dest == "max_k" and parameter.default <= bound

    def test_each_section_gets_only_the_options_given(self, capsys, monkeypatch):
        # a section without its option falls back on its own default; all
        # reads both options
        from odcodes import reports

        calls = {}
        row = reports.ReportRow("row", "1", "1", True)

        def recorder(name):
            def section(**kwargs):
                calls[name] = kwargs
                return reports.Report(name, (row,))

            return section

        for name in reports.REPORT_SECTIONS:
            monkeypatch.setitem(reports.REPORT_SECTIONS, name, recorder(name))
        for name in ("bounds", "sat", "qrose", "families"):
            calls.clear()
            assert run(capsys, "paper-report", name)[0] == 0
            assert calls == {name: {}}
        calls.clear()
        assert run(capsys, "paper-report", "all", "--max-k", "2", "--seed", "5")[0] == 0
        assert {name: kw for name, kw in calls.items() if kw} == {
            "families": {"max_n": 2},
            "qrose": {"max_n": 2},
            "sat": {"max_vars": 2},
            "bounds": {"seed": 5},
        }
        assert set(calls) == set(reports.REPORT_SECTIONS)


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, p4_file):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "gamma", p4_file, "--kind", "OD", "--enumerate", "--json")
            outs.add(out)
        assert len(outs) == 1
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "paper-report", "bounds", "--json")
            outs.add(out)
        assert len(outs) == 1


def run_cli_into(stdout, *argv):
    """Run the CLI in a child process with the given stdout file object."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "odcodes.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


GENERATE = ["generate", "--family", "fan", "--params", "k=3"]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
class TestOutputFailure:
    def test_closed_pipe_exits_1_quietly(self, mode):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as closed:
            proc = run_cli_into(closed, *GENERATE, *mode)
        assert proc.returncode == 1
        assert proc.stderr == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_a_named_error(self, mode):
        with open("/dev/full", "w") as full:
            proc = run_cli_into(full, *GENERATE, *mode)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write output: ")
        assert "Traceback" not in proc.stderr
