"""Random input files never make a parser or a command fail unnamed.

Each file comes from a small grammar over the four input formats (graph
text, graph JSON, clutter JSON, LSAT text), mixing well-formed lines and
keys with junk, and sometimes cut short.  Every integer stays below 64, so no
example asks for a huge graph or formula.  A parser may only raise its own
format error, and ``odcodes`` may only exit 0, 1 or 2.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from odcodes.cli import main
from odcodes.clutters import ClutterFormatError, clutter_from_json
from odcodes.graphs import GraphFormatError, load_graph
from odcodes.sat_reduction import LsatFormatError, parse_lsat

SETTINGS = hypothesis.settings(max_examples=50, deadline=None, database=None)

small = st.integers(-2, 63)
word = st.sampled_from(["", "a", "q1", "x y", "0", "01", "+1", "1_0", "1.5", "#", "role", "OD"])
junk_line = st.lists(st.one_of(small.map(str), word), max_size=4).map(" ".join)


def _below(n):
    """A vertex or variable below n most of the time, else any small int."""
    return st.one_of(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)), small)


@st.composite
def _file(draw, header, body):
    """Header then body lines, with junk lines slipped in now and then, the
    header's count honest most of the time, and the text sometimes cut."""
    lines = draw(body)
    count = draw(st.one_of(st.just(len(lines)), st.just(len(lines)), small))
    lines.insert(0, header(count))
    for line in draw(st.lists(junk_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "\n".join(lines) + "\n"
    return text[: draw(st.none() | st.integers(0, 40))]


@st.composite
def _graph_text(draw):
    n = draw(st.integers(0, 63))
    edge = st.tuples(_below(n), _below(n)).map(lambda e: f"{min(e)} {max(e)}")
    role = st.lists(_below(n).map(str) | word, max_size=3).map(lambda f: " ".join(["#role", *f]))
    return draw(_file(lambda m: f"{n} {m}", st.lists(edge | role, max_size=8)))


@st.composite
def _lsat_text(draw):
    n = draw(st.integers(0, 63))
    literal = _below(n + 1).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, max_size=4).map(lambda c: " ".join(map(str, c + [0])))
    comment = st.just("c comment")
    return draw(_file(lambda m: f"p lsat {n} {m}", st.lists(clause | comment, max_size=6)))


KEYS = ["n", "edges", "labels", "kind", "vertices", "sources", "0", "1", "01", "x"]
scalar = st.one_of(st.none(), st.booleans(), small, st.just(1.5), word)
json_value = st.recursive(
    scalar,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _json_object(draw):
    """Graph or clutter JSON: mostly the right keys over in-range vertices."""
    n = draw(st.integers(0, 63))
    vertices = st.lists(_below(n), max_size=3)
    entry = st.one_of(
        vertices,
        vertices,
        st.fixed_dictionaries(
            {"vertices": vertices}, optional={"sources": st.lists(word, max_size=2)}
        ),
        json_value,
    )
    obj = {"n": n, "edges": draw(st.lists(entry, max_size=6))}
    if draw(st.booleans()):
        obj["labels"] = draw(st.dictionaries(_below(n).map(str), word, max_size=3))
    if draw(st.booleans()):
        obj["kind"] = draw(st.sampled_from(["OD", "LTD", "XX", None, 1]))
    key = draw(st.sampled_from(KEYS + [None] * 6))
    if key is not None:  # now and then one key holds junk
        obj[key] = draw(json_value)
    return draw(st.one_of(st.just(obj), st.just(obj), json_value))


graph_text = _graph_text()
lsat_text = _lsat_text()
json_object = _json_object()
json_text = json_object.map(json.dumps).flatmap(lambda text: st.sampled_from([text, text[:-1]]))

any_text = st.one_of(graph_text, json_text, lsat_text)


def _raises_only(error, parse, inputs):
    # the property runs inside the test, as elsewhere in the suite: a failing
    # @given test function makes hypothesis's pytest plugin import a module
    # that warns, and the suite turns warnings into errors
    @SETTINGS
    @hypothesis.given(inputs)
    def check(value):
        try:
            parse(value)
        except error:
            pass

    check()


def test_load_graph_raises_only_graph_format_error():
    _raises_only(GraphFormatError, load_graph, graph_text | json_text)


def test_parse_lsat_raises_only_lsat_format_error():
    _raises_only(LsatFormatError, parse_lsat, lsat_text)


def test_clutter_from_json_raises_only_clutter_format_error():
    _raises_only(ClutterFormatError, clutter_from_json, json_object)


COMMANDS = [
    ["clutter", "{file}"],
    ["verify", "{file}", "--code", "0,1"],
    ["tau", "{file}"],
    ["reduce-sat", "{file}"],
]


def test_cli_exits_0_1_or_2(tmp_path, capsys):
    path = tmp_path / "input"

    @SETTINGS
    @hypothesis.given(any_text, st.sampled_from(COMMANDS), st.booleans())
    def check(text, command, as_json):
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if arg == "{file}" else arg for arg in command]
        assert main(argv + ["--json"] * as_json) in (0, 1, 2)
        capsys.readouterr()

    check()


class TestOptionValues:
    """Option values from a small grammar: generate's --params, polyhedron's
    --sizes and verify's --code.  Each command exits 0, 1 or 2, a refusal
    included, and never raises.  A --sizes part stays below 7, since
    polyhedron checks the system of the graph it builds."""

    token = st.one_of(small.map(str), word, st.sampled_from(["-0", " 2", "2 ", "\u0663", "+", "-", "="]))

    def check_exits(self, capsys, argvs):
        @hypothesis.settings(SETTINGS, max_examples=200)
        @hypothesis.given(argvs, st.booleans())
        def check(argv, as_json):
            assert main(argv + ["--json"] * as_json) in (0, 1, 2)
            capsys.readouterr()

        check()

    def test_generate_params(self, capsys):
        from odcodes.families import FAMILIES

        pair = st.tuples(small, small).map("{0[0]}-{0[1]}".format)
        value = st.lists(st.one_of(self.token, pair), min_size=1, max_size=3).map("+".join)
        key = st.sampled_from(["chords", "sizes", "k", "n", "name", " k", "x", ""])
        item = st.tuples(key, value).map("=".join)
        params = st.lists(st.one_of(item, item, self.token), min_size=1, max_size=3).map(",".join)
        argv = st.builds(
            lambda family, raw: ["generate", "--family", family, "--params", raw],
            st.sampled_from(FAMILIES),
            params,
        )
        self.check_exits(capsys, argv)

    def test_polyhedron_sizes(self, capsys):
        part = st.one_of(st.integers(-1, 6).map(str), self.token.filter(lambda t: not t.isdigit()))
        sizes = st.lists(part, max_size=4).map("+".join)
        family = st.sampled_from(
            [
                ["--family", "generic", "--generic-family", "union-of-cliques"],
                ["--family", "generic", "--generic-family", "clique-star"],
                ["--family", "generic", "--generic-family", "clique"],
                ["--family", "clique", "--n", "4"],
                ["--family", "qrose", "--n", "4", "--q", "2"],
            ]
        )
        argv = st.builds(lambda f, s: ["polyhedron", *f, "--sizes", s], family, sizes)
        self.check_exits(capsys, argv)

    def test_verify_code(self, capsys, tmp_path):
        path = tmp_path / "p6.txt"
        path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        code = st.lists(self.token, max_size=5).map(",".join)
        kind = st.sampled_from(["OD", "LTD", "XX"])
        argv = st.builds(lambda c, k: ["verify", str(path), "--code", c, "--kind", k], code, kind)
        self.check_exits(capsys, argv)
