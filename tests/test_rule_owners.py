"""The separation rule of a code kind has one owner in the source.

Only odcodes.graphs reads CodeKind.separation: its code_masks turns the rule
into the per-vertex masks (dom, sep, own), and every other module reads
those, so the locating rule (a code that holds u or v separates them) is
written once.  The scan parses every module and names each line elsewhere
that reads the attribute or the table behind it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "odcodes"


def separation_reads(path: Path) -> list[int]:
    """Lines of a module that read .separation or the _SEPARATION table."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "separation"
        or isinstance(node, ast.Name)
        and node.id == "_SEPARATION"
    )


def test_only_graphs_reads_the_separation_rule():
    reads = {path.name: separation_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert reads.pop("graphs.py"), "the scan no longer finds the owner's reads"
    assert {name: lines for name, lines in reads.items() if lines} == {}
