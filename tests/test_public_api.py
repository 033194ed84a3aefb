"""The names ``import odcodes`` exposes, pinned so that adding or removing
one is a deliberate edit here.

A child interpreter imports the package alone: in the test session other
tests import ``odcodes.cli`` and ``odcodes.reports``, which would add those
submodules to the package namespace.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = """
Clutter ClutterFormatError CodeKind ConstraintSystem CoverResult FamilySpec
GadgetGraph GammaPrediction Graph GraphFormatError Hypergraph
InadmissibleGraphError LsatFormatError LsatInstance RankConstraint
VerificationReport assignment_to_code auxiliary_graph brute_force_gamma
brute_force_sat build_clutter build_gadget build_hypergraph check_relations
check_tightness check_validity clutters code_to_assignment codes cover
disjoint_union enumerate_slsat families forced_vertices_direct gamma
gamma_all_optima generate girth graph_to_json graph_to_text graphs
greedy_cover integer_hull_equiv is_admissible is_bipartite load_graph
max_degree min_cover od_polyhedron_system open_c_twins parse_graph
parse_graph_json parse_lsat polyhedra predicted_gamma qrose_clutter
qrose_system reduce_hypergraph sat_reduction saturate tau_q_rose verify
""".split()

CHILD = """
import sys
sys.path.insert(0, {src!r})
import odcodes
print(" ".join(name for name in dir(odcodes) if not name.startswith("_")))
"""


def test_public_names_are_pinned():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(PUBLIC)
    assert len(PUBLIC) == 62
