"""Open-separating dominating codes and their siblings.

Exact code numbers through a hypergraph-covering reformulation, generators
and closed forms for the studied graph families, the linear-SAT hardness
gadget pipeline, and 0/1 checks of covering-polyhedron constraint systems.
"""

from .graphs import (
    CodeKind,
    Graph,
    GraphFormatError,
    disjoint_union,
    girth,
    graph_to_json,
    graph_to_text,
    is_admissible,
    is_bipartite,
    load_graph,
    max_degree,
    parse_graph,
    parse_graph_json,
)
from .clutters import (
    Clutter,
    ClutterFormatError,
    Hypergraph,
    InadmissibleGraphError,
    build_clutter,
    build_hypergraph,
    forced_vertices_direct,
    reduce_hypergraph,
)
from .cover import CoverResult, greedy_cover, min_cover, qrose_clutter, tau_q_rose
from .codes import (
    VerificationReport,
    brute_force_gamma,
    check_relations,
    gamma,
    gamma_all_optima,
    verify,
)
from .families import FamilySpec, GammaPrediction, generate, open_c_twins, predicted_gamma
from .polyhedra import (
    ConstraintSystem,
    RankConstraint,
    check_tightness,
    check_validity,
    integer_hull_equiv,
    od_polyhedron_system,
    qrose_system,
)
from .sat_reduction import (
    GadgetGraph,
    LsatFormatError,
    LsatInstance,
    assignment_to_code,
    auxiliary_graph,
    brute_force_sat,
    build_gadget,
    code_to_assignment,
    enumerate_slsat,
    parse_lsat,
    saturate,
)

__version__ = "0.1.0"
