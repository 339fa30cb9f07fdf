"""The public surface: what the package exports and what the tracer wraps.

The export list is frozen so that a name added or dropped shows up in
review.  The tracer in perfbench/spans.py replaces package functions by
name; every one it names must exist, or a traced run fails.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import simplicial
from simplicial import SimplicialComplex

PUBLIC = [
    "BettiTable",
    "ClassificationError",
    "ConnectivityResult",
    "DEFAULT_CANDIDATE_CAP",
    "FVector",
    "FieldSpec",
    "GF2",
    "GF3",
    "Graph",
    "HVector",
    "InputError",
    "InternalInvariantError",
    "RATIONALS",
    "ResourceLimitError",
    "SimplicialComplex",
    "SimplicialError",
    "StrongComponents",
    "SubdivisionEmbedding",
    "TheoremReport",
    "Verdict",
    "WalkCertificate",
    "__version__",
    "barycentric_subdivision",
    "boundary_matrix",
    "build_complex",
    "check_cross_polytope_subdivision",
    "check_face_graph_connectivity_bound",
    "check_face_lower_bounds_report",
    "check_graph_connectivity_bound",
    "check_h_vector_bound",
    "cross_polytope_boundary",
    "cross_polytope_graph",
    "cross_polytope_subdivision",
    "cycle",
    "face_adjacency_graph",
    "facet_file_text",
    "graph_of",
    "icosahedron",
    "is_cohen_macaulay",
    "is_homology_manifold",
    "is_homology_sphere",
    "is_isomorphic",
    "is_m_cohen_macaulay",
    "join",
    "parse_facet_lines",
    "read_complex_file",
    "read_complex_text",
    "reduced_betti_numbers",
    "simplex_boundary",
    "strong_walk_avoiding",
    "strong_walk_avoiding_set",
    "suspension",
    "torus_7",
    "verify_strong_walk",
    "verify_subdivision",
    "vertex_connectivity",
]

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(simplicial.__file__).resolve().parent


def test_all_is_frozen_and_resolves():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(simplicial.__all__) == PUBLIC
    assert len(set(simplicial.__all__)) == len(simplicial.__all__)
    for name in PUBLIC:
        assert hasattr(simplicial, name), name


def test_only_core_reads_the_face_index_values():
    """The face index maps faces to facet bitsets, a format private to core:
    every other module reads facet masks through _star or the two facet
    searches, so only core names the index or its bitset decoder."""
    naming = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if re.search(r"_face_index|_facets_of", path.read_text(encoding="utf-8"))
    )
    assert naming == ["core.py"]


def test_only_core_states_the_vertex_label_rule():
    """A vertex label is an int that is not a bool: core states the rule
    once, and every other module reads a caller's labels through _mask_of."""
    rule = re.compile(r"type\([^)]*\) is (not )?int\b|isinstance\([^)]*\bbool\b")
    stating = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if rule.search(path.read_text(encoding="utf-8"))
    )
    assert stating == ["core.py"]


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, attr in spans.TARGETS:
        if module is None:
            assert attr in SimplicialComplex.__dict__, name
        else:
            assert hasattr(importlib.import_module(module), attr), name
