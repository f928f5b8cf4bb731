"""Concept lattices of hypergraph incidence matrices, with s-path analytics."""

from .core import (
    DimensionError,
    Hypergraph,
    IncidenceMatrix,
    IngestionError,
    SizeLimitError,
    dedup_edges,
    extent_prime,
    from_edge_list,
    intent_prime,
    overlap_size,
)
from .lattice import (
    ConceptLattice,
    build_lattice_naive,
    build_lattice_vectorized,
)
from .analytics import (
    DepthHistograms,
    DepthStatistics,
    NoSPathError,
    PrunedLatticeView,
    SPathResult,
    depth_histograms,
    depth_statistics,
    prune,
    s_connected_components,
    shortest_s_path,
)
from .formats import (
    ParseError,
    format_edge_list,
    lattice_to_dot,
    parse_edge_list,
    parse_incidence_csv,
    parse_lattice_document,
    serialize_lattice,
)

__version__ = "0.1.0"

# The oracle's and the generators' names are imported on first access
# (PEP 562), so that importing the package or its CLI leaves both modules
# out until a caller needs them.
_LAZY = {
    "Concept": "oracle",
    "SLineGraph": "oracle",
    "enumerate_concepts_oracle": "oracle",
    "intersection_complex_bruteforce": "oracle",
    "oracle_components": "oracle",
    "oracle_shortest_s_path": "oracle",
    "s_line_graph": "oracle",
    "verify_isomorphism": "oracle",
    "chung_lu_hypergraph": "generate",
    "uniform_hypergraph": "generate",
}


def __getattr__(name: str):
    source = _LAZY.get(name)
    if source == "oracle":
        from . import oracle as module
    elif source == "generate":
        from . import generate as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)

__all__ = [
    "Concept",
    "ConceptLattice",
    "DepthHistograms",
    "DepthStatistics",
    "DimensionError",
    "Hypergraph",
    "IncidenceMatrix",
    "IngestionError",
    "NoSPathError",
    "ParseError",
    "PrunedLatticeView",
    "SLineGraph",
    "SPathResult",
    "SizeLimitError",
    "build_lattice_naive",
    "build_lattice_vectorized",
    "chung_lu_hypergraph",
    "dedup_edges",
    "depth_histograms",
    "depth_statistics",
    "enumerate_concepts_oracle",
    "extent_prime",
    "format_edge_list",
    "from_edge_list",
    "intent_prime",
    "intersection_complex_bruteforce",
    "lattice_to_dot",
    "oracle_components",
    "oracle_shortest_s_path",
    "overlap_size",
    "parse_edge_list",
    "parse_incidence_csv",
    "parse_lattice_document",
    "prune",
    "s_connected_components",
    "s_line_graph",
    "serialize_lattice",
    "shortest_s_path",
    "uniform_hypergraph",
    "verify_isomorphism",
]
