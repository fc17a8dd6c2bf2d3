"""Laplacian spectra of undirected graphs with self-loops.

Build graphs, assemble their Laplacians, decide pseudo-connectedness, lift
loops away into a loopless graph on 2n+1 vertices, and verify the spectral
facts that motivate the construction: positive definiteness, eigenvalue
bounds, and inclusion of the base spectrum in the lifted one.
"""

from .graphs import (
    ComponentPartition,
    Edge,
    EdgeListError,
    Graph,
    connected_components,
    format_edge_list,
    graph_from_edges,
    is_pseudo_connected,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .laplacian import format_matrix, laplacian_of
from .lifting import LiftedGraph, lift
from .oracle import (
    GenerationError,
    GeneratorConfig,
    OracleError,
    charpoly_eigenvalues,
    enumerate_graphs,
    random_graph,
)
from .spectral import (
    CheckResult,
    JacobiConvergenceError,
    MATCH_TOL,
    POSITIVITY_TOL,
    SOLVER_TOL,
    Spectrum,
    SubsetMatch,
    VerificationReport,
    bound_rows,
    degree_upper_bound,
    eigen_sym,
    fiedler_lower_bound,
    spectrum_subset,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ComponentPartition",
    "Edge",
    "EdgeListError",
    "Graph",
    "connected_components",
    "format_edge_list",
    "graph_from_edges",
    "is_pseudo_connected",
    "parse_edge_list",
    "read_edge_list",
    "write_edge_list",
    "format_matrix",
    "laplacian_of",
    "LiftedGraph",
    "lift",
    "GenerationError",
    "GeneratorConfig",
    "OracleError",
    "charpoly_eigenvalues",
    "enumerate_graphs",
    "random_graph",
    "CheckResult",
    "JacobiConvergenceError",
    "MATCH_TOL",
    "POSITIVITY_TOL",
    "SOLVER_TOL",
    "Spectrum",
    "SubsetMatch",
    "VerificationReport",
    "bound_rows",
    "degree_upper_bound",
    "eigen_sym",
    "fiedler_lower_bound",
    "spectrum_subset",
    "verify_all",
]
