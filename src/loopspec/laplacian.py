"""Laplacian matrices for graphs with self-loops.

Matrix row/column k corresponds to vertex k+1. The Laplacian is dense integer
numpy, assembled from one rank-one term per edge; it equals E^T E and D - A
exactly, which the test suite checks against its own builders of E, D and A.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

__all__ = ["laplacian_of", "format_matrix"]


def laplacian_of(g: Graph) -> np.ndarray:
    """Symmetric integer Laplacian assembled from rank-one edge terms.

    Each non-loop edge {i, j} contributes (e_i - e_j)(e_i - e_j)^T; each
    self-loop at i contributes e_i e_i^T, i.e. +1 on the diagonal.
    """
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        if i == j:
            lap[i - 1, i - 1] += 1
        else:
            lap[i - 1, i - 1] += 1
            lap[j - 1, j - 1] += 1
            lap[i - 1, j - 1] -= 1
            lap[j - 1, i - 1] -= 1
    return lap


def format_matrix(m: np.ndarray) -> str:
    """Plain-text dump of an integer matrix: one row per line,
    space-separated entries."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
