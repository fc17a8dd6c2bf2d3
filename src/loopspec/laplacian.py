"""Laplacian matrices for graphs with self-loops.

Matrix row/column k corresponds to vertex k+1. The Laplacian is dense int32
numpy (entries in [-1, n]), scattered from the edge array: -1 at each
non-loop pair, and on the diagonal the degree plus 1 per loop. It equals
E^T E and D - A exactly, as the test suite checks with its own E, D and A.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import Graph

__all__ = ["laplacian_of", "format_matrix"]


def laplacian_of(g: Graph) -> np.ndarray:
    """Symmetric int32 Laplacian, equal to E^T E and D - A. One scatter writes
    -1 at (i, j) and (j, i) for each non-loop edge {i, j} (``Graph`` holds no
    multi-edges); the diagonal, written last over the -1 a loop puts at (i, i),
    is the degree with a loop counted once. int32 suffices: the solvers cast
    to float64, the oracle and ``analyze`` read ``tolist()``, and the mirror
    certificate only permutes, subtracts and compares entries within
    +-(n + 1); nothing multiplies two integer Laplacians.
    """
    n, m = g.n, len(g.edges)
    e = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * m).reshape(m, 2) - 1
    i, j = e[:, 0], e[:, 1]
    lap = np.zeros((n, n), dtype=np.int32)
    lap[i, j] = lap[j, i] = -1
    lap.flat[:: n + 1] = np.bincount(e.ravel(), minlength=n) - np.bincount(i[i == j], minlength=n)
    return lap


def format_matrix(m: np.ndarray) -> str:
    """Plain-text dump of an integer matrix: one row per line,
    space-separated entries."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
