"""Laplacian matrices for graphs with self-loops.

Matrix row/column k corresponds to vertex k+1. The Laplacian is a dense
numpy array of the narrowest signed integer type whose maximum exceeds n
(int8 up to n = 126, int16 up to n = 32766), scattered from the edge array:
-1 at each non-loop pair, and on the diagonal the degree plus 1 per loop.
It equals E^T E and D - A exactly, as the test suite checks with its own E,
D and A.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import Graph

__all__ = ["laplacian_of", "format_matrix"]


def laplacian_of(g: Graph) -> np.ndarray:
    """Symmetric integer Laplacian, equal to E^T E and D - A. One scatter
    writes -1 at (i, j) and (j, i) for each edge {i, j} (``Graph`` holds no
    multi-edges), a loop's -1 landing at (i, i). The diagonal is written
    last: one count of the flat endpoint array, in which a loop's vertex
    appears twice, plus that -1, is the degree with a loop counted once. The
    dtype, ``_entry_dtype(n)``, holds every entry (in [-1, n]) and every
    difference of two (within +-(n + 1), the mirror certificate's A - B);
    nothing else is integer arithmetic, since the solvers cast to float64
    and the oracle and ``analyze`` read ``tolist()``.
    """
    n = g.n
    e = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * len(g.edges)) - 1
    i, j = e[::2], e[1::2]
    lap = np.zeros((n, n), dtype=_entry_dtype(n))
    lap[i, j] = lap[j, i] = -1
    lap.flat[:: n + 1] = np.bincount(e, minlength=n) + lap.diagonal()
    return lap


_SIGNED = tuple((np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32, np.int64))


def _entry_dtype(n: int) -> type:
    """The narrowest signed integer type whose maximum exceeds ``n``. Not
    ``np.result_type``, whose answer for a Python int moved with NEP 50."""
    for top, t in _SIGNED:
        if top > n:
            return t


def format_matrix(m: np.ndarray) -> str:
    """Plain-text dump of an integer matrix: one row per line,
    space-separated entries."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
