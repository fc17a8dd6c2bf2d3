"""Reference kernel that measures how fast the machine runs right now.

On a shared host the same op can take twice as long from one second to the
next, because other tenants load the same cores. The benchmark therefore
times this fixed kernel between ops and scales every op's time by
``NOMINAL_S / (kernel time around the op)``: a time "at nominal speed".
The kernel is the benchmark's own code, so a change to loopspec cannot make
it faster or slower; it mixes the kinds of work the workloads do: parsing
text into a set of tuples, exact rational sums, one cyclic Jacobi sweep on
a 12x12 matrix, and writing to fresh memory pages, as the dense Laplacians
do. The pages come straight from ``mmap``, not from the C allocator, so the
kernel's cost does not depend on what the program allocated and freed
before it (a multi-megabyte ``np.zeros`` would: after large frees the
allocator raises its mmap threshold and serves it from the heap). The
timed compute part follows an untimed run of it, so it runs with warm
caches whatever the op before it touched.
"""

from __future__ import annotations

import math
import mmap
from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time on an unloaded 2-vCPU x86-64 host (Python 3.11, numpy 2.4).
NOMINAL_S = 0.0035

_MATRIX = np.random.default_rng(0).integers(-1, 2, size=(12, 12)).astype(np.float64)
_MATRIX = _MATRIX + _MATRIX.T + 8.0 * np.eye(12)
_TEXT = "".join(f"{i % 37 + 1} {i % 41 + 1}\n" for i in range(400))
FRESH_BYTES = 4 << 20


def _rotations(a: np.ndarray) -> None:
    """One cyclic Jacobi sweep, the solver pattern the campaigns spend on."""
    n = a.shape[0]
    v = np.eye(n)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rp, rq = a[p, :].copy(), a[q, :].copy()
            a[p, :], a[q, :] = c * rp - s * rq, s * rp + c * rq
            cp, cq = a[:, p].copy(), a[:, q].copy()
            a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
            vp, vq = v[:, p].copy(), v[:, q].copy()
            v[:, p], v[:, q] = c * vp - s * vq, s * vp + c * vq


def _compute() -> float:
    edges = set()
    for line in _TEXT.splitlines():
        i, j = (int(x) for x in line.split())
        edges.add((min(i, j), max(i, j)))
    exact = sum(Fraction(i, j) for i, j in sorted(edges)[:60])
    a = _MATRIX.copy()
    _rotations(a)
    return float(exact) + float(a[0, 0])


def _fresh_pages(size: int) -> None:
    fresh = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    for offset in range(0, size, mmap.PAGESIZE):
        fresh[offset] = 1
    fresh.close()


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel, after an untimed run
    of its compute part that brings its code and data back into the caches
    the program's op may have evicted."""
    _compute()
    t0 = perf_counter()
    _compute()
    _fresh_pages(FRESH_BYTES)
    return perf_counter() - t0
