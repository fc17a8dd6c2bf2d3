"""Ground truth the solver cannot contaminate: seeded random graph
generation, exhaustive enumeration of small graphs, and an exact
characteristic-polynomial eigenvalue oracle.

The oracle path is pure integer arithmetic: Faddeev-LeVerrier for the
characteristic polynomial, then one counting rule. The polynomial of a
symmetric matrix has only real roots, so Descartes' rule of signs applied to
p(x + t) counts the eigenvalues above x exactly, with multiplicity, and
bisection on that count pins down each eigenvalue. Once a bisection interval
is known to hold a single simple root, the sign of p at the midpoint answers
the same question as the count for O(n) work in place of O(n^2) (isolate,
then refine: Collins & Akritas, 1976), so the points visited and the values
returned do not change. Its only approximation is the final bisection
width, so agreement with the floating-point solver is a real cross-check and
not a tautology.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Graph, connected_components, graph_from_edges, is_pseudo_connected

__all__ = [
    "RETRY_CAP",
    "MAX_ENUM_VERTICES",
    "MAX_ORACLE_ORDER",
    "GenerationError",
    "OracleError",
    "GeneratorConfig",
    "random_graph",
    "enumerate_graphs",
    "charpoly_eigenvalues",
]

RETRY_CAP = 10_000
MAX_ENUM_VERTICES = 5
MAX_ORACLE_ORDER = 6

# Bisection points are num / 2^_SCALE, so a final interval is 2^-40 (about
# 9.1e-13) wide.
_SCALE = 40

_REQUIREMENTS = ("none", "connected", "pseudo_connected")


class GenerationError(RuntimeError):
    """Rejection sampling hit the retry cap without meeting the constraint."""


class OracleError(RuntimeError):
    """The exact-arithmetic oracle could not certify a complete root set."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one random draw.

    Each unordered vertex pair becomes an edge with probability ``p_edge``
    and each vertex gets a self-loop with probability ``p_loop``,
    independently. ``require`` optionally rejects draws until the named
    predicate holds: "none", "connected", or "pseudo_connected".
    """

    n: int
    p_edge: float
    p_loop: float
    seed: int
    require: str = "none"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least 1 vertex, got {self.n}")
        for name, p in (("p_edge", self.p_edge), ("p_loop", self.p_loop)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.require not in _REQUIREMENTS:
            raise ValueError(
                f"require must be one of {_REQUIREMENTS}, got {self.require!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p_edge": self.p_edge,
            "p_loop": self.p_loop,
            "seed": self.seed,
            "require": self.require,
        }


def _meets(g: Graph, require: str) -> bool:
    if require == "connected":
        return connected_components(g).count == 1
    if require == "pseudo_connected":
        return is_pseudo_connected(g)
    return True


def random_graph(cfg: GeneratorConfig) -> Graph:
    """Draw one graph per ``cfg``, deterministically in the seed.

    Draws are rejected and retried until the ``require`` predicate holds;
    after ``RETRY_CAP`` rejected draws a :class:`GenerationError` is raised
    with the config embedded for reproduction.
    """
    rng = np.random.default_rng(cfg.seed)
    # One draw per vertex pair i < j, in row-major order. Row i holds the
    # pairs (i, i + 1) .. (i, n) from index starts[i - 1] on, so the pair at
    # index k is in row bisect_right(starts, k).
    starts = list(itertools.accumulate(range(cfg.n - 1, 0, -1), initial=0))
    for _ in range(RETRY_CAP):
        hits = np.flatnonzero(rng.random(starts[-1]) < cfg.p_edge).tolist()
        loop_draws = rng.random(cfg.n).tolist()
        edges: list[tuple[int, int]] = []
        for k in hits:
            i = bisect.bisect_right(starts, k)
            edges.append((i, k - starts[i - 1] + i + 1))
        edges.extend((v, v) for v, u in enumerate(loop_draws, 1) if u < cfg.p_loop)
        g = graph_from_edges(cfg.n, edges)
        if _meets(g, cfg.require):
            return g
    raise GenerationError(
        f"no draw met {cfg.require!r} within {RETRY_CAP} attempts: "
        + json.dumps(cfg.to_json_dict())
    )


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled undirected graph with loops on n vertices.

    There are 2^(n(n+1)/2) of them (one bit per vertex pair, loops included),
    emitted in a fixed order: the candidate edges are sorted
    lexicographically and bit k of the counter toggles candidate k.
    """
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got {n}")
    if n > MAX_ENUM_VERTICES:
        raise ValueError(
            f"enumeration is capped at {MAX_ENUM_VERTICES} vertices "
            f"(2^(n(n+1)/2) graphs), got n={n}"
        )
    candidates = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for mask in range(1 << len(candidates)):
        edges = [e for k, e in enumerate(candidates) if mask >> k & 1]
        yield graph_from_edges(n, edges)


# --- exact eigenvalue counting (ascending integer coefficient lists) ---


def _charpoly(entries: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - M), ascending, by Faddeev-LeVerrier over the
    integers: for an integer matrix every division by k is exact."""
    n = len(entries)
    coeffs = [0] * n + [1]
    work = [row[:] for row in entries]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
            work = [
                [sum(entries[i][t] * work[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        coeffs[n - k], rem = divmod(-sum(work[i][i] for i in range(n)), k)
        if rem:
            raise OracleError("characteristic polynomial came out non-integral")
    return coeffs


def _count(poly: list[int], num: int, scale: int) -> tuple[int, int]:
    """(#roots < x, #roots <= x) of a real-rooted ``poly`` at x = num / 2^scale,
    with multiplicity.

    Scaling the roots by 2^scale makes x an integer; the Taylor shift
    p(x + t) then has exactly as many roots t > 0 as its coefficients have
    sign changes (Descartes' rule is exact when every root is real), and its
    zero low-order coefficients count the roots at x.
    """
    n = len(poly) - 1
    shifted = [c << (scale * (n - i)) for i, c in enumerate(poly)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            shifted[j] += num * shifted[j + 1]
    at = next(i for i, c in enumerate(shifted) if c)
    nonzero = [c for c in shifted if c]
    above = sum((a < 0) != (b < 0) for a, b in zip(nonzero, nonzero[1:]))
    return n - above - at, n - above


def _as_integer_matrix(m) -> list[list[int]]:
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    out: list[list[int]] = []
    for row in arr.tolist():
        ints = []
        for v in row:
            try:
                iv = int(v)
            except (OverflowError, TypeError, ValueError):  # inf, complex, NaN
                iv = None
            if iv is None or v != iv:
                raise ValueError(f"matrix entries must be integers, got {v!r}")
            ints.append(iv)
        out.append(ints)
    if out != [list(col) for col in zip(*out)]:
        raise ValueError("matrix is not symmetric")
    return out


def _sign(scaled: list[int], num: int) -> int:
    """Sign (-1, 0 or 1) of p at x = num / 2^_SCALE by one Horner pass, where
    ``scaled[i]`` is p's coefficient of x^i times 2^(_SCALE * (n - i))."""
    acc = 0
    for c in reversed(scaled):
        acc = acc * num + c
    return (acc > 0) - (acc < 0)


def charpoly_eigenvalues(m) -> list[float]:
    """All eigenvalues of a small symmetric integer matrix, with multiplicity,
    ascending, by exact eigenvalue counting on the characteristic polynomial.

    Symmetry guarantees that every root of the polynomial is real, which is
    what makes the sign-change count in :func:`_count` exact. The k-th
    eigenvalue is bisected at dyadic points of a power-of-two-wide bracket
    starting at -1, so every integer is a bisection point and integer
    eigenvalues come out exact; the others are returned as the midpoint of a
    final interval 2^-40 wide. Every eigenvalue must lie in the closed
    bracket [-1, 2n+2], which covers every graph Laplacian of order n; one
    outside it (possible for general symmetric input, never for a Laplacian)
    raises :class:`OracleError`.

    The bisection runs in two phases. While the interval [num, top) holds
    two or more roots, each midpoint x is decided by the count of roots below
    it; counts are kept per call, since the first few midpoints are the same
    for every eigenvalue. Once [num, top) holds exactly one root, that root
    is the k-th, it is simple and it lies strictly above num. Then p(x) has
    the sign of p(num), (-1)^(n-k) for the monic p, exactly when the root
    lies above x, and p(x) = 0 exactly when x is the root, so the sign of p
    gives the count the first phase would have computed: the same points
    are visited and the same value is returned.
    """
    entries = _as_integer_matrix(m)
    n = len(entries)
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle is capped at order {MAX_ORACLE_ORDER}, got {n}")
    poly = _charpoly(entries)
    lo, hi = -1, 2 * n + 2
    below_lo, at_most_lo = _count(poly, lo, 0)
    if below_lo or _count(poly, hi, 0)[1] < n:
        raise OracleError(f"an eigenvalue falls outside the bracket [{lo}, {hi}]")
    # Bisect on [lo, lo + 2^width_log2], which contains [lo, hi].
    width_log2 = (hi - lo).bit_length()
    scaled = [c << (_SCALE * (n - i)) for i, c in enumerate(poly)]
    counts: dict[int, tuple[int, int]] = {}
    roots: list[float] = []
    for k in range(n):
        if k < at_most_lo:
            roots.append(float(lo))
            continue
        num, step = lo << _SCALE, 1 << (width_log2 + _SCALE)
        # roots below num and below top = num + 2 * step; top starts above hi
        below_num, below_top = 0, n
        sign_num = -1 if (n - k) % 2 else 1
        while step > 1:
            step >>= 1
            x = num + step
            if below_top - below_num == 1:  # one simple root, above num
                sign = _sign(scaled, x)
                below, at_most = k + (sign == -sign_num), k + (sign != sign_num)
            else:
                if x not in counts:
                    counts[x] = _count(poly, x, _SCALE)
                below, at_most = counts[x]
            if below <= k:
                num, below_num = x, below
                if k < at_most:
                    roots.append(num / (1 << _SCALE))
                    break
            else:
                below_top = below
        else:
            roots.append((2 * num + 1) / (2 << _SCALE))
    return roots
