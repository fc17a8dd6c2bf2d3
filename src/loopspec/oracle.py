"""Ground truth the solver cannot contaminate: seeded random graph
generation, exhaustive enumeration of small graphs, and an exact
characteristic-polynomial eigenvalue oracle.

The oracle decides in integer arithmetic alone: Faddeev-LeVerrier for the
characteristic polynomial, then one counting rule. The polynomial of a
symmetric matrix has only real roots, so Descartes' rule of signs applied to
p(x + t) counts the eigenvalues above x exactly, with multiplicity, and
bisection on that count isolates each eigenvalue. Once an interval is known
to hold a single simple root, a safeguarded Newton iteration on the dyadic
grid refines it for O(n) work per point in place of O(n^2) (isolate, then
refine: Collins & Akritas, 1976). A float Newton seed on p picks only the
first exact point of each refinement. The points visited differ from those
of bisection, but the value returned, fixed by the grid cell that holds the
root, does not. Its only approximation is the final grid width, so
agreement with the floating-point solver is a real cross-check and not a
tautology.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .graphs import Graph, connected_components, is_pseudo_connected

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
MAX_ORACLE_ORDER = 30

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
        return asdict(self)


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
        g = Graph(cfg.n, set(edges))  # canonical (i < j, one loop per vertex) and distinct
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
    for mask in range(1 << len(candidates)):  # graphs share the candidates' tuples
        yield Graph(n, {e for k, e in enumerate(candidates) if mask >> k & 1})


# --- exact eigenvalue counting (ascending integer coefficient lists) ---


def _charpoly(entries: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - M), ascending, by Faddeev-LeVerrier over the
    integers: for an integer matrix every division by k is exact. The
    products run on ``dtype=object`` arrays of Python ints, which numpy forms
    with Python's own ``*`` and ``+``: exact at any size, and never in BLAS.
    Each step adds the last coefficient to the work matrix's diagonal in
    place; that matrix starts as a copy of M, so M is never written. The
    trace is a Python sum over the diagonal, a fifth of the object-dtype
    ``trace()``'s time."""
    n = len(entries)
    coeffs = [0] * n + [1]
    a = np.array(entries, dtype=object)
    work = a.copy()
    for k in range(1, n + 1):
        if k > 1:
            work.flat[:: n + 1] += coeffs[n - k + 1]
            work = a.dot(work)
        coeffs[n - k], rem = divmod(-sum(work.diagonal().tolist()), k)
        if rem:
            raise OracleError("characteristic polynomial came out non-integral")
    return coeffs


def _count(scaled: list[int], num: int) -> tuple[int, int]:
    """(#roots < x, #roots <= x) of a real-rooted p at x = num / 2^s, with
    multiplicity, where ``scaled[i]`` is p's x^i coefficient times
    2^(s (n - i)): p itself at s = 0, or the list scaled once by s = _SCALE.
    These counts and the exact Newton passes decide every root; a float seed
    only picks the first exact pass of a refinement.

    Scaling the roots by 2^s makes x an integer; the Taylor shift
    p(x + t) then has exactly as many roots t > 0 as its coefficients have
    sign changes (Descartes' rule is exact when every root is real), and its
    zero low-order coefficients count the roots at x.
    """
    n = len(scaled) - 1
    shifted = scaled[:]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            shifted[j] += num * shifted[j + 1]
    at = 0
    while not shifted[at]:
        at += 1
    above, negative = 0, shifted[at] < 0
    for c in shifted[at + 1 :]:
        if c and (c < 0) != negative:
            above += 1
            negative = not negative
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


def _horner(scaled: list[int], x: int) -> tuple[int, int]:
    """q(x) and q'(x) by one Horner pass, where ``scaled[i]`` is p's
    coefficient of x^i times 2^(_SCALE * (n - i)), so that q(x) is p at
    x / 2^_SCALE times 2^(_SCALE * n)."""
    q = dq = 0
    for c in reversed(scaled):
        dq = dq * x + q
        q = q * x + c
    return q, dq


def _seed(descending: list[float], lo: int, hi: int) -> int:
    """The first point for :func:`_refine` on (lo, hi): a few float Newton
    steps on p, from the top coefficient down in ``descending``, started at
    the midpoint, rounded to the grid. The midpoint when that point is not
    finite or not strictly inside the bracket."""
    mid = (lo + hi) >> 1
    t = mid / (1 << _SCALE)
    for _ in range(8):  # float Newton steps
        p = dp = 0.0
        for c in descending:
            dp = dp * t + p
            p = p * t + c
        if dp:
            t -= p / dp
    x = t * (1 << _SCALE)  # inf and NaN fail the test below
    return round(x) if lo + 1 <= x <= hi - 1 else mid


def _refine(scaled: list[int], lo: int, hi: int, sign_lo: int, x: int) -> tuple[int, bool]:
    """(floor(r), r == floor(r)) for the one root r of q in the open
    interval (lo, hi), where q has the sign ``sign_lo`` on (lo, r), the
    opposite sign on (r, hi), and hi - lo >= 2. The first pass is at the
    caller's x, lo < x < hi, such as a float seed; it picks only where the
    exact passes start, since the value returned depends on r alone.

    Each pass evaluates q and q' at a point x strictly inside the bracket,
    returns x on an exact zero, and else moves the bracket end with x's sign
    to x. The next point is the integer Newton point, rounded away from x:
    once Newton lands within one grid step of r, that point lies on r's far
    side, so the bracket closes from both sides. The midpoint is taken in
    its place when q'(x) = 0, when the Newton point falls outside the
    bracket, or when the passes left would no longer cover a bisection of
    the bracket, so no root costs more than twice the passes of bisection.
    A first point outside the open bracket raises :class:`OracleError`,
    since the passes would then invert the bracket and never end.
    """
    if not lo < x < hi:
        raise OracleError(f"refinement starts at {x}, outside the bracket ({lo}, {hi})")
    budget = 2 * (hi - lo - 1).bit_length()
    while True:
        q, dq = _horner(scaled, x)
        budget -= 1
        if not q:
            return x, True
        if (q > 0) == (sign_lo > 0):
            lo = x
        else:
            hi = x
        if hi - lo == 1:
            return lo, False
        if dq:
            x = x - q // dq if x == lo else x + -q // dq
        if not dq or not lo < x < hi or budget <= (hi - lo - 1).bit_length():
            x = (lo + hi) >> 1


def charpoly_eigenvalues(m) -> list[float]:
    """All eigenvalues of a small symmetric integer matrix, with multiplicity,
    ascending, by exact eigenvalue counting on the characteristic polynomial.

    Symmetry guarantees that every root of the polynomial is real, which is
    what makes the sign-change count in :func:`_count` exact. The k-th
    eigenvalue is located on the grid of dyadic points j / 2^40 in a
    power-of-two-wide bracket starting at -1: one on the grid, every integer
    included, comes out exact, and any other is returned as the midpoint of
    the grid cell, 2^-40 wide, that holds it. Every eigenvalue must lie in
    the closed bracket [-1, 2n+2], which covers every graph Laplacian of
    order n; one outside it (possible for general symmetric input, never for
    a Laplacian) raises :class:`OracleError`.

    The search runs in two phases. While the interval [num, top) holds two
    or more roots, it is bisected and each midpoint x is decided by the
    count of roots below it; counts are kept per call, since the first few
    midpoints are the same for every eigenvalue. Once [num, top) holds
    exactly one root, that root is the k-th, it is simple and it lies
    strictly above num, and p has the sign of p(num), (-1)^(n-k) for the
    monic p, below it. :func:`_refine` then finds the grid cell that holds
    it by Newton's method, from the first point that :func:`_seed`'s float
    Newton picks. Bisection would visit other points, but it returns a value
    fixed by that cell and by whether the root is its low end, so the value
    returned is the same.
    """
    entries = _as_integer_matrix(m)
    n = len(entries)
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle is capped at order {MAX_ORACLE_ORDER}, got {n}")
    poly = _charpoly(entries)
    lo, hi = -1, 2 * n + 2
    below_lo, at_most_lo = _count(poly, lo)
    if below_lo or _count(poly, hi)[1] < n:
        raise OracleError(f"an eigenvalue falls outside the bracket [{lo}, {hi}]")
    # Bisect on [lo, lo + 2^width_log2], which contains [lo, hi].
    width_log2 = (hi - lo).bit_length()
    scaled = [c << (_SCALE * (n - i)) for i, c in enumerate(poly)]
    descending = [float(c) for c in reversed(poly)]
    counts: dict[int, tuple[int, int]] = {}
    roots: list[float] = []
    for k in range(n):
        if k < at_most_lo:
            roots.append(float(lo))
            continue
        num, step = lo << _SCALE, 1 << (width_log2 + _SCALE)
        # roots below num and below top = num + step; top starts above hi
        below_num, below_top, exact = 0, n, False
        while step > 1:
            if below_top - below_num == 1:  # one simple root, above num
                top, sign = num + step, -1 if (n - k) % 2 else 1
                num, exact = _refine(scaled, num, top, sign, _seed(descending, num, top))
                break
            step >>= 1
            x = num + step
            if x not in counts:
                counts[x] = _count(scaled, x)
            below, at_most = counts[x]
            if below <= k:
                num, below_num = x, below
                if k < at_most:
                    exact = True
                    break
            else:
                below_top = below
        roots.append(num / (1 << _SCALE) if exact else (2 * num + 1) / (2 << _SCALE))
    return roots
