"""Shared graph builders, matrix oracles and hypothesis strategies for the
test suite."""

import itertools
import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from loopspec import (
    ComponentPartition,
    EdgeListError,
    Graph,
    LiftedGraph,
    graph_from_edges,
    lift,
    oracle,
)

# Criterion 3's campaign seed; criteria 4 and 7 draw from SWEEP_SEED + 1, + 2.
SWEEP_SEED = 20260817


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def star_graph(n: int) -> Graph:
    """Vertex 1 joined to all others."""
    return graph_from_edges(n, [(1, j) for j in range(2, n + 1)])


def with_all_loops(g: Graph) -> Graph:
    return Graph(g.n, g.edges | {(v, v) for v in range(1, g.n + 1)})


def incidence_matrix(g: Graph, dtype=np.int64) -> np.ndarray:
    """Edge-by-vertex signed incidence matrix E, one row per canonical edge.

    A non-loop edge (p, q) with p < q gets +1 at p and -1 at q (the Gram
    matrix E^T E is insensitive to per-row sign flips). A self-loop at p gets
    a single +1 at p. With ``dtype=np.float64``, ``e.T @ e`` runs in BLAS and
    is still exact: every entry and partial sum is an integer below 2**53.
    """
    edges = sorted(g.edges)
    e = np.zeros((len(edges), g.n), dtype=dtype)
    for r, (i, j) in enumerate(edges):
        e[r, i - 1] = 1
        if i != j:
            e[r, j - 1] = -1
    return e


def degree_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Degree matrix D and adjacency matrix A with D - A equal to the Laplacian.

    A self-loop adds 1 to its vertex's diagonal degree and leaves A[i][i] = 0;
    that convention is forced by matching E^T E, which puts exactly 1 on the
    diagonal per loop.
    """
    d = np.zeros((g.n, g.n), dtype=np.int64)
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        d[i - 1, i - 1] += 1
        if i != j:
            d[j - 1, j - 1] += 1
            a[i - 1, j - 1] = a[j - 1, i - 1] = 1
    return d, a


def reference_connected_components(g: Graph) -> ComponentPartition:
    """Frozen copy of ``connected_components`` before its BFS ran on lists:
    a dict of adjacency lists and a deque, labels numbered by first visit."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        if i != j:
            adj[i].append(j)
            adj[j].append(i)
    labels = [0] * g.n
    count = 0
    for start in range(1, g.n + 1):
        if labels[start - 1]:
            continue
        count += 1
        labels[start - 1] = count
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not labels[w - 1]:
                    labels[w - 1] = count
                    queue.append(w)
    return ComponentPartition(tuple(labels), count)


def reference_parse_edge_list(text: str) -> Graph:
    """Frozen copy of the line loop that was ``parse_edge_list`` before it
    tried a numpy kernel first: one pass over ``text.splitlines()``, the
    errors (class, message, ``.line``) that ``parse_edge_list`` must still
    raise, and the Graph it must still return."""
    n: int | None = None
    declared = 0
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(f"expected two whitespace-separated integers, got {line!r}", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"malformed integer in {line!r}", lineno) from None
        if n is None:
            if a < 1:
                raise EdgeListError(f"vertex count must be positive, got {a}", lineno)
            if b < 0:
                raise EdgeListError(f"edge count must be nonnegative, got {b}", lineno)
            n, declared = a, b
            continue
        if not (1 <= a <= n and 1 <= b <= n):
            raise EdgeListError(f"vertex out of range 1..{n}: ({a}, {b})", lineno)
        e = (a, b) if a <= b else (b, a)
        if e in edges:
            raise EdgeListError(f"duplicate edge {e}", lineno)
        edges.add(e)
    if n is None:
        raise EdgeListError("missing 'n m' header line")
    if len(edges) != declared:
        raise EdgeListError(f"header declares {declared} edges, found {len(edges)}")
    return Graph(n, frozenset(edges))


def reference_format_edge_list(g: Graph) -> str:
    """Frozen copy of ``format_edge_list`` before it sorted and rendered in
    numpy: the header, then one f-string per edge, sorted by the key
    i (n + 1) + j, joined by newlines with a final newline."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{i} {j}" for i, j in sorted(g.edges, key=lambda e: e[0] * (g.n + 1) + e[1])]
    return "\n".join(lines) + "\n"


def reference_jacobi(m: np.ndarray, tol: float = 1e-12):
    """Frozen copy of the cyclic Jacobi kernel that ``eigen_sym`` ran before
    it called LAPACK, kept as a second float route: separate ``a`` and ``v``,
    the rows of ``a`` and the columns of ``v`` rotated by one elementwise
    rule, rows mirrored into columns, the 2x2 block set in closed form. It
    stops once the off-diagonal Frobenius norm drops to ``tol`` times that
    of ``m``.

    Returns (eigenvalues, eigenvectors). Input validation and the sweep cap
    are left out; callers pass symmetric matrices that converge.
    """
    m = np.asarray(m).astype(np.float64)
    n = m.shape[0]
    a = m.copy()
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if fro > 0.0 and n > 1:
        threshold = max(tol, float(np.finfo(np.float64).eps)) * fro
        skip = threshold / (2.0 * n)
        upper = np.triu_indices(n, 1)
        while math.sqrt(2.0) * float(np.linalg.norm(a[upper])) > threshold:
            for p, q in itertools.combinations(range(n), 2):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = a[p, p], a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for x in (a, v.T):
                    xp, xq = x[p], x[q]
                    x[p], x[q] = c * xp - s * xq, s * xp + c * xq
                a[:, p], a[:, q] = a[p], a[q]
                a[p, p], a[q, q] = app - t * apq, aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    order = np.argsort(np.diagonal(a), kind="stable")
    values = np.diagonal(a)[order].copy()
    return values, v[:, order]


def reference_charpoly(entries: list[list[int]]) -> list[int]:
    """Frozen copy of the nested-sum Faddeev-LeVerrier that ``oracle._charpoly``
    ran before it formed its products on object arrays: coefficients of
    det(xI - M), ascending, every product and trace a Python ``sum``."""
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
            raise oracle.OracleError("characteristic polynomial came out non-integral")
    return coeffs


def reference_charpoly_eigenvalues(m) -> list[float]:
    """Frozen copy of the count-only bisection that ``charpoly_eigenvalues``
    must reproduce exactly: every eigenvalue bisected from the full bracket
    [-1, 2n+2] by a fresh Descartes count at each dyadic midpoint.

    Takes its polynomial from :func:`reference_charpoly`, and reuses the
    oracle's input check and count through the module, so a test that
    patches ``oracle._count`` sees these calls too.
    """
    entries = oracle._as_integer_matrix(m)
    n = len(entries)
    if n > oracle.MAX_ORACLE_ORDER:
        raise ValueError(f"oracle is capped at order {oracle.MAX_ORACLE_ORDER}, got {n}")
    scale = oracle._SCALE
    poly = reference_charpoly(entries)
    lo, hi = -1, 2 * n + 2
    below_lo, at_most_lo = oracle._count(poly, lo, 0)
    if below_lo or oracle._count(poly, hi, 0)[1] < n:
        raise oracle.OracleError(f"an eigenvalue falls outside the bracket [{lo}, {hi}]")
    width_log2 = (hi - lo).bit_length()
    roots: list[float] = []
    for k in range(n):
        if k < at_most_lo:
            roots.append(float(lo))
            continue
        num, step = lo << scale, 1 << (width_log2 + scale)
        while step > 1:
            step >>= 1
            below, at_most = oracle._count(poly, num + step, scale)
            if below <= k:
                num += step
                if k < at_most:
                    roots.append(num / (1 << scale))
                    break
        else:
            roots.append((2 * num + 1) / (2 << scale))
    return roots


def reference_lifted_top(lap_lift: np.ndarray, spec) -> float:
    """lambda_max of the lift's block S by bisection on its secular equation
    (Golub 1973), from L(G)'s eigenpairs ``spec``: S is the arrowhead
    [[Lambda, z], [z^T, d]] in the basis diag(V, 1), z = sqrt2 V^T c, and
    f(mu) = mu - d - sum z_i^2 / (mu - lambda_i) increases above lambda_N to
    S's top root (or none, and then lambda_N). A route to lambda_max(S)
    independent of the ``eigvalsh`` call in ``spectral._lifted_top``."""
    lam, n = spec.eigenvalues, spec.eigenvalues.size
    z2 = 2.0 * (spec.eigenvectors.T @ lap_lift[:n, n]) ** 2
    lo, d = float(lam[-1]), float(lap_lift[n, n])
    hi = max(lo, d) + math.sqrt(float(z2.sum()))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid - d - float(np.sum(z2 / (mid - lam))) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def reference_lifted_residual(lap_lift: np.ndarray, spec) -> tuple[float, float]:
    """Kahan's residual bound on the (2N+1) x N mirror basis X = [V; 0; -V]/sqrt2
    of L(G)'s eigenpairs ``spec``, with a float product by the lifted Laplacian
    LL: ``(gap, worst_res)``, gap = ||LL X - X Lambda||_F / sqrt(1 - ||X^T X -
    I||_F) (inf once that norm reaches 1) and worst_res the largest column
    norm of LL X - X Lambda. An independent route to the gap and the lifted
    residuals that ``verify_all`` reads off L(G)'s own residual."""
    n = spec.eigenvalues.size
    v = spec.eigenvectors / math.sqrt(2.0)
    x = np.concatenate((v, np.zeros((1, n)), -v))
    res = lap_lift @ x - x * spec.eigenvalues
    eta = float(np.linalg.norm(x.T @ x - np.eye(n)))
    gap = float(np.linalg.norm(res)) / math.sqrt(1.0 - eta) if eta < 1.0 else math.inf
    return gap, float(np.sqrt((res * res).sum(axis=0)).max())


def misrouted_spoke(g: Graph) -> LiftedGraph:
    """A lift whose spoke (middle, v + middle) lands on a loopless vertex w
    of the second copy instead; ``g`` needs a loop and a loopless vertex."""
    good = lift(g)
    loops = sorted(i for i, j in g.edges if i == j)
    mid, v = good.middle, loops[0]
    w = next(u for u in range(1, g.n + 1) if u not in loops)
    edges = (good.lifted.edges - {(mid, v + mid)}) | {(mid, w + mid)}
    return LiftedGraph(Graph(good.lifted.n, edges), mid)


def symmetric_block(lap_lift: np.ndarray) -> np.ndarray:
    """The order-(N+1) symmetric block S = [[A + B, sqrt2 c], [sqrt2 c^T, d]]
    of a lifted Laplacian with blocks [[A, c, B], [c^T, d, c^T], [B, c, A]]
    (see :mod:`loopspec.lifting`), as float64 with the sqrt2 border."""
    n = lap_lift.shape[0] // 2
    s = np.empty((n + 1, n + 1))
    s[:n, :n] = lap_lift[:n, :n] + lap_lift[:n, n + 1 :]
    s[:n, n] = s[n, :n] = math.sqrt(2.0) * lap_lift[:n, n]
    s[n, n] = lap_lift[n, n]
    return s


def residual(m: np.ndarray, spec) -> float:
    """Largest eigenpair residual ||M v - t v|| of a ``Spectrum`` of ``m``."""
    vectors = spec.eigenvectors
    res = np.asarray(m, dtype=np.float64) @ vectors - vectors * spec.eigenvalues
    return float(np.sqrt((res * res).sum(axis=0)).max())


def degree(g: Graph, v: int) -> int:
    """Incident non-loop edges plus 1 per self-loop at ``v``."""
    return sum(1 for e in g.edges if v in e)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7, allow_loops: bool = True):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if allow_loops or i != j
    ]
    if not candidates:
        return graph_from_edges(n, [])
    chosen = draw(st.sets(st.sampled_from(candidates)))
    return graph_from_edges(n, chosen)
