"""Shared graph builders, matrix oracles and hypothesis strategies for the
test suite."""

import bisect
import functools
import itertools
import json
import math
from collections import deque
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from loopspec import (
    EdgeListError,
    Graph,
    LiftedGraph,
    cli,
    graph_from_edges,
    laplacian,
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


def looped_hub(n: int) -> Graph:
    """Vertex 1 looped and joined to all others: its diagonal entry n is the
    largest entry a Laplacian of order n can hold."""
    return Graph(n, star_graph(n).edges | {(1, 1)})


def with_all_loops(g: Graph) -> Graph:
    return Graph(g.n, g.edges | {(v, v) for v in range(1, g.n + 1)})


@functools.cache
def campaign_graphs() -> tuple[Graph, ...]:
    """Criterion 2's 1098 graphs and criterion 3's 1000, as ``run_sweep``
    draws them."""
    campaigns = itertools.chain(
        cli._campaign("exhaustive", n_max=4, samples=0, seed=0, n_min=2, p_edge=0.4, p_loop=0.3),
        cli._campaign(
            "random", n_max=12, samples=1000, seed=SWEEP_SEED, n_min=2, p_edge=0.4, p_loop=0.3
        ),
    )
    drawn = tuple(g for g, _ in campaigns)
    assert len(drawn) == 1098 + 1000
    return drawn


def reference_campaign_configs(
    seed: int, samples: int, n_min: int, n_max: int, p_edge: float, p_loop: float
) -> list[oracle.GeneratorConfig]:
    """Frozen seed stream of a random campaign, one config per sample: every
    child seed, then every size, drawn from ``default_rng(seed)``."""
    root = np.random.default_rng(seed)
    child_seeds = root.integers(0, 2**63, size=samples, dtype=np.uint64).tolist()
    sizes = root.integers(n_min, n_max + 1, size=samples).tolist()
    return [
        oracle.GeneratorConfig(n=n, p_edge=p_edge, p_loop=p_loop, seed=s)
        for s, n in zip(child_seeds, sizes)
    ]


def reference_round9(obj):
    """Frozen copy of the CLI's payload rounding before its JSON writer:
    every float rounded to 9 significant digits, a non-finite one made None
    and every tuple a list, for ``json.dumps(..., indent=2, allow_nan=False)``
    to print."""
    if isinstance(obj, float):
        return float(format(float(obj), ".9g")) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: reference_round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round9(v) for v in obj]
    return obj


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


def reference_laplacian_of(g: Graph) -> np.ndarray:
    """Frozen copy of ``laplacian_of`` before its diagonal took one count:
    the endpoint count minus a second count of the loops, written over the
    -1s of the scatter. Reuses only the dtype rule, ``_entry_dtype``."""
    n, m = g.n, len(g.edges)
    e = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * m).reshape(m, 2) - 1
    i, j = e[:, 0], e[:, 1]
    lap = np.zeros((n, n), dtype=laplacian._entry_dtype(n))
    lap[i, j] = lap[j, i] = -1
    lap.flat[:: n + 1] = np.bincount(e.ravel(), minlength=n) - np.bincount(i[i == j], minlength=n)
    return lap


class ReferencePartition(NamedTuple):
    """The two fields ``ComponentPartition`` had before the traversal's other
    readings joined it: per-vertex labels in 1..count, and count."""

    labels: tuple[int, ...]
    count: int


def reference_connected_components(g: Graph) -> ReferencePartition:
    """Frozen copy of ``connected_components`` before its BFS ran on lists:
    a dict of adjacency lists and a deque, labels numbered by first visit.
    It returns the labels and the count only; compare it with
    ``connected_components(g)[:2]``."""
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
    return ReferencePartition(tuple(labels), count)


def reference_pseudo_connected(g: Graph, parts: ReferencePartition) -> bool:
    """Frozen copy of ``graphs._pseudo_connected`` before the one traversal
    took it over: a second walk over the edges marks each looped vertex's
    component."""
    component_has_loop = [False] * (parts.count + 1)
    for i, j in g.edges:
        if i == j:
            component_has_loop[parts.labels[i - 1]] = True
    return all(component_has_loop[1:])


def reference_max_nonloop_degree(g: Graph) -> int:
    """Frozen copy of ``graphs._max_nonloop_degree`` before the one traversal
    took it over: d(G°), 0 for a graph without non-loop edges."""
    deg = [0] * (g.n + 1)
    for i, j in g.edges:
        if i != j:
            deg[i] += 1
            deg[j] += 1
    return max(deg)


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


# The frozen kernel's own constants, so that a change to graphs.py's cap
# leaves the reference as it was.
_MAX_PLAIN_DIGITS = 18  # 10**18 - 1 < 2**63: a decoded token fits in int64
_POWERS = 10 ** np.arange(_MAX_PLAIN_DIGITS - 1, -1, -1, dtype=np.int64)


def reference_parse_plain(data: bytes) -> Graph | None:
    """Frozen copy of ``graphs._parse_plain`` before numpy's integer parser
    decoded its tokens: each token is decoded by a product of its byte window
    with the powers of ten. The kernel must return the same Graph or the same
    ``None``, so the same files stay on the fast path.

    Reads the edge-list format with only spaces and newlines between fields:
    exactly two tokens on every non-blank line, tokens of at most 18 digits,
    n >= 1, endpoints in 1..n and exactly the declared number of distinct
    edges. Everything else (comments, CRLF, tabs, any malformed file) is left
    to the loop, so the loop alone defines the grammar's errors.
    """
    if data.translate(None, b"0123456789 \n"):
        return None
    # Leading spaces give every token a full window of 18 bytes before its end.
    buf = np.frombuffer(b" " * _MAX_PLAIN_DIGITS + data + b" ", dtype=np.uint8)
    is_digit = buf > 32  # past the check above, only digits lie above b" "
    bounds = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size < 2 or starts.size % 2:
        return None
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_PLAIN_DIGITS:
        return None
    line = np.searchsorted(np.flatnonzero(buf == 10), starts)  # newlines before each token
    if np.any(line[0::2] != line[1::2]) or np.any(line[2::2] == line[1:-1:2]):
        return None
    # Right-align every token in a (tokens, width) window of byte values
    # minus b"0", zero what lies left of the token (separators, which wrap
    # around in uint8, and earlier digits), and decode every token with one
    # product by the powers of ten.
    window = buf[ends[:, None] - np.arange(width, 0, -1)] - np.uint8(48)
    values = (window * (np.arange(width) >= width - lengths[:, None])) @ _POWERS[-width:]
    n, declared = int(values[0]), int(values[1])
    lo = np.minimum(values[2::2], values[3::2])
    hi = np.maximum(values[2::2], values[3::2])
    if n < 1 or lo.size != declared or np.any(lo < 1) or np.any(hi > n):
        return None
    edges = frozenset(zip(lo.tolist(), hi.tolist()))
    if len(edges) != declared:
        return None
    return Graph(n, edges)


def reference_format_edge_list(g: Graph) -> str:
    """Frozen copy of ``format_edge_list`` before it sorted and rendered in
    numpy: the header, then one f-string per edge, sorted by the key
    i (n + 1) + j, joined by newlines with a final newline."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{i} {j}" for i, j in sorted(g.edges, key=lambda e: e[0] * (g.n + 1) + e[1])]
    return "\n".join(lines) + "\n"


def reference_random_graph(cfg: oracle.GeneratorConfig) -> Graph:
    """Frozen copy of ``random_graph`` before it built ``Graph`` directly:
    each draw's pairs go through ``graph_from_edges``, which canonicalises
    every pair and rejects duplicates."""
    rng = np.random.default_rng(cfg.seed)
    starts = list(itertools.accumulate(range(cfg.n - 1, 0, -1), initial=0))
    for _ in range(oracle.RETRY_CAP):
        hits = np.flatnonzero(rng.random(starts[-1]) < cfg.p_edge).tolist()
        loop_draws = rng.random(cfg.n).tolist()
        edges: list[tuple[int, int]] = []
        for k in hits:
            i = bisect.bisect_right(starts, k)
            edges.append((i, k - starts[i - 1] + i + 1))
        edges.extend((v, v) for v, u in enumerate(loop_draws, 1) if u < cfg.p_loop)
        g = graph_from_edges(cfg.n, edges)
        if oracle._meets(g, cfg.require):
            return g
    raise oracle.GenerationError(
        f"no draw met {cfg.require!r} within {oracle.RETRY_CAP} attempts: "
        + json.dumps(cfg.to_json_dict())
    )


def reference_enumerate_graphs(n: int):
    """Frozen copy of ``enumerate_graphs`` before it built ``Graph``
    directly: each mask's candidate pairs go through ``graph_from_edges``."""
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got {n}")
    if n > oracle.MAX_ENUM_VERTICES:
        raise ValueError(
            f"enumeration is capped at {oracle.MAX_ENUM_VERTICES} vertices "
            f"(2^(n(n+1)/2) graphs), got n={n}"
        )
    candidates = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for mask in range(1 << len(candidates)):
        edges = [e for k, e in enumerate(candidates) if mask >> k & 1]
        yield graph_from_edges(n, edges)


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


def reference_count(poly: list[int], num: int, scale: int) -> tuple[int, int]:
    """Frozen copy of the Descartes count that ``oracle._count`` ran before
    it took its coefficients already scaled: (#roots < x, #roots <= x) of a
    real-rooted ``poly`` at x = num / 2^scale, with multiplicity, shifting
    every coefficient on each call and counting sign changes over a filtered
    list."""
    n = len(poly) - 1
    shifted = [c << (scale * (n - i)) for i, c in enumerate(poly)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            shifted[j] += num * shifted[j + 1]
    at = next(i for i, c in enumerate(shifted) if c)
    nonzero = [c for c in shifted if c]
    above = sum((a < 0) != (b < 0) for a, b in zip(nonzero, nonzero[1:]))
    return n - above - at, n - above


def reference_charpoly_eigenvalues(m) -> list[float]:
    """Frozen copy of the count-only bisection that ``charpoly_eigenvalues``
    must reproduce exactly: every eigenvalue bisected from the full bracket
    [-1, 2n+2] by a fresh Descartes count at each dyadic midpoint.

    Takes its polynomial from :func:`reference_charpoly` and its counts
    from :func:`reference_count`, both frozen here, and reuses only the
    oracle's input check.
    """
    entries = oracle._as_integer_matrix(m)
    n = len(entries)
    if n > oracle.MAX_ORACLE_ORDER:
        raise ValueError(f"oracle is capped at order {oracle.MAX_ORACLE_ORDER}, got {n}")
    scale = oracle._SCALE
    poly = reference_charpoly(entries)
    lo, hi = -1, 2 * n + 2
    below_lo, at_most_lo = reference_count(poly, lo, 0)
    if below_lo or reference_count(poly, hi, 0)[1] < n:
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
            below, at_most = reference_count(poly, num + step, scale)
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
    S's top root (or none, and then lambda_N). It is the equation that
    ``spectral._lifted_top`` solves, solved by bisection with no deflation,
    so it checks the steps and not the equation; ``eigvalsh`` on
    :func:`symmetric_block` is the independent route to lambda_max(S)."""
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


def reference_mirror_certificate(lap_lift: np.ndarray, lap: np.ndarray) -> bool:
    """Frozen copy of ``spectral._mirror_certificate`` before it compared
    LL's blocks in place: two full copies of ``lap_lift`` permuted by the
    copy swap, compared whole, and the A - B == L(G) conjunct. On an order
    other than 2N + 1 it returns False or raises ``IndexError``."""
    n = lap.shape[0]
    perm = np.r_[n + 1 : 2 * n + 1, n, :n]
    return bool(
        np.array_equal(lap_lift.take(perm, 0).take(perm, 1), lap_lift)
        and np.array_equal(lap_lift[:n, :n] - lap_lift[:n, n + 1 :], lap)
    )


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
    (see :mod:`loopspec.lifting`), as float64 with the sqrt2 border. It is
    written piece by piece into an empty matrix, as ``spectral._lifted_top``
    once built S for ``eigvalsh``; on a certified lift, B = 0 and A = L(G),
    so it is the S whose top eigenvalue ``_lifted_top`` now takes from
    L(G)'s eigenpairs."""
    n = lap_lift.shape[0] // 2
    s = np.empty((n + 1, n + 1))
    s[:n, :n] = lap_lift[:n, :n] + lap_lift[:n, n + 1 :]
    s[:n, n] = s[n, :n] = math.sqrt(2.0) * lap_lift[:n, n].astype(np.float64)
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
