"""Undirected graphs with self-loops: data model, connectivity, edge-list I/O.

Vertices are numbered 1..n. An edge is an unordered pair stored canonically
as (i, j) with i <= j; the pair (i, i) is a self-loop. Multiple edges are not
representable. Graph values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "Edge",
    "Graph",
    "ComponentPartition",
    "EdgeListError",
    "graph_from_edges",
    "connected_components",
    "is_pseudo_connected",
    "parse_edge_list",
    "format_edge_list",
    "read_edge_list",
    "write_edge_list",
]

Edge = tuple[int, int]


class EdgeListError(ValueError):
    """Malformed edge-list text; ``line`` is the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..n, self-loops allowed, multi-edges not.

    ``edges`` holds canonical pairs only: (i, j) with 1 <= i <= j <= n.
    Construct through :func:`graph_from_edges` unless the pairs are already
    canonical.
    """

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            i, j = e
            if i > j:
                raise ValueError(f"edge {e} not canonical (expected i <= j)")
            if i < 1 or j > self.n:
                raise ValueError(f"edge {e} out of range 1..{self.n}")

    @property
    def loop_count(self) -> int:
        return sum(1 for i, j in self.edges if i == j)


@dataclass(frozen=True)
class ComponentPartition:
    """Per-vertex component labels (vertex v -> labels[v-1]) in 1..count.

    Two vertices share a label iff a path of non-loop edges connects them;
    isolated vertices, looped or not, are singleton components.
    """

    labels: tuple[int, ...]
    count: int


def _add_pair(edges: set[Edge], n: int, i: int, j: int) -> None:
    """Add {i, j} to ``edges`` in canonical order, rejecting endpoints outside
    1..n and duplicates in either orientation."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"vertex out of range 1..{n}: ({i}, {j})")
    e = (i, j) if i <= j else (j, i)
    if e in edges:
        raise ValueError(f"duplicate edge {e}")
    edges.add(e)


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from endpoint pairs in any orientation, rejecting duplicates."""
    edges: set[Edge] = set()
    for i, j in pairs:
        _add_pair(edges, n, i, j)
    return Graph(n, frozenset(edges))


def connected_components(g: Graph) -> ComponentPartition:
    """Partition vertices by non-loop-edge reachability (BFS, labels by first visit)."""
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for i, j in g.edges:
        if i != j:
            adj[i].append(j)
            adj[j].append(i)
    labels = [0] * (g.n + 1)
    count = 0
    for start in range(1, g.n + 1):
        if labels[start]:
            continue
        count += 1
        labels[start] = count
        queue = [start]
        for u in queue:  # the loop also visits what it appends
            for w in adj[u]:
                if not labels[w]:
                    labels[w] = count
                    queue.append(w)
    return ComponentPartition(tuple(labels[1:]), count)


def is_pseudo_connected(g: Graph) -> bool:
    """True iff every vertex has an incident edge (a loop counts) and every
    connected component contains at least one vertex with a self-loop.

    An isolated vertex is a loopless singleton component, so the
    per-component loop rule also enforces the minimum-degree clause.
    """
    return _pseudo_connected(g, connected_components(g))


def _pseudo_connected(g: Graph, parts: ComponentPartition) -> bool:
    """:func:`is_pseudo_connected` given ``g``'s component partition, for
    callers that already hold it."""
    component_has_loop = [False] * (parts.count + 1)
    for i, j in g.edges:
        if i == j:
            component_has_loop[parts.labels[i - 1]] = True
    return all(component_has_loop[1:])


def _max_nonloop_degree(g: Graph) -> int:
    """d(G°): the maximum vertex degree of ``g`` with its self-loops stripped
    (0 for a graph without non-loop edges)."""
    deg = [0] * (g.n + 1)
    for i, j in g.edges:
        if i != j:
            deg[i] += 1
            deg[j] += 1
    return max(deg)


# Edge-list text format: header line "n m", then m lines "i j" (i == j for a
# self-loop). Lines end at "\n", "\r\n" or "\r"; on a line, two fields are
# separated by spaces and tabs, and only spaces and tabs may pad it. A field is
# one or more ASCII digits 0-9: no sign, underscore or other Unicode digit.
# Lines starting with '#' and blank lines are ignored. Round-trips through
# parse/format up to comments and edge order.

_MAX_PLAIN_DIGITS = 18  # 10**18 - 1 < 2**63: a decoded token fits in int64
_POWERS = 10 ** np.arange(_MAX_PLAIN_DIGITS - 1, -1, -1, dtype=np.int64)


def _parse_plain(data: bytes) -> Graph | None:
    """The Graph that :func:`parse_edge_list`'s line loop returns for ``data``,
    computed in numpy, or ``None`` wherever the loop might read it differently
    or reject it; never raises.

    Reads the format above with only spaces and newlines between fields:
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


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; raises :class:`EdgeListError` with a line number.

    Plain ASCII text goes through :func:`_parse_plain` first; the line loop
    below parses whatever it declines and raises every error.
    """
    if text.isascii() and (g := _parse_plain(text.encode("ascii"))) is not None:
        return g
    n: int | None = None
    declared = 0
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        fields = line.replace("\t", " ").split(" ")
        if len(fields) != 2:  # a run of spaces and tabs leaves empty fields
            fields = [f for f in fields if f]
        if len(fields) != 2:
            raise EdgeListError(f"expected two whitespace-separated integers, got {line!r}", lineno)
        digits = fields[0] + fields[1]
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(digits)
            a, b = int(fields[0]), int(fields[1])  # Python 3.11+ caps int() at 4300 digits
        except ValueError:
            raise EdgeListError(f"malformed integer in {line!r}", lineno) from None
        if n is None:
            if a < 1:
                raise EdgeListError(f"vertex count must be positive, got {a}", lineno)
            n, declared = a, b
            continue
        try:
            _add_pair(edges, n, a, b)
        except ValueError as exc:
            raise EdgeListError(str(exc), lineno) from None
    if n is None:
        raise EdgeListError("missing 'n m' header line")
    if len(edges) != declared:
        raise EdgeListError(f"header declares {declared} edges, found {len(edges)}")
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    """Header line, then one line per edge in (i, j) order.

    The edges are sorted by the key i (n + 1) + j, which orders them like the
    tuples since 1 <= j <= n; past int64's range the key is a Python int.
    """
    m, base = len(g.edges), g.n + 1
    dtype = np.int64 if base * base <= 2**63 else object
    pairs = np.fromiter(chain.from_iterable(g.edges), dtype=dtype, count=2 * m).reshape(m, 2)
    keys = np.sort(pairs[:, 0] * base + pairs[:, 1])
    pairs = np.column_stack((keys // base, keys % base))
    return f"{g.n} {m}\n" + ("%d %d\n" * m) % tuple(pairs.ravel().tolist())


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))
