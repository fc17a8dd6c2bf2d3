"""Undirected graphs with self-loops: data model, connectivity, edge-list I/O.

Vertices are numbered 1..n. An edge is an unordered pair stored canonically
as (i, j) with i <= j; the pair (i, i) is a self-loop. Multiple edges are not
representable. Graph values are immutable after construction and safe to
share between threads.

Pairs that come from outside the program go through :func:`graph_from_edges`,
which canonicalises them and rejects duplicates. The generators in
``oracle`` and :func:`~loopspec.lifting.lift` build their pairs canonical and
distinct, and construct ``Graph`` directly. ``Graph`` is slotted, so it takes
no ad-hoc attributes, and graphs may share their immutable pair tuples.

The graph facts the spectral claims rest on come from one traversal,
:func:`connected_components`, one pass over the edges and one BFS: the
components, whether each holds a self-loop, d(G°) (the largest degree once
loops are stripped) and the loop count q, in one :class:`ComponentPartition`.

:func:`parse_edge_list` reads edge-list text line by line and raises every
grammar error. :func:`read_edge_list` first matches a file's bytes against one
pattern of plain files and decodes their tokens with numpy's integer parser.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected graph on vertices 1..n, self-loops allowed, multi-edges not.

    ``edges`` holds canonical pairs only: (i, j) with 1 <= i <= j <= n. Any
    iterable of them is stored as a frozenset, and every pair is checked.
    Construct through :func:`graph_from_edges` unless the pairs are already
    canonical and distinct.
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
    """Build a graph from endpoint pairs in any orientation, rejecting
    duplicates: the route for pairs that come from outside the program."""
    edges: set[Edge] = set()
    for i, j in pairs:
        _add_pair(edges, n, i, j)
    return Graph(n, frozenset(edges))


class ComponentPartition(NamedTuple):
    """Per-vertex component labels (vertex v -> labels[v-1]) in 1..count.

    Two vertices share a label iff a path of non-loop edges connects them;
    isolated vertices, looped or not, are singleton components. Whether each
    component holds a self-loop, d(G°) and the loop count q ride along.
    """

    labels: tuple[int, ...]
    count: int
    pseudo_connected: bool
    max_nonloop_degree: int
    loops: int


def connected_components(g: Graph) -> ComponentPartition:
    """Partition vertices by non-loop-edge reachability, labels numbered by
    first visit: one pass over ``g.edges`` builds the adjacency lists and
    lists the looped vertices; one BFS over the lists labels the components."""
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    looped: list[int] = []
    for i, j in g.edges:
        if i == j:
            looped.append(i)
        else:
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
    pseudo = len({labels[v] for v in looped}) == count
    return ComponentPartition(tuple(labels[1:]), count, pseudo, max(map(len, adj)), len(looped))


def is_pseudo_connected(g: Graph) -> bool:
    """True iff every vertex has an incident edge (a loop counts) and every
    connected component contains at least one vertex with a self-loop. An
    isolated vertex is a loopless singleton component, so the per-component
    loop rule also enforces the minimum-degree clause."""
    return connected_components(g).pseudo_connected


# Edge-list text format: header line "n m", then m lines "i j" (i == j for a
# self-loop). Lines end at "\n", "\r\n" or "\r"; on a line, two fields are
# separated by spaces and tabs, and only spaces and tabs may pad it. A field is
# one or more ASCII digits 0-9: no sign, underscore or other Unicode digit.
# Lines starting with '#' and blank lines are ignored. Round-trips through
# parse/format up to comments and edge order.

# A plain file: blank lines of spaces, the header pair, then a pair or nothing
# on each line; tokens of 1 to 18 digits (10**18 - 1 < 2**63 fits in int64),
# spaces only between fields, "\n" only between lines. Every quantifier is
# possessive, so a near miss fails in linear time.
_DIGITS = rb"[0-9]{1,18}+"
_PAIR = _DIGITS + rb"[ ]++" + _DIGITS + rb"[ ]*+"
_PLAIN = re.compile(rb"(?:[ ]*+\n)*+[ ]*+" + _PAIR + rb"(?:\n[ ]*+(?:" + _PAIR + rb")?+)*+")


def _parse_plain(data: bytes) -> Graph | None:
    """The Graph that :func:`parse_edge_list` returns for the ASCII text
    ``data``, or ``None`` wherever the line loop might read it differently or
    reject it; never raises.

    ``_PLAIN`` admits the format above with only spaces and newlines around
    its tokens of at most 18 digits; numpy's integer parser then decodes the
    tokens, and the Graph is returned only for n >= 1, endpoints in 1..n and
    exactly the declared number of distinct edges. Everything else
    (comments, CRLF, tabs, non-ASCII bytes, any malformed file) is left to
    the loop, so the loop alone defines the grammar's errors.
    """
    if _PLAIN.fullmatch(data) is None:
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    n, declared = int(values[0]), int(values[1])
    lo = np.minimum(values[2::2], values[3::2])
    hi = np.maximum(values[2::2], values[3::2])
    if n < 1 or lo.size != declared or np.count_nonzero(lo < 1) or np.count_nonzero(hi > n):
        return None
    edges = frozenset(zip(lo.tolist(), hi.tolist()))
    if len(edges) != declared:
        return None
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text line by line; raises :class:`EdgeListError` with
    a line number. This loop reads any text and raises every grammar error."""
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
    """Read an edge-list file: the Graph, or the error, of
    ``parse_edge_list(Path(path).read_text())``.

    The file's bytes go to :func:`_parse_plain` undecoded: its pattern admits
    only ASCII digits, spaces and newlines, which every ASCII-compatible
    encoding decodes alike. Only when it declines are the same bytes decoded
    as ``Path.read_text()`` decodes them (the locale encoding, strict errors,
    universal newlines) and read by the line loop :func:`parse_edge_list`;
    bytes that do not decode raise ``UnicodeDecodeError``.
    """
    with open(path, "rb") as file:
        data = file.read()
    g = _parse_plain(data)
    return g if g is not None else parse_edge_list(io.TextIOWrapper(io.BytesIO(data)).read())


def write_edge_list(g: Graph, path: str | Path) -> None:
    r"""Write :func:`format_edge_list`'s ASCII text with ``Path.write_text``.

    Line ends are the platform's: where they are ``\n``, :func:`read_edge_list`
    reads the file back by the numpy route; ``\r\n`` (Windows) takes the line
    loop.
    """
    Path(path).write_text(format_edge_list(g))
