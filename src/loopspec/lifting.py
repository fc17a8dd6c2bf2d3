"""Lifting a graph with self-loops to a loopless graph on 2N+1 vertices.

A base graph on vertices 1..N lifts to two mirrored copies (vertices 1..N
and N+2..2N+1) joined through a middle vertex N+1: every non-loop edge is
duplicated in both copies, and every self-loop (i, i) becomes the two spokes
(i, N+1) and (N+1, i+N+1). The lift is loopless by construction and its
Laplacian contains the base spectrum.

In that vertex order the lifted Laplacian has the block form

    LL = [[A,   c, B  ],
          [c^T, d, c^T],
          [B,   c, A  ]]

with A = L(G) (a loop's +1 on the diagonal becomes its spoke to the middle
vertex), B = 0, c = -l and d = 2q, where l is the loop indicator vector and
q the loop count. The copy swap leaves LL unchanged, so spec(LL) is spec of
the antisymmetric block A - B = L(G) together with spec of the symmetric
block S = [[A + B, sqrt2 c], [sqrt2 c^T, d]] of order N+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph

__all__ = ["LiftedGraph", "lift"]


@dataclass(frozen=True)
class LiftedGraph:
    """Result of :func:`lift`: the loopless lift and the middle vertex index
    N+1."""

    lifted: Graph
    middle: int


def lift(g: Graph) -> LiftedGraph:
    """Construct the lifted graph on 2N+1 vertices.

    A loopless input is accepted; its middle vertex simply ends up isolated.
    """
    middle = g.n + 1
    edges: list[Edge] = []
    for e in g.edges:
        i, j = e
        if i == j:
            edges += [(i, middle), (middle, i + middle)]
        else:
            edges += [e, (i + middle, j + middle)]  # copy 1 shares g's tuples
    return LiftedGraph(Graph(2 * g.n + 1, frozenset(edges)), middle)

