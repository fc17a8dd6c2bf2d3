import numpy as np
import pytest
from hypothesis import given

from loopspec import (
    Graph,
    connected_components,
    enumerate_graphs,
    graph_from_edges,
    is_pseudo_connected,
    laplacian_of,
    lift,
)
from builders import degree, graphs, path_graph


def test_single_loop_lifts_to_three_path():
    lg = lift(graph_from_edges(1, [(1, 1)]))
    assert lg.lifted.n == 3
    assert lg.middle == 2
    assert lg.lifted.edges == {(1, 2), (2, 3)}


def test_worked_example_lifts_to_five_path():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    lg = lift(g)
    assert lg.lifted.n == 5
    assert lg.middle == 3
    # path 2-1-3-4-5: the original edge, its shifted copy, and the two spokes
    assert lg.lifted.edges == {(1, 2), (1, 3), (3, 4), (4, 5)}
    deg = [degree(lg.lifted, v) for v in range(1, 6)]
    assert sorted(deg) == [1, 1, 2, 2, 2]


def test_lift_copy_1_shares_the_base_pair_tuples():
    g = graph_from_edges(4, [(1, 1), (1, 2), (2, 3), (3, 3), (3, 4)])
    lg = lift(g)
    base = {e: e for e in g.edges}
    copy_1 = [e for e in lg.lifted.edges if e[1] < lg.middle]
    assert sorted(copy_1) == [(1, 2), (2, 3), (3, 4)]
    assert all(e is base[e] for e in copy_1)


def test_loopless_graph_leaves_middle_isolated():
    g = path_graph(3)
    lg = lift(g)
    assert lg.lifted.n == 7
    assert degree(lg.lifted, lg.middle) == 0
    assert lg.lifted.edges == {(1, 2), (2, 3), (5, 6), (6, 7)}


def test_lift_of_edgeless_graph():
    lg = lift(Graph(2))
    assert lg.lifted.n == 5
    assert lg.lifted.edges == frozenset()


@given(graphs())
def test_lift_structure(g):
    lg = lift(g)
    q = g.loop_count
    mid = g.n + 1
    assert lg.middle == mid
    assert lg.lifted.n == 2 * g.n + 1
    assert lg.lifted.loop_count == 0
    assert len(lg.lifted.edges) == 2 * (len(g.edges) - q) + 2 * q
    assert degree(lg.lifted, mid) == 2 * q
    for i, j in sorted(e for e in g.edges if e[0] != e[1]):
        assert (i, j) in lg.lifted.edges
        assert (i + mid, j + mid) in lg.lifted.edges
    for v in (i for i, j in g.edges if i == j):
        assert (v, mid) in lg.lifted.edges
        assert (mid, v + mid) in lg.lifted.edges


@given(graphs())
def test_lifted_laplacian_blocks(g):
    """Both vertex copies carry an exact copy of the base Laplacian."""
    n = g.n
    lap = laplacian_of(g)
    big = laplacian_of(lift(g).lifted)
    assert np.array_equal(big[:n, :n], lap)
    assert np.array_equal(big[n + 1 :, n + 1 :], lap)
    # middle row: 2q on the diagonal, -1 toward each loop vertex in each copy
    mid = n  # zero-based index of vertex n+1
    assert big[mid, mid] == 2 * g.loop_count
    for v in range(1, n + 1):
        expected = -1 if (v, v) in g.edges else 0
        assert big[mid, v - 1] == expected
        assert big[mid, n + v] == expected


def test_lift_of_single_vertex():
    lg = lift(Graph(1))
    assert lg.lifted.n == 3
    assert lg.lifted.edges == frozenset()


def _assert_lift_joins_the_looped_components(g):
    # The middle vertex joins every component with a loop, in both copies;
    # each loopless component stays apart in each copy. So the lift is
    # connected exactly when g is pseudo-connected.
    parts = connected_components(g)
    looped = {parts.labels[i - 1] for i, j in g.edges if i == j}
    lifted = connected_components(lift(g).lifted).count
    assert lifted == 1 + 2 * (parts.count - len(looped)), g
    assert is_pseudo_connected(g) == (lifted == 1), g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_is_connected_iff_pseudo_connected_on_all_small_graphs(n):
    for g in enumerate_graphs(n):
        _assert_lift_joins_the_looped_components(g)


@given(graphs())
def test_lift_is_connected_iff_pseudo_connected(g):
    _assert_lift_joins_the_looped_components(g)
