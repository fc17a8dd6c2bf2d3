import numpy as np
from hypothesis import given

from loopspec import (
    GeneratorConfig,
    Graph,
    format_matrix,
    graph_from_edges,
    laplacian_of,
    lift,
    random_graph,
)
from builders import degree_adjacency, graphs, incidence_matrix, path_graph


def test_worked_example_laplacian():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    assert laplacian_of(g).tolist() == [[2, -1], [-1, 1]]


def test_three_path_laplacian():
    assert laplacian_of(path_graph(3)).tolist() == [
        [1, -1, 0],
        [-1, 2, -1],
        [0, -1, 1],
    ]


def test_single_loop_vertex():
    g = graph_from_edges(1, [(1, 1)])
    assert laplacian_of(g).tolist() == [[1]]


def test_edgeless_laplacian_is_zero():
    assert not laplacian_of(Graph(4)).any()


def test_incidence_rows():
    g = graph_from_edges(3, [(1, 1), (2, 3)])
    e = incidence_matrix(g)
    assert e.shape == (2, 3)
    # canonical edge order: loops sort like any other pair
    assert e.tolist() == [[1, 0, 0], [0, 1, -1]]


def test_incidence_row_sums():
    g = graph_from_edges(4, [(1, 1), (1, 2), (3, 3), (2, 4)])
    e = incidence_matrix(g)
    sums = e.sum(axis=1)
    for row, (i, j) in zip(sums, sorted(g.edges)):
        assert row == (1 if i == j else 0)


@given(graphs())
def test_gram_identity(g):
    """The assembled Laplacian equals the E^T E and D - A oracles exactly."""
    e = incidence_matrix(g)
    lap = laplacian_of(g)
    d, a = degree_adjacency(g)
    assert np.array_equal(e.T @ e, lap)
    assert np.array_equal(d - a, lap)


def _assert_gram(g):
    lap = laplacian_of(g)
    e = incidence_matrix(g, dtype=np.float64)
    assert lap.dtype == np.int32
    assert np.array_equal(e.T @ e, lap)


def _seeded_graphs():
    rng = np.random.default_rng(2024)
    for n in range(2, 61):
        p_edge, p_loop = rng.uniform(0.05, 0.7), rng.uniform(0.0, 0.5)
        yield random_graph(GeneratorConfig(n, p_edge, p_loop, seed=n))
    yield random_graph(GeneratorConfig(1000, 0.01, 0.05, seed=5))


def test_gram_identity_beyond_small_orders():
    """The scattered Laplacian of seeded graphs up to n = 60, of one sparse
    n = 1000 graph, and of their lifts equals E^T E."""
    for g in _seeded_graphs():
        _assert_gram(g)
        _assert_gram(lift(g).lifted)


def test_single_vertex_without_edges():
    lap = laplacian_of(Graph(1))
    assert lap.dtype == np.int32
    assert lap.tolist() == [[0]]


@given(graphs())
def test_laplacian_row_sums_count_loops(g):
    lap = laplacian_of(g)
    loops_at = [1 if (v, v) in g.edges else 0 for v in range(1, g.n + 1)]
    assert lap.sum(axis=1).tolist() == loops_at


@given(graphs())
def test_adjacency_diagonal_is_zero(g):
    d, a = degree_adjacency(g)
    assert not np.diagonal(a).any()
    assert np.array_equal(a, a.T)
    assert not (d - np.diag(np.diagonal(d))).any()


def test_loop_adds_one_to_degree_matrix():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    d, a = degree_adjacency(g)
    assert d.tolist() == [[2, 0], [0, 1]]
    assert a.tolist() == [[0, 1], [1, 0]]


def test_format_matrix_integers():
    g = graph_from_edges(2, [(1, 2)])
    assert format_matrix(laplacian_of(g)) == "1 -1\n-1 1"

