import numpy as np
import pytest
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
from loopspec.laplacian import _entry_dtype
from builders import (
    campaign_graphs,
    degree_adjacency,
    graphs,
    incidence_matrix,
    looped_hub,
    path_graph,
    reference_laplacian_of,
)


def _narrowest(n):
    """The dtype rule written out: the narrowest signed integer type whose
    maximum exceeds n, so that it holds every entry, in [-1, n], and every
    difference of two entries, within +-(n + 1)."""
    if n <= 126:
        return np.int8
    if n <= 32766:
        return np.int16
    return np.int32 if n <= 2**31 - 2 else np.int64


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


def test_laplacian_equals_the_frozen_reference_bitwise():
    # every graph with n <= 4 (criterion 2), criterion 3's graphs and one of
    # each order 22..30, and each one's lift: the one-count diagonal gives
    # the frozen two-count assembly's dtype and entries
    large = [random_graph(GeneratorConfig(n, 0.4, 0.3, 3000 * n)) for n in range(22, 31)]
    for g in campaign_graphs() + tuple(large):
        for h in (g, lift(g).lifted):
            lap, frozen = laplacian_of(h), reference_laplacian_of(h)
            assert lap.dtype == frozen.dtype and np.array_equal(lap, frozen), h


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
    assert lap.dtype == _narrowest(g.n)
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
    assert lap.dtype == np.int8
    assert lap.tolist() == [[0]]


@pytest.mark.parametrize("n", [126, 127, 128])
def test_the_largest_entry_fits_at_the_int8_boundary(n):
    # int8 holds n = 127 itself but not the mirror certificate's +-(n + 1),
    # so n = 127 takes int16.
    g = looped_hub(n)
    lap = laplacian_of(g)
    assert lap.dtype == (np.int8 if n < 127 else np.int16)
    assert lap[0, 0] == n
    e = incidence_matrix(g)
    assert np.array_equal(e.T @ e, lap)


@pytest.mark.parametrize(
    "n", [1, 126, 127, 32766, 32767, 2**31 - 2, 2**31 - 1, 2**63 - 2], ids=str
)
def test_the_dtype_rule_at_every_switch(n):
    # The int16 and wider switches would need a Laplacian of 2 GiB or more,
    # so only the rule itself is checked there.
    assert _entry_dtype(n) == _narrowest(n)


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

