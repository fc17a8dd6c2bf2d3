import pytest
from hypothesis import given

from loopspec import (
    EdgeListError,
    Graph,
    connected_components,
    format_edge_list,
    graph_from_edges,
    is_pseudo_connected,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from builders import degree, graphs, path_graph, with_all_loops


def test_graph_without_edges_is_edgeless():
    for g in (Graph(3), graph_from_edges(3, [])):
        assert g.n == 3
        assert g.edges == frozenset()


def test_vertex_count_must_be_positive():
    for n in (0, -2):
        with pytest.raises(ValueError):
            Graph(n)
        with pytest.raises(ValueError):
            graph_from_edges(n, [])
    with pytest.raises(EdgeListError):
        parse_edge_list("0 0\n")


def test_graph_from_edges_canonicalizes_order():
    g = graph_from_edges(3, [(3, 1)])
    assert g.edges == {(1, 3)}
    assert g == graph_from_edges(3, [(1, 3)])


def test_duplicate_edge_rejected():
    # a repeated pair is a duplicate in either orientation
    for pairs in ([(1, 2), (1, 2)], [(1, 2), (2, 1)], [(2, 2), (2, 2)]):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(2, pairs)
        text = "2 2\n" + "".join(f"{i} {j}\n" for i, j in pairs)
        with pytest.raises(EdgeListError, match="duplicate") as err:
            parse_edge_list(text)
        assert err.value.line == 3


def test_out_of_range_endpoints_rejected():
    for i, j in ((1, 3), (0, 1), (3, 3), (2, -1)):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(2, [(i, j)])
        with pytest.raises(EdgeListError, match="out of range") as err:
            parse_edge_list(f"2 1\n{i} {j}\n")
        assert err.value.line == 2


def test_non_canonical_direct_construction_rejected():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(2, 1)}))


def test_self_loop_is_a_normal_edge():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    assert g.loop_count == 1
    assert g.self_loops() == [1]
    assert sorted(e for e in g.edges if e[0] != e[1]) == [(1, 2)]
    assert degree(g, 1) == 2
    assert degree(g, 2) == 1


def test_components_of_edgeless_graph():
    parts = connected_components(Graph(3))
    assert parts.count == 3
    assert parts.labels == (1, 2, 3)


def test_components_ignore_loops():
    # a loop never joins two vertices
    g = graph_from_edges(2, [(1, 1), (2, 2)])
    assert connected_components(g).count == 2


def test_components_worked_cases():
    g = graph_from_edges(5, [(1, 2), (2, 3), (4, 5)])
    parts = connected_components(g)
    assert parts.count == 2
    assert parts.labels == (1, 1, 1, 2, 2)


def test_pseudo_connected_needs_a_loop_per_component():
    assert is_pseudo_connected(graph_from_edges(1, [(1, 1)]))
    assert is_pseudo_connected(graph_from_edges(2, [(1, 1), (1, 2)]))
    # connected but loopless
    assert not is_pseudo_connected(path_graph(3))
    # two components, only one has a loop
    assert not is_pseudo_connected(graph_from_edges(4, [(1, 1), (1, 2), (3, 4)]))
    # isolated vertex has no incident edge
    assert not is_pseudo_connected(graph_from_edges(2, [(1, 1)]))
    assert not is_pseudo_connected(Graph(1))


def test_every_component_loop_rule_on_split_graph():
    g = graph_from_edges(4, [(1, 1), (1, 2), (3, 3), (3, 4)])
    assert is_pseudo_connected(g)


@given(graphs(max_n=6))
def test_all_loops_make_any_graph_pseudo_connected(g):
    assert is_pseudo_connected(with_all_loops(g))


def test_parse_worked_example():
    g = parse_edge_list("2 2\n1 1\n1 2\n")
    assert g.n == 2
    assert g.edges == {(1, 1), (1, 2)}


def test_parse_skips_comments_and_blank_lines():
    text = "# graph with one loop\n\n2 2\n1 1\n# the bridge\n1 2\n\n"
    g = parse_edge_list(text)
    assert g.edges == {(1, 1), (1, 2)}


def test_parse_empty_edge_set():
    g = parse_edge_list("2 0\n")
    assert g.n == 2
    assert g.edges == frozenset()


@pytest.mark.parametrize(
    "text,line",
    [
        ("", None),
        ("2\n", 1),
        ("x 2\n", 1),
        ("2 1\n1 x\n", 2),
        ("2 1\n1\n", 2),
        ("2 1\n1 3\n", 2),
        ("2 2\n1 2\n1 2\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_parse_edge_count_mismatch():
    with pytest.raises(EdgeListError, match="declares 2 edges, found 1"):
        parse_edge_list("2 2\n1 2\n")


def test_format_worked_example():
    g = graph_from_edges(2, [(1, 2), (1, 1)])
    assert format_edge_list(g) == "2 2\n1 1\n1 2\n"


@given(graphs(max_n=12))
def test_sorted_edges_is_the_tuple_order(g):
    assert g.sorted_edges() == sorted(g.edges)


@given(graphs())
def test_format_parse_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_file_round_trip(tmp_path):
    g = graph_from_edges(3, [(1, 1), (2, 3)])
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
