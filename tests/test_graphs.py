import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopspec import (
    EdgeListError,
    Graph,
    GeneratorConfig,
    connected_components,
    enumerate_graphs,
    format_edge_list,
    graph_from_edges,
    is_pseudo_connected,
    lift,
    parse_edge_list,
    random_graph,
    read_edge_list,
    write_edge_list,
)
from loopspec.graphs import _parse_plain
from builders import (
    campaign_graphs,
    degree,
    graphs,
    path_graph,
    reference_connected_components,
    reference_format_edge_list,
    reference_max_nonloop_degree,
    reference_parse_edge_list,
    reference_parse_plain,
    reference_pseudo_connected,
    with_all_loops,
)


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
    # the edge-list grammar has no negative numbers: see PLAIN_DECLINES
    for i, j in ((1, 3), (0, 1), (3, 3)):
        with pytest.raises(EdgeListError, match="out of range") as err:
            parse_edge_list(f"2 1\n{i} {j}\n")
        assert err.value.line == 2


def test_non_canonical_direct_construction_rejected():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(2, 1)}))


def _graphs_of_every_route():
    g = graph_from_edges(3, [(1, 1), (2, 1), (3, 2)])
    return [
        Graph(1),
        g,
        lift(g).lifted,
        parse_edge_list("2 2\n1 1\n1 2\n"),
        list(enumerate_graphs(2))[-1],
        random_graph(GeneratorConfig(6, 0.5, 0.5, 3, require="pseudo_connected")),
    ]


def test_graph_is_slotted():
    assert Graph.__slots__ == ("n", "edges")
    for g in _graphs_of_every_route():
        assert not hasattr(g, "__dict__"), g


def test_graph_takes_no_assignment():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    with pytest.raises(FrozenInstanceError):
        g.n = 3
    with pytest.raises(FrozenInstanceError):
        g.edges = frozenset()
    # the error class differs between Python versions (TypeError on 3.11-3.13)
    with pytest.raises(Exception):
        g.label = "worked example"
    assert g == graph_from_edges(2, [(1, 1), (1, 2)])


def test_graph_survives_pickle_and_deepcopy():
    for g in _graphs_of_every_route():
        for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert twin == g and hash(twin) == hash(g), g


def test_self_loop_is_a_normal_edge():
    g = graph_from_edges(2, [(1, 1), (1, 2)])
    assert g.loop_count == 1
    assert sorted(e for e in g.edges if e[0] == e[1]) == [(1, 1)]
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


@given(graphs())
def test_components_equal_frozen_bfs(g):
    assert connected_components(g)[:2] == reference_connected_components(g)


def test_components_equal_frozen_bfs_on_large_graphs():
    # a sparse graph of many components (mean degree about 1), and a path
    # whose vertex numbers are shuffled, so its BFS visits them out of order
    sparse = random_graph(GeneratorConfig(2000, 0.0005, 0.05, seed=2000))
    order = (np.random.default_rng(2000).permutation(2000) + 1).tolist()
    path = graph_from_edges(2000, zip(order, order[1:]))
    for g in (sparse, path):
        assert connected_components(g)[:2] == reference_connected_components(g)
    assert connected_components(sparse).count > 100
    assert connected_components(path).count == 1


def test_census_equals_the_frozen_helpers():
    # criteria 2 and 3, one graph of each order 22..30 (large-verify's
    # orders; the odd ones pseudo-connected) and one of order 2000 with many
    # components, looped and loopless
    large = [
        random_graph(GeneratorConfig(n, 0.1, 0.3, n, "pseudo_connected" if n % 2 else "none"))
        for n in range(22, 31)
    ]
    large.append(random_graph(GeneratorConfig(2000, 0.0005, 0.05, seed=2000)))
    for g in campaign_graphs() + tuple(large):
        census = connected_components(g)
        parts = reference_connected_components(g)
        assert census[:2] == parts, g
        assert census.pseudo_connected == reference_pseudo_connected(g, parts), g
        assert census.max_nonloop_degree == reference_max_nonloop_degree(g), g
        assert census.loops == g.loop_count, g


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
def test_format_lists_edges_in_tuple_order(g):
    header, *lines = format_edge_list(g).splitlines()
    assert header == f"{g.n} {len(g.edges)}"
    assert [tuple(map(int, line.split())) for line in lines] == sorted(g.edges)


@given(graphs(max_n=12))
def test_format_equals_frozen_f_string_reference(g):
    assert format_edge_list(g) == reference_format_edge_list(g)


def test_format_equals_frozen_reference_on_large_and_huge_graphs():
    rng = np.random.default_rng(2000)
    n = 2000
    pairs = {tuple(sorted(p)) for p in rng.integers(1, n + 1, size=(10 * n, 2)).tolist()}
    big = lift(Graph(n, frozenset(pairs) | {(v, v) for v in range(1, n + 1, 7)})).lifted
    # the int64 key's last order, the first past it and one far past int64
    edge_cases = [Graph(k, {(1, 1), (1, k), (k - 1, k), (k, k)}) for k in (3_037_000_498, 3_037_000_499, 2**70)]
    for g in [big, *edge_cases]:
        assert format_edge_list(g) == reference_format_edge_list(g)


def _first_non_digit_field(text: str) -> tuple[int, str] | None:
    """The number and stripped text of the first line whose two fields the
    line loop converts and where one is not ASCII digits, or ``None``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        fields = line.split()
        if len(fields) == 2 and not line.startswith("#"):
            digits = fields[0] + fields[1]
            if not (digits.isascii() and digits.isdigit()):
                return lineno, line
    return None


def assert_parses_like_reference(text: str) -> Graph | None:
    """Hold ``parse_edge_list`` to the edge-list grammar against the frozen
    loop, which reads every field with ``int()``; returns the Graph read.

    1. Up to the first line with a field that is not ASCII digits, the two
       agree: the same Graph, or an error of the same class, message and
       line wherever the frozen loop fails first.
    2. At that line ``parse_edge_list`` raises "malformed integer", even
       where ``int()`` reads the field.
    """
    bad = _first_non_digit_field(text)
    try:
        want, exc = reference_parse_edge_list(text), None
    except EdgeListError as e:
        want, exc = None, e
    if bad is not None and (exc is None or exc.line is None or exc.line >= bad[0]):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(text)
        lineno, line = bad
        assert (str(err.value), err.value.line) == (f"line {lineno}: malformed integer in {line!r}", lineno)
        return None
    if exc is not None:
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(text)
        assert (type(err.value), str(err.value), err.value.line) == (type(exc), str(exc), exc.line)
        return None
    assert parse_edge_list(text) == want
    return want


# How a formatted edge list may be rewritten, and whether the numpy kernel
# still reads the result (True) or leaves it to the line loop (False).
TEXT_VARIANTS = {
    "plain": (lambda t: t, True),
    "blank lines": (lambda t: "\n  \n" + t.replace("\n", "\n\n"), True),
    "trailing spaces": (lambda t: t.replace("\n", "  \n"), True),
    "no final newline": (lambda t: t[:-1], True),
    "leading zeros": (lambda t: "0" + t.replace(" ", " 00"), True),
    "comments": (lambda t: "# a graph\n" + t.replace("\n", "\n# an edge\n", 2), False),
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "cr": (lambda t: t.replace("\n", "\r"), False),
    "tabs": (lambda t: t.replace(" ", "\t"), False),
    "runs of tabs and spaces": (lambda t: t.replace(" ", " \t ").replace("\n", "\t\n  "), False),
}


@pytest.mark.parametrize("variant", sorted(TEXT_VARIANTS))
@given(g=graphs(max_n=9))
def test_parse_equals_frozen_line_loop(variant, g):
    rewrite, kernel_reads = TEXT_VARIANTS[variant]
    text = rewrite(format_edge_list(g))
    assert assert_parses_like_reference(text) == g
    assert _parse_plain(text.encode()) == (g if kernel_reads else None)
    assert _parse_plain(text.encode()) == reference_parse_plain(text.encode())


# Texts the kernel must leave to the line loop: each is invalid, except the
# 19-digit token with leading zeros, which only the loop reads. The grammar
# refuses signs, the underscore and non-ASCII digits, though int() reads
# most of them.
PLAIN_DECLINES = {
    "out-of-range endpoint": "2 1\n1 3\n",
    "zero endpoint": "2 1\n0 1\n",
    "duplicate": "2 2\n1 2\n1 2\n",
    "reversed duplicate": "2 2\n1 2\n2 1\n",
    "duplicate within the declared count": "2 1\n1 2\n2 1\n",
    "count mismatch": "3 3\n1 2\n2 3\n",
    "one token": "2 1\n1\n",
    "an edge split over two lines": "2 1\n1\n2\n",
    "three tokens": "2 1\n1 2 2\n",
    "two edges on one line": "2 2\n1 2 1 1\n",
    "header only": "3 2\n",
    "zero order": "0 0\n",
    "19-digit token": "2 1\n1000000000000000000 1\n",
    "19-digit token with leading zeros": "2 1\n0000000000000000001 2\n",
    "leading zeros on a zero endpoint": "2 1\n00 01\n",
    "5000-digit token": "2 1\n" + "1" * 5000 + " 1\n",
    "plus sign": "2 1\n+1 2\n",
    "negative vertex count": "-2 1\n",
    "negative edge count": "2 -1\n",
    "negative endpoint": "2 1\n2 -1\n",
    "underscore": "2 1\n1 0_2\n",
    "arabic-indic digit": "2 1\n\u0661 2\n",
    "superscript digit": "2 1\n1 \u00b2\n",
    "fullwidth digit": "2 1\n\uff11 2\n",
    "empty": "",
    "blank": " \n\n",
}


@pytest.mark.parametrize("name", sorted(PLAIN_DECLINES))
def test_parse_plain_declines_what_the_loop_must_judge(name):
    text = PLAIN_DECLINES[name]
    assert _parse_plain(text.encode()) is None
    assert reference_parse_plain(text.encode()) is None
    assert_parses_like_reference(text)


def test_parse_plain_decodes_eighteen_digit_tokens():
    big = 10**18 - 1
    text = f"{big} 2\n1 {big}\n{big - 1} 000000000000000002\n"
    want = Graph(big, frozenset({(1, big), (2, big - 1)}))
    assert _parse_plain(text.encode()) == want
    assert assert_parses_like_reference(text) == want


def _digit_tokens(width: int) -> list[str]:
    """Tokens of exactly ``width`` digits: the largest and smallest without
    leading zeros, and 0, 1 and 2 padded with leading zeros."""
    return ["9" * width, "1" + "0" * (width - 1), "0" * width, "1".zfill(width), "2".zfill(width)]


def test_parse_plain_equals_frozen_kernel_around_the_digit_cap():
    # each token in each of the four places: n, the edge count, either endpoint
    big = 10**18 - 1
    for width in range(1, 21):
        for tok in _digit_tokens(width):
            texts = [f"{tok} 0\n", f"2 {tok}\n1 2\n", f"{big} 1\n{tok} 1\n", f"{big} 1\n1 {tok}\n"]
            for text in texts:
                data = text.encode()
                assert _parse_plain(data) == reference_parse_plain(data), text
        # n = 99...9 is read up to 18 digits and left to the loop from 19 on
        read = _parse_plain(f"{'9' * width} 0\n".encode())
        assert (read is not None) == (width <= 18), width


def test_parse_plain_equals_frozen_kernel_on_criterion_3_graphs():
    for g in campaign_graphs()[1098:]:
        data = format_edge_list(g).encode()
        assert _parse_plain(data) == reference_parse_plain(data) == g, g


@given(st.sampled_from(["", "3 2\n"]), st.text(alphabet="0123456789 \n", max_size=40))
def test_parse_plain_equals_frozen_kernel_on_its_alphabet(header, body):
    data = (header + body).encode()
    assert _parse_plain(data) == reference_parse_plain(data)


@given(st.lists(st.lists(st.from_regex(r"[0-9]{1,3}", fullmatch=True), max_size=4), max_size=6))
def test_parse_equals_frozen_line_loop_on_near_plain_text(lines):
    # small numbers, zeros and leading zeros on lines of zero to four tokens
    text = "\n".join(" ".join(line) for line in lines)
    assert _parse_plain(text.encode()) in (None, assert_parses_like_reference(text))
    assert _parse_plain(text.encode()) == reference_parse_plain(text.encode())


@given(st.text(alphabet="0123456789 \n\r\t#+-_x\u0661", max_size=30))
def test_parse_equals_frozen_line_loop_on_arbitrary_text(text):
    assert _parse_plain(text.encode()) in (None, assert_parses_like_reference(text))


# Texts that end a line or separate fields with a character the grammar does
# not allow there, though str.splitlines() or str.split() would. The frozen
# loop reads each as the edge (1, 2); parse_edge_list must raise on the given
# line, so these are checked on their own.
FOREIGN_SEPARATORS = {
    "file separator": ("2 1\x1c1 2", 1),
    "vertical tab": ("2 1\x0b1 2", 1),
    "form feed": ("2 1\x0c1 2", 1),
    "next line": ("2 1\x851 2", 1),
    "line separator": ("2 1\u20281 2", 1),
    "paragraph separator": ("2 1\u20291 2", 1),
    "ideographic space": ("2 1\n1\u30002", 2),
    "no-break space": ("2 1\n1\xa02", 2),
    "no-break space padding": ("2 1\n1 2\xa0", 2),
    "form feed padding": ("\x0c2 1\n1 2", 1),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_SEPARATORS))
def test_parse_rejects_separators_outside_the_grammar(name):
    text, line = FOREIGN_SEPARATORS[name]
    assert reference_parse_edge_list(text) == Graph(2, frozenset({(1, 2)}))
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@given(graphs())
def test_format_parse_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_file_round_trip(tmp_path):
    g = graph_from_edges(3, [(1, 1), (2, 3)])
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def _outcome(read, path):
    """The Graph that ``read(path)`` returns, or the class, message and
    ``.line`` of the ValueError it raises (EdgeListError, UnicodeDecodeError)."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _read_text_then_parse(path):
    return parse_edge_list(path.read_text())


# Files whose bytes read_edge_list must read as parse_edge_list reads their
# Path.read_text(): the numpy route's own bytes, the line loop's line ends and
# separators, bytes that decode to non-ASCII text or not at all, and errors.
FILE_BYTES = {
    "plain": b"2 2\n1 1\n1 2\n",
    "comments": b"# worked example\n2 2\n1 1\n\n# the bridge\n1 2\n",
    "crlf": b"2 2\r\n1 1\r\n1 2\r\n",
    "crlf with an error on line 3": b"2 2\r\n1 1\r\n1 3\r\n",
    "lone cr": b"2 2\r1 1\r1 2\r",
    "lone cr with an error on line 2": b"2 1\r1 x\r",
    "tabs": b"2\t2\n1\t1\n\t1 \t2\t\n",
    "utf-8 non-ascii comment": "# caf\u00e9 \u0661\u0662\n2 2\n1 1\n1 2\n".encode(),
    "utf-8 non-ascii digit": "2 1\n1 \u0662\n".encode(),
    "invalid utf-8 in a comment": b"# caf\xe9\n2 2\n1 1\n1 2\n",
    "invalid utf-8 in a token": b"2 1\n1 \xff2\n",
    "utf-8 bom": b"\xef\xbb\xbf2 2\n1 1\n1 2\n",
    "empty": b"",
    "header only": b"3 2\n",
    "19-digit token": b"2 1\n1000000000000000000 1\n",
}


@pytest.mark.parametrize("name", sorted(FILE_BYTES))
def test_read_edge_list_equals_parse_of_read_text(name, tmp_path):
    path = tmp_path / "g.el"
    path.write_bytes(FILE_BYTES[name])
    assert _outcome(read_edge_list, path) == _outcome(_read_text_then_parse, path)


def test_read_edge_list_equals_parse_of_read_text_on_written_files(tmp_path):
    # criterion 3's graphs and a sparse N = 2000 graph of many components
    path = tmp_path / "g.el"
    sparse = random_graph(GeneratorConfig(2000, 0.0005, 0.05, seed=2000))
    for g in campaign_graphs()[1098:] + (sparse,):
        write_edge_list(g, path)
        assert read_edge_list(path) == _read_text_then_parse(path) == g, g


# How the last line "i j" of a large written file may be changed so that the
# pattern fails only at the end of a long match and leaves the file to the
# line loop: two of them make the loop raise, the others it reads.
LAST_LINE_DEFECTS = {
    "19-digit token": lambda i, j: f"{i} {j:019d}",
    "third token": lambda i, j: f"{i} {j} {j}",
    "tab separator": lambda i, j: f"{i}\t{j}",
    "trailing cr": lambda i, j: f"{i} {j}\r",
    "comment": lambda i, j: f"# {i} {j}",
}


@pytest.fixture(scope="module")
def written_lift():
    # the lift of a sparse N = 2000 graph: 4001 vertices, about 150 KB of text
    lifted = lift(random_graph(GeneratorConfig(2000, 0.004, 0.05, seed=2000))).lifted
    return lifted, format_edge_list(lifted)


@pytest.mark.parametrize("name", sorted(LAST_LINE_DEFECTS))
def test_near_misses_on_the_last_line_of_a_large_file(name, written_lift, tmp_path):
    lifted, text = written_lift
    assert len(text) > 150_000 and _parse_plain(text.encode()) == lifted
    head, last = text[:-1].rsplit("\n", 1)
    data = (head + "\n" + LAST_LINE_DEFECTS[name](*map(int, last.split())) + "\n").encode()
    assert _parse_plain(data) is None
    path = tmp_path / "g.el"
    path.write_bytes(data)
    assert _outcome(read_edge_list, path) == _outcome(_read_text_then_parse, path)
