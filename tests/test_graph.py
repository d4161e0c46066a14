import io
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motifembed.generators import erdos_renyi_average_degree
from motifembed.graph import EdgeListParseError, EmptyGraphError, Graph, load_edge_list


def test_load_one_indexed_triangle():
    text = "1 2\n2 3\n3 1\n"
    g = load_edge_list(io.StringIO(text), one_indexed=True)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert g.labels.tolist() == [1, 2, 3]


def test_self_loops_dropped_but_node_kept():
    text = "0 0\n0 1\n"
    g = load_edge_list(io.StringIO(text))
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.degrees.tolist() == [1, 1]

    lonely = load_edge_list(io.StringIO("5 5\n1 2\n"))
    assert lonely.num_nodes == 3
    assert lonely.num_edges == 1
    assert lonely.degrees[2] == 0  # label 5 retained as isolated node


def test_duplicates_and_reversed_duplicates_collapse():
    text = "0 1\n1 0\n0 1\n1 2\n"
    g = load_edge_list(io.StringIO(text))
    assert g.num_edges == 2
    assert g.edge_ids([0, 1], [1, 0]).tolist() == [0, 0]


def test_comments_blank_lines_and_weight_tokens():
    text = "% header comment\n# another\n\n0 1 3.5\n1 2 0.1 extra\n"
    g = load_edge_list(io.StringIO(text))
    assert g.num_edges == 2


def test_skip_header_skips_first_noncomment_line():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 2\n1 2\n3 4\n"
    g = load_edge_list(io.StringIO(text), skip_header=True, one_indexed=True)
    assert g.num_nodes == 4
    assert g.num_edges == 2


def test_a_byte_order_mark_is_skipped(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("0 1\n1 2\n", encoding="utf-8")
    marked.write_text("0 1\n1 2\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_edge_list(marked) == load_edge_list(plain)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd paths")
@pytest.mark.parametrize("text", ["0 1\n1 2\n", "# two edges\n0 1\n1 2\n", "% weighted\n0 1 0.5\n\n1 2 2\n"])
def test_a_path_readable_once_loads_plain_and_other_lines(text):
    # a pipe's path gives its bytes to the first open only: a second read
    # of the path would find no edges
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    try:
        g = load_edge_list(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert g == load_edge_list(io.StringIO(text))
    assert g.num_edges == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n2\n"))
    with pytest.raises(EdgeListParseError, match="line 3"):
        load_edge_list(io.StringIO("0 1\n1 2\nfoo bar\n"))
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_edge_list(io.StringIO("0 1\n"), one_indexed=True)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("% nothing\n"))
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("3 3\n"))  # only a self-loop
    with pytest.raises(EmptyGraphError):
        Graph.from_edges(2, [(0, 0), (1, 1)])


def test_average_degree_is_capped_at_the_complete_graph():
    assert erdos_renyi_average_degree(6, 5.0, seed=0).num_edges == 15
    with pytest.raises(ValueError, match="exceeds n - 1 = 5"):
        erdos_renyi_average_degree(6, 5.5, seed=0)


def test_label_compaction_keeps_order():
    g = load_edge_list(io.StringIO("10 30\n30 20\n"))
    assert g.labels.tolist() == [10, 20, 30]
    # compacted ids follow sorted label order: 10->0, 20->1, 30->2
    assert g.edge_ids([0, 1, 0], [2, 2, 1]).tolist() == [0, 1, -1]


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(m):
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_degrees():
    k4 = complete_graph(4)
    assert k4.degrees.tolist() == [3, 3, 3, 3]
    assert star_graph(5).degrees.tolist() == [5, 1, 1, 1, 1, 1]
    p4 = path_graph(4)
    assert p4.degrees.tolist() == [1, 2, 2, 1]
    assert p4.degrees.dtype == np.int64


def test_edge_ids_cover_range_and_lookup_agrees():
    g = complete_graph(5)
    assert g.edge_ids(g.edge_u, g.edge_v).tolist() == list(range(g.num_edges))
    assert g.edge_ids(g.edge_v, g.edge_u).tolist() == list(range(g.num_edges))
    assert path_graph(3).edge_ids(0, 2) == -1


def test_edge_ids_on_mixed_present_reversed_and_absent_pairs():
    g = path_graph(5)  # edges 0-1, 1-2, 2-3, 3-4
    u = [0, 2, 4, 0, 3, 2, 0, 4]
    v = [1, 1, 3, 4, 1, 2, 0, 0]
    assert g.edge_ids(u, v).tolist() == [0, 1, 3, -1, -1, -1, -1, -1]
    assert g.edge_ids(np.array([[1, 3]]), np.array([[2, 2]])).tolist() == [[1, 2]]
    assert g.edge_ids([], []).tolist() == []
    for u, v in ((0, 7), (-1, 6)):  # keys 7 and 1, those of edges 1-2 and 0-1
        with pytest.raises(ValueError, match="outside"):
            g.edge_ids([u], [v])


def test_neighbors_sorted_and_readonly():
    g = Graph.from_edges(4, [(2, 0), (3, 0), (1, 0), (3, 1)])
    adj = g.adjacency
    assert adj.indices[adj.indptr[0] : adj.indptr[1]].tolist() == [1, 2, 3]
    assert adj.indices[adj.indptr[3] : adj.indptr[4]].tolist() == [0, 1]
    assert (adj != adj.T).nnz == 0 and adj.data.tolist() == [1.0] * 8
    # each stored entry's edge id leads back to its own endpoints
    rows = np.repeat(np.arange(4), np.diff(adj.indptr))
    assert g.edge_ids(rows, adj.indices).tolist() == g.slot_edge.tolist()
    for arr in (adj.data, adj.indices, adj.indptr, g.slot_edge, g.edge_keys, g.edge_u, g.labels):
        with pytest.raises(ValueError):
            arr[0] = 9


@pytest.mark.parametrize(
    "u, v, message",
    [
        ([0, 0, 1], [1, 1, 2], "distinct"),  # a duplicate edge
        ([0, 1, 0], [1, 2, 2], "ascending"),  # canonical, out of order
        ([0, 2], [1, 1], "u < v"),  # a reversed edge
        ([0, 1], [1, 1], "u < v"),  # a self-loop
    ],
)
def test_constructor_enforces_the_canonical_edge_order(u, v, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, np.array(u), np.array(v))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Graph(0, np.array([0]), np.array([1])), ValueError, "at least one node"),
        (lambda: Graph(3, np.array([0, 1]), np.array([1])), ValueError, "equal length"),
        (lambda: Graph(3, np.array([0]), np.array([3])), ValueError, "outside"),
        (lambda: Graph(3, np.array([-1]), np.array([1])), ValueError, "outside"),
        (lambda: Graph(3, np.array([0]), np.array([1]), labels=np.arange(2)), ValueError, "one entry per node"),
        (lambda: Graph.from_edges(3, []), EmptyGraphError, "M=0"),
        (lambda: Graph.from_edges(3, [(0, 3)]), ValueError, "outside"),
        (lambda: Graph.from_edges(3, [(-1, 2)]), ValueError, "outside"),
    ],
)
def test_invalid_graph_input_is_rejected(build, error, message):
    # the canonical-order checks (u < v, distinct, ascending) are tested above
    with pytest.raises(error, match=message):
        build()


def test_equality_compares_nodes_edges_and_labels():
    a, b = path_graph(4), path_graph(4)
    assert a == b and a is not b
    assert a != star_graph(3)
    assert a != Graph(4, a.edge_u, a.edge_v, labels=np.arange(4) + 1)
    assert a != Graph(5, a.edge_u, a.edge_v)
    assert a.__eq__("a graph") is NotImplemented


def test_a_graph_equals_itself_without_comparing_arrays(monkeypatch):
    g = erdos_renyi_average_degree(50, 5, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("np.array_equal called")

    monkeypatch.setattr(np, "array_equal", refuse)
    assert g == g and not g != g
    with pytest.raises(AssertionError, match="array_equal"):
        g == erdos_renyi_average_degree(50, 5, seed=3)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible)))
    return n, edges


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_serialization_round_trip(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    # isolated nodes as self-loop lines, which the loader keeps as nodes only
    lab = g.labels.tolist()
    lines = [f"{lab[u]} {lab[v]}\n" for u, v in g.edges()]
    lines += [f"{lab[u]} {lab[u]}\n" for u in np.flatnonzero(g.degrees == 0)]
    g2 = load_edge_list(io.StringIO("".join(lines)))
    assert g2 == g


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_degree_sums_to_twice_edges(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    assert int(g.degrees.sum()) == 2 * g.num_edges


def load_outcome(load):
    """The graph a load returns, or the type and text of what it raises."""
    try:
        return load()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_PLAIN_LABELS = st.integers(-(10**18) + 1, 10**18 - 1)
# lines the bulk parse must leave to the line loop
_ODD_LINES = ["% comment\n", "# comment\n", "\n", "  \t\n", "1 2 3\n", "4\n", "+5 6\n", "1_0 2\n", "--3 4\n",
              "- 4\n", "5-6 7\n", "9223372036854775808 1\n", "1234567890123456789 2\n", "0 1\r\n", "0x1 2\n",
              "١ 2\n", "7 8 9.5\n"]


@st.composite
def edge_list_texts(draw):
    lines = []
    for u, v in draw(st.lists(st.tuples(_PLAIN_LABELS | st.integers(-3, 9), st.integers(-3, 9)), max_size=8)):
        lead, gap, tail = (draw(st.sampled_from(["", " ", "\t", " \t "])) for _ in range(3))
        lines.append(f"{lead}{u}{gap or ' '}{v}{tail}\n")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
    text = "".join(lines)
    return text[:-1] if text and draw(st.booleans()) else text  # with or without a last newline


@settings(max_examples=200, deadline=None)
@given(edge_list_texts(), st.booleans(), st.booleans())
def test_a_file_loads_as_its_lines_do(tmp_path_factory, text, one_indexed, skip_header):
    # a path takes the bulk parse where it can; an open file always goes
    # line by line: graphs, error types and texts must agree
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_text(text, encoding="utf-8")
    options = {"one_indexed": one_indexed, "skip_header": skip_header}
    bulk = load_outcome(lambda: load_edge_list(path, **options))
    with open(path, encoding="utf-8-sig") as fh:
        lines = load_outcome(lambda: load_edge_list(fh, **options))
    assert bulk == lines


@pytest.mark.parametrize(
    "text",
    ["1 2 3\n4\n", "4\n1 2 3\n", "1\n2 3 4\n0 1\n", "- 4\n0 1\n", "0 1\n-\t4", "0 1\n\n2 3\n", "0 1 \n2"],
)
def test_lines_of_other_token_counts_load_as_their_lines_do(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with open(path) as fh:
        assert load_outcome(lambda: load_edge_list(path)) == load_outcome(lambda: load_edge_list(fh))


@pytest.mark.parametrize(
    ("text", "options", "message"),
    [
        ("0 1\n2\n", {}, "line 2: expected at least 2 tokens, got 1"),
        ("0 1\n1 2\nfoo bar\n", {}, "line 3: malformed integer token"),
        ("0 1\n", {"one_indexed": True}, "line 1: node id 0 invalid in one-indexed input"),
        ("1 2\n-1 3\n", {"one_indexed": True}, "line 2: node id -1 invalid in one-indexed input"),
        ("0 1\n9223372036854775808 1\n", {}, "line 2: node label 9223372036854775808 is outside the int64 range"),
    ],
)
def test_parse_errors_through_a_path_carry_line_numbers(tmp_path, text, options, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(EdgeListParseError) as raised:
        load_edge_list(path, **options)
    assert str(raised.value).startswith(message)


def test_bulk_parse_keeps_labels_signs_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("  -5\t7 \n7 -123456789012345678\n\t0  -5\n")
    g = load_edge_list(path)
    assert g.labels.tolist() == [-123456789012345678, -5, 0, 7]
    assert sorted(g.edges()) == [(0, 3), (1, 2), (1, 3)]
    assert g == load_edge_list(io.StringIO(path.read_text()))


def recipe_arrays(pairs, num_nodes=None):
    """Every array of the graph of ``pairs``, built by a second recipe:
    labels compacted by ``searchsorted`` (dense ids 0..num_nodes-1 when
    ``num_nodes`` is given), the first of each key kept by
    ``np.unique(return_index=True)``, and the CSR from a stable argsort of
    the directed entries by row."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if num_nodes is None:
        labels = np.unique(pairs)
        pairs = np.searchsorted(labels, pairs)
    else:
        labels = np.arange(num_nodes, dtype=np.int64)
    n = len(labels)
    u, v = pairs.min(axis=1), pairs.max(axis=1)
    u, v = u[u != v], v[u != v]
    _, first = np.unique(u * n + v, return_index=True)
    u, v = u[first], v[first]
    order = np.argsort(np.concatenate([v, u]), kind="stable")
    indices = np.concatenate([u, v])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(indices, minlength=n))])
    adj = sp.csr_matrix((np.ones(2 * len(u)), indices, indptr), shape=(n, n))
    return {"edge_u": u, "edge_v": v, "edge_keys": u * n + v, "labels": labels, "slot_edge": order % len(u),
            "data": adj.data, "indices": adj.indices, "indptr": adj.indptr}


def graph_arrays(g):
    adj = g.adjacency
    return {"edge_u": g.edge_u, "edge_v": g.edge_v, "edge_keys": g.edge_keys, "labels": g.labels,
            "slot_edge": g.slot_edge, "data": adj.data, "indices": adj.indices, "indptr": adj.indptr}


@st.composite
def messy_pairs(draw):
    """Distinct int64 labels, some never in a pair (isolated nodes), and
    pairs of their indices with self-loops, duplicates and reversed
    duplicates."""
    # plain labels let a file take the bulk parse; any int64 may send it to the line loop
    int64 = st.integers(-(2**63), 2**63 - 1)
    labels = draw(st.lists(_PLAIN_LABELS | int64, min_size=2, max_size=12, unique=True))
    ids = st.integers(0, len(labels) - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=30))
    pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
    assume(any(a != b for a, b in pairs))
    return labels, draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(messy_pairs())
def test_every_graph_array_equals_the_argsort_recipe(tmp_path_factory, case):
    labels, pairs = case
    labelled = [(labels[a], labels[b]) for a, b in pairs]
    plain = "".join(f"{a} {b}\n" for a, b in labelled)
    folder = tmp_path_factory.mktemp("edges")
    (folder / "plain.txt").write_text(plain)
    (folder / "commented.txt").write_text("# a comment line\n" + plain)
    cases = [
        ("from_edges", Graph.from_edges(len(labels), pairs), recipe_arrays(pairs, num_nodes=len(labels))),
        ("plain file", load_edge_list(folder / "plain.txt"), recipe_arrays(labelled)),
        ("line loop", load_edge_list(folder / "commented.txt"), recipe_arrays(labelled)),
    ]
    for name, g, expected in cases:
        got = graph_arrays(g)
        for key, array in expected.items():
            assert got[key].dtype == array.dtype, (name, key)
            np.testing.assert_array_equal(got[key], array, err_msg=f"{name}: {key}")
