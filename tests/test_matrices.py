import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from motifembed.generators import complete_graph, erdos_renyi, path_graph, star_graph
from motifembed.graph import Graph
from motifembed.matrices import (
    MotifMatrixKind,
    apply_matrix_kind,
    build_motif_weight_matrix,
    kind_form,
    motif_degrees,
)
from motifembed.orbits import count_edge_orbits

TRIANGLE = complete_graph(3)
TRI_COUNTS = count_edge_orbits(TRIANGLE)


def wg_for(g, orbit, delta=1, counts=None):
    return build_motif_weight_matrix(g, counts or count_edge_orbits(g), orbit, delta)


def test_triangle_o3_equals_adjacency():
    wg = wg_for(TRIANGLE, 3)
    dense = wg.matrix.toarray()
    expect = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_array_equal(dense, expect)
    assert not wg.is_empty


def test_k4_o3_weights_and_delta_threshold():
    k4 = complete_graph(4)
    counts = count_edge_orbits(k4)
    wg = build_motif_weight_matrix(k4, counts, 3, delta=1)
    off = wg.matrix.toarray()[~np.eye(4, dtype=bool)]
    assert np.all(off == 2)
    empty = build_motif_weight_matrix(k4, counts, 3, delta=3)
    assert empty.is_empty
    assert empty.matrix.nnz == 0
    assert empty.matrix.shape == (4, 4)


def test_orbit1_is_binary_adjacency():
    g = erdos_renyi(20, 0.3, seed=1)
    wg = wg_for(g, 1)
    dense = wg.matrix.toarray()
    assert set(np.unique(dense)) <= {0.0, 1.0}
    assert wg.matrix.nnz == 2 * g.num_edges


def test_motif_degrees_examples():
    assert motif_degrees(wg_for(TRIANGLE, 3)).tolist() == [2.0, 2.0, 2.0]
    star = star_graph(3)
    assert motif_degrees(wg_for(star, 6)).tolist() == [3.0, 1.0, 1.0, 1.0]
    k4 = complete_graph(4)
    empty = build_motif_weight_matrix(k4, count_edge_orbits(k4), 3, delta=99)
    assert motif_degrees(empty).tolist() == [0.0] * 4


def test_counts_binding_enforced():
    with pytest.raises(ValueError, match="different graph"):
        build_motif_weight_matrix(path_graph(4), TRI_COUNTS, 1)


def test_delta_validation():
    with pytest.raises(ValueError, match="delta"):
        build_motif_weight_matrix(TRIANGLE, TRI_COUNTS, 1, delta=0)


def test_transition_on_triangle():
    p = apply_matrix_kind(wg_for(TRIANGLE, 3), MotifMatrixKind.TRANSITION).toarray()
    np.testing.assert_allclose(p, (np.ones((3, 3)) - np.eye(3)) / 2)
    np.testing.assert_allclose(p.sum(axis=1), 1.0)


def test_laplacian_on_triangle():
    lap = apply_matrix_kind(wg_for(TRIANGLE, 3), MotifMatrixKind.LAPLACIAN).toarray()
    np.testing.assert_array_equal(np.diag(lap), [2, 2, 2])
    assert np.all(lap[~np.eye(3, dtype=bool)] == -1)
    np.testing.assert_allclose(lap @ np.ones(3), 0.0, atol=1e-12)


def test_normalized_laplacian_diagonal_and_spectrum():
    g = erdos_renyi(40, 0.2, seed=7)
    for orbit in (1, 2, 3):
        wg = wg_for(g, orbit)
        ln = apply_matrix_kind(wg, MotifMatrixKind.NORMALIZED_LAPLACIAN).toarray()
        deg = motif_degrees(wg)
        np.testing.assert_allclose(np.diag(ln)[deg > 0], 1.0)
        np.testing.assert_allclose(np.diag(ln)[deg == 0], 0.0)
        eigs = np.linalg.eigvalsh(ln)
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2 + 1e-9


def test_zero_degree_rows_conventions():
    # triangle plus a pendant edge: orbit O3 leaves node 3 without motif mass
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    wg = wg_for(g, 3)
    assert motif_degrees(wg)[3] == 0
    p = apply_matrix_kind(wg, MotifMatrixKind.TRANSITION).toarray()
    np.testing.assert_array_equal(p[3], 0.0)
    for kind in (MotifMatrixKind.NORMALIZED_LAPLACIAN, MotifMatrixKind.RANDOM_WALK_LAPLACIAN):
        mat = apply_matrix_kind(wg, kind).toarray()
        np.testing.assert_array_equal(mat[3], 0.0)
        assert mat[3, 3] == 0.0


def test_random_walk_laplacian_is_identity_minus_transition():
    g = erdos_renyi(25, 0.3, seed=3)
    wg = wg_for(g, 2)
    p = apply_matrix_kind(wg, MotifMatrixKind.TRANSITION).toarray()
    lrw = apply_matrix_kind(wg, MotifMatrixKind.RANDOM_WALK_LAPLACIAN).toarray()
    nz = motif_degrees(wg) > 0
    np.testing.assert_allclose(lrw, np.diag(nz.astype(float)) - p, atol=1e-15)


def test_density_never_exceeds_adjacency():
    for seed in range(6):
        g = erdos_renyi(30, 0.25, seed=seed)
        counts = count_edge_orbits(g)
        adj_nnz = 2 * g.num_edges
        for orbit in range(1, 14):
            for delta in (1, 2):
                wg = build_motif_weight_matrix(g, counts, orbit, delta)
                assert wg.matrix.nnz <= adj_nnz


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=13))
def test_delta_monotonicity(seed, orbit):
    g = erdos_renyi(18, 0.4, seed=seed)
    counts = count_edge_orbits(g)
    last = None
    for delta in (1, 2, 3, 5):
        nnz = build_motif_weight_matrix(g, counts, orbit, delta).matrix.nnz
        if last is not None:
            assert nnz <= last
        last = nnz


def test_kind_form_leaves_out_absent_terms():
    deg = np.array([2.0, 0.0, 4.0])
    c, a, b = kind_form(deg, MotifMatrixKind.WEIGHTED_GRAPH)
    assert (c, a, b) == (None, None, None)
    c, a, b = kind_form(deg, MotifMatrixKind.TRANSITION)
    assert c is None and b is None
    np.testing.assert_array_equal(a, [0.5, 0.0, 0.25])
    c, a, b = kind_form(deg, MotifMatrixKind.LAPLACIAN)
    assert c is deg and a is None and b is None
    c, a, b = kind_form(deg, MotifMatrixKind.NORMALIZED_LAPLACIAN)
    np.testing.assert_array_equal(c, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(a, [np.sqrt(0.5), 0.0, 0.5])
    assert b is a
    c, a, b = kind_form(deg, MotifMatrixKind.RANDOM_WALK_LAPLACIAN)
    np.testing.assert_array_equal(c, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(a, [0.5, 0.0, 0.25])
    assert b is None


def _coo_build(g, counts, orbit, delta):
    # reference: the weight matrix assembled from the kept edges in COO
    # form; placing the counts on the graph's adjacency must give the same
    # canonical CSR arrays
    col = counts.orbit_column(orbit)
    keep = col >= delta
    u, v, w = g.edge_u[keep], g.edge_v[keep], col[keep].astype(np.float64)
    return sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(g.num_nodes, g.num_nodes),
    ).tocsr()


def test_weight_matrices_equal_the_coo_build_and_leave_the_graph_untouched():
    graphs = [erdos_renyi(40, 0.2, seed=3), star_graph(6), complete_graph(5),
              Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])]  # node 3 isolated
    for g in graphs:
        counts = count_edge_orbits(g)
        adj = g.adjacency
        before = [arr.tobytes() for arr in (adj.data, adj.indices, adj.indptr, g.slot_edge)]
        for delta in (1, 2):
            for orbit in range(1, 14):
                wg = build_motif_weight_matrix(g, counts, orbit, delta)
                ref = _coo_build(g, counts, orbit, delta)
                np.testing.assert_array_equal(wg.matrix.indptr, ref.indptr)
                np.testing.assert_array_equal(wg.matrix.indices, ref.indices)
                np.testing.assert_array_equal(wg.matrix.data, ref.data)
                assert wg.is_empty == (ref.nnz == 0)
        after = [arr.tobytes() for arr in (adj.data, adj.indices, adj.indptr, g.slot_edge)]
        assert after == before


def test_a_matrix_sharing_the_adjacency_index_arrays_cannot_rewrite_them():
    g = erdos_renyi(30, 0.2, seed=1)
    adj = g.adjacency
    data = np.ones(adj.nnz)
    data[::2] = 0.0
    shared = sp.csr_matrix((data, adj.indices, adj.indptr), shape=adj.shape)
    with pytest.raises(ValueError):
        shared.eliminate_zeros()
    assert adj.nnz == 2 * g.num_edges
    np.testing.assert_array_equal(np.diff(adj.indptr), g.degrees)
