import numpy as np
import pytest

from motifembed.generators import complete_graph, erdos_renyi
from motifembed.matrices import MotifMatrixKind, apply_matrix_kind, build_motif_weight_matrix
from motifembed.operators import KStepOperator, dense_kstep, matvec_kstep
from motifembed.orbits import count_edge_orbits

ALL_KINDS = list(MotifMatrixKind)


def wg_for(g, orbit=1, delta=1):
    return build_motif_weight_matrix(g, count_edge_orbits(g), orbit, delta)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operator_matches_dense(kind, k, seed):
    g = erdos_renyi(40, 0.2, seed=seed)
    wg = wg_for(g, orbit=(seed % 3) + 1)
    op = KStepOperator(wg, kind, k)
    dense = dense_kstep(wg, kind, k)
    scale = max(np.abs(dense).max(), 1.0)

    np.testing.assert_allclose(op.matmat(np.eye(g.num_nodes)), dense, atol=1e-10 * scale)
    rng = np.random.default_rng(seed + 50)
    x = rng.standard_normal(g.num_nodes)
    np.testing.assert_allclose(matvec_kstep(op, x), dense @ x, atol=1e-10 * scale * np.abs(x).max())
    np.testing.assert_allclose(
        op.rmatvec(x), dense.T @ x, atol=1e-10 * scale * np.abs(x).max()
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_step_equals_plain_kind(kind):
    g = erdos_renyi(25, 0.3, seed=4)
    wg = wg_for(g, orbit=2)
    op = KStepOperator(wg, kind, 1)
    plain = apply_matrix_kind(wg, kind).toarray()
    np.testing.assert_allclose(plain, dense_kstep(wg, kind, 1), atol=1e-14)
    x = np.random.default_rng(0).standard_normal(g.num_nodes)
    np.testing.assert_allclose(matvec_kstep(op, x), plain @ x, atol=1e-12 * max(np.abs(plain).max(), 1))


def test_transition_preserves_ones_on_full_support():
    tri = complete_graph(3)
    wg = wg_for(tri, orbit=3)
    for k in (1, 2, 3):
        op = KStepOperator(wg, MotifMatrixKind.TRANSITION, k)
        np.testing.assert_allclose(matvec_kstep(op, np.ones(3)), np.ones(3), atol=1e-14)


def test_triangle_weight_two_step_basis_vector():
    tri = complete_graph(3)
    op = KStepOperator(wg_for(tri, orbit=3), MotifMatrixKind.WEIGHTED_GRAPH, 2)
    np.testing.assert_allclose(matvec_kstep(op, np.eye(3)[0]), [2.0, 1.0, 1.0], atol=1e-14)


def test_transition_transpose_on_triangle():
    tri = complete_graph(3)
    op = KStepOperator(wg_for(tri, orbit=3), MotifMatrixKind.TRANSITION, 1)
    got = op.rmatvec(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, [0.0, 0.5, 0.5], atol=1e-15)


def test_symmetric_kinds_transpose_equals_forward():
    g = erdos_renyi(30, 0.25, seed=6)
    wg = wg_for(g)
    x = np.random.default_rng(1).standard_normal(g.num_nodes)
    for kind in (
        MotifMatrixKind.WEIGHTED_GRAPH,
        MotifMatrixKind.LAPLACIAN,
        MotifMatrixKind.NORMALIZED_LAPLACIAN,
    ):
        op = KStepOperator(wg, kind, 2)
        np.testing.assert_allclose(
            matvec_kstep(op, x), op.rmatvec(x), atol=1e-12
        )


def test_zero_degree_rows_stay_zero_through_steps():
    from motifembed.graph import Graph

    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    wg = wg_for(g, orbit=3)  # node 3 has no triangle mass
    for kind in ALL_KINDS:
        op = KStepOperator(wg, kind, 2)
        dense = op.matmat(np.eye(4))
        np.testing.assert_allclose(dense[3], 0.0, atol=1e-15)


def test_dimension_mismatch_raises():
    op = KStepOperator(wg_for(complete_graph(3), orbit=3), MotifMatrixKind.WEIGHTED_GRAPH, 2)
    with pytest.raises(ValueError):
        op.matvec(np.ones(5))


def test_k_validation():
    with pytest.raises(ValueError, match="k must be"):
        KStepOperator(wg_for(complete_graph(3), orbit=3), MotifMatrixKind.WEIGHTED_GRAPH, 0)


def test_adjoint_round_trip():
    # the two non-symmetric kinds, where matmat and rmatmat differ
    g = erdos_renyi(20, 0.3, seed=8)
    wg = wg_for(g)
    eye = np.eye(g.num_nodes)
    for kind in (MotifMatrixKind.TRANSITION, MotifMatrixKind.RANDOM_WALK_LAPLACIAN):
        op = KStepOperator(wg, kind, 2)
        dense = dense_kstep(wg, kind, 2)
        assert op.shape == dense.shape
        assert np.abs(dense - dense.T).max() > 1e-3
        np.testing.assert_allclose(op.matmat(eye), dense, atol=1e-12)
        np.testing.assert_allclose(op.rmatmat(eye), dense.T, atol=1e-12)
