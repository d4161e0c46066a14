import numpy as np
import pytest
import scipy.sparse as sp

from motifembed import factorize
from motifembed.factorize import (
    CcdOptions,
    FactorizeConfig,
    ccd_factorize,
    exact_factorize,
    normalize_columns,
    randomized_low_rank,
)
from motifembed.generators import erdos_renyi, two_block_sbm
from motifembed.matrices import MotifMatrixKind, build_motif_weight_matrix
from motifembed.operators import KStepOperator, dense_kstep
from motifembed.orbits import count_edge_orbits
from motifembed.pipeline import PipelineConfig, embed_graph


def test_normalize_columns_examples():
    m = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
    out = normalize_columns(m)
    np.testing.assert_allclose(out[:, 0], [0.6, 0.8, 0.0])
    np.testing.assert_array_equal(out[:, 1], 0.0)


def test_normalize_columns_idempotent_and_argmax_preserving():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 8))
    once = normalize_columns(m)
    np.testing.assert_allclose(normalize_columns(once), once, atol=1e-15)
    np.testing.assert_array_equal(np.argmax(np.abs(once), axis=0), np.argmax(np.abs(m), axis=0))
    np.testing.assert_allclose(np.linalg.norm(once, axis=0), 1.0)


def relative_residual(matrix, factors):
    return np.linalg.norm(matrix - factors.U @ factors.V) / np.linalg.norm(matrix)


def test_rsvd_exact_rank_one():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(80)
    s = np.outer(a, a)
    out = randomized_low_rank(s, FactorizeConfig(rank=2, seed=1))
    assert out.achieved_rank == 1
    assert relative_residual(s, out) <= 1e-8
    # the dropped direction is explicitly zeroed
    np.testing.assert_array_equal(out.U[:, 1], 0.0)
    np.testing.assert_array_equal(out.V[1, :], 0.0)


def test_rsvd_exact_rank_d_recovery():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((150, 8)) @ rng.standard_normal((8, 150))
    out = randomized_low_rank(s, FactorizeConfig(rank=8, seed=2))
    assert out.achieved_rank == 8
    assert relative_residual(s, out) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_rsvd_near_optimal_on_random_motif_matrices(seed):
    g = erdos_renyi(90, 0.15, seed=seed)
    wg = build_motif_weight_matrix(g, count_edge_orbits(g), orbit=(seed % 3) + 1)
    dense = wg.matrix.toarray()
    cfg = FactorizeConfig(rank=8, seed=seed)
    out = randomized_low_rank(dense, cfg)
    sing = np.linalg.svd(dense, compute_uv=False)
    norm = np.linalg.norm(dense)
    optimum = np.sqrt(max((sing[8:] ** 2).sum(), 0.0)) / norm if norm > 0 else 0.0
    achieved = relative_residual(dense, out) if norm > 0 else 0.0
    assert achieved <= 1.5 * optimum + 1e-12


def test_rsvd_operator_input_matches_dense_route():
    g = erdos_renyi(60, 0.2, seed=5)
    wg = build_motif_weight_matrix(g, count_edge_orbits(g), orbit=1)
    op = KStepOperator(wg, MotifMatrixKind.TRANSITION, 2)
    cfg = FactorizeConfig(rank=6, seed=7)
    from_op = randomized_low_rank(op, cfg)
    from_dense = randomized_low_rank(dense_kstep(wg, MotifMatrixKind.TRANSITION, 2), cfg)
    np.testing.assert_allclose(from_op.U, from_dense.U, atol=1e-9)
    np.testing.assert_allclose(from_op.V, from_dense.V, atol=1e-9)


class _ProductsOnly:
    """An operator that offers nothing but its shape and its two products."""

    def __init__(self, a):
        self.shape = a.shape
        self.matmat = a.__matmul__
        self.rmatmat = a.T.__matmul__


def test_rsvd_takes_arrays_sparse_matrices_and_product_objects():
    # one nonzero per row and per column: every product entry is a single
    # rounded multiplication, so dense and sparse products agree bit for bit
    rng = np.random.default_rng(12)
    rows = rng.permutation(40)[:30]
    dense = np.zeros((40, 30))
    dense[rows, np.arange(30)] = rng.standard_normal(30) * np.linspace(1, 10, 30)
    cfg = FactorizeConfig(rank=6, seed=3)
    outs = [randomized_low_rank(a, cfg) for a in (dense, sp.csr_matrix(dense), _ProductsOnly(dense))]
    assert outs[0].achieved_rank == 6
    for out in outs[1:]:
        assert out.U.tobytes() == outs[0].U.tobytes() and out.V.tobytes() == outs[0].V.tobytes()


def test_rsvd_determinism():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((70, 70))
    cfg = FactorizeConfig(rank=5, seed=42)
    a = randomized_low_rank(s, cfg)
    b = randomized_low_rank(s, cfg)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


def test_rsvd_oversized_request_returns_rank_components():
    # a 10x7 matrix supports 7 components; the draw is capped there
    a = np.random.default_rng(8).standard_normal((10, 7))
    res = randomized_low_rank(a, FactorizeConfig(rank=12, oversample=10))
    assert res.U.shape == (10, 12) and res.V.shape == (12, 7)
    assert res.achieved_rank == 7
    assert not res.U[:, 7:].any() and not res.V[7:].any()
    assert np.linalg.norm(res.U[:, :7], axis=0).min() > 0
    assert relative_residual(a, res) <= 1e-12
    # rank + oversample past min(shape) at a rank the input supports: all 8 come back
    eye = randomized_low_rank(np.eye(10), FactorizeConfig(rank=8, oversample=10))
    assert eye.U.shape == (10, 8) and eye.achieved_rank == 8


def _symmetric_with_gap(size, seed):
    # eigenvalues ±0.7^i in random signs: the top 6 |λ| are well apart from the 7th
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((size, size)))
    lam = 0.7 ** np.arange(size) * rng.choice([-1.0, 1.0], size)
    return (basis * lam) @ basis.T


def test_rsvd_on_a_support_of_every_node_is_the_plain_call():
    a = _symmetric_with_gap(40, seed=50)
    cfg = FactorizeConfig(rank=6, seed=9)
    for operator in (a, sp.csr_matrix(a)):
        plain = randomized_low_rank(operator, cfg)
        on_all = randomized_low_rank(operator, cfg, support=(40, np.arange(40)))
        assert on_all.U.tobytes() == plain.U.tobytes() and on_all.V.tobytes() == plain.V.tobytes()
        assert on_all.achieved_rank == plain.achieved_rank == 6


@pytest.mark.parametrize("size", [30, 8])  # a draw of 16, and one capped at the support
def test_rsvd_on_a_support_factorizes_the_zero_padded_matrix(size, householder_calls):
    n = 50
    rows = np.sort(np.random.default_rng(size).choice(n, size, replace=False))
    block = _symmetric_with_gap(size, seed=51)
    padded = np.zeros((n, n))
    padded[np.ix_(rows, rows)] = block
    cfg = FactorizeConfig(rank=6, oversample=10, seed=4)
    householder_calls.clear()  # the QR that built the block
    full = randomized_low_rank(padded, cfg)
    # the padded 8-node matrix gives rank-deficient 16-column panels
    assert bool(householder_calls) == (size < 16)
    householder_calls.clear()
    out = randomized_low_rank(block, cfg, support=(n, rows))
    assert householder_calls == []
    assert out.U.shape == (n, 6) and out.V.shape == (6, n)
    outside = np.setdiff1d(np.arange(n), rows)
    assert not out.U[outside].any() and not out.V[:, outside].any()
    assert out.achieved_rank == full.achieved_rank == 6
    np.testing.assert_allclose(out.U[rows], full.U[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.V[:, rows], full.V[:, rows], rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="support nodes"):
        randomized_low_rank(block, cfg, support=(n, rows[1:]))


def _panel_with_spectrum(singular_values, rows, seed, cols=None):
    """A rows × cols matrix (cols defaults to the rank) with these singular values."""
    rng = np.random.default_rng(seed)
    cols = singular_values.size if cols is None else cols
    # orthonormal factors from an SVD, so that no Householder QR is counted
    left = np.linalg.svd(rng.standard_normal((rows, singular_values.size)), full_matrices=False)[0]
    right = np.linalg.svd(rng.standard_normal((cols, singular_values.size)), full_matrices=False)[0]
    return (left * singular_values) @ right.T


def _range_orthonormalized_twice_per_iteration(a, cfg):
    """The top-``cfg.rank`` left singular basis of the range finder that
    orthonormalizes both halves of each power iteration (Householder QR),
    from the same test block as ``randomized_low_rank``."""
    draw = min(cfg.rank + cfg.oversample, *a.shape)
    test = np.random.default_rng(cfg.seed).random((a.shape[1], draw)) * 2.0 - 1.0
    sample = a @ test
    for _ in range(cfg.power_iters):
        z = np.linalg.qr(a.T @ np.linalg.qr(sample)[0])[0]
        sample = a @ z
    q = np.linalg.qr(sample)[0]
    return q @ np.linalg.svd(q.T @ a)[0][:, : cfg.rank]


@pytest.mark.parametrize(
    "a",
    [
        _symmetric_with_gap(120, seed=52),
        _panel_with_spectrum(0.7 ** np.arange(60), 150, seed=53, cols=90),
    ],
    ids=["symmetric", "nonsymmetric"],
)
@pytest.mark.parametrize("power_iters", [1, 2, 3])
def test_rsvd_range_matches_two_orthonormalizations_per_iteration(a, power_iters):
    cfg = FactorizeConfig(rank=6, power_iters=power_iters, seed=5)
    out = randomized_low_rank(a, cfg)
    reference = _range_orthonormalized_twice_per_iteration(a, cfg)
    basis = np.linalg.qr(out.U)[0]
    # the sine of the largest principal angle between the two ranges
    assert np.linalg.norm(basis - reference @ (reference.T @ basis), 2) <= 1e-10


@pytest.mark.parametrize("smallest", [1e-4, 1e-8, 1e-10, 1e-12])
def test_rsvd_recovers_a_rank_16_matrix_with_a_wide_spectrum(smallest):
    a = _panel_with_spectrum(np.logspace(0, np.log10(smallest), 16), 300, seed=54, cols=300)
    out = randomized_low_rank(a, FactorizeConfig(rank=16, seed=6))
    assert out.achieved_rank == 16
    assert relative_residual(a, out) <= 1e-12


def test_rsvd_reports_the_rank_of_a_rank_5_matrix():
    a = _panel_with_spectrum(np.linspace(3.0, 1.0, 5), 300, seed=55, cols=300)
    out = randomized_low_rank(a, FactorizeConfig(rank=16, seed=6))
    assert out.achieved_rank == 5
    assert not out.U[:, 5:].any() and not out.V[5:].any()
    assert relative_residual(a, out) <= 1e-12


@pytest.fixture
def householder_calls(monkeypatch):
    """Shapes of the panels passed to Householder QR while the test runs."""
    calls = []
    original = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


def test_orthonormalize_well_conditioned_panel(householder_calls):
    a = np.random.default_rng(30).standard_normal((2000, 26))
    q, r = factorize._orthonormalize(a, passes=2)
    assert householder_calls == []
    assert np.abs(q.T @ q - np.eye(26)).max() <= 1e-12
    assert np.array_equal(r, np.triu(r))
    np.testing.assert_allclose(q @ r, a, rtol=0, atol=1e-12 * np.abs(a).max())


@pytest.mark.parametrize(
    "a",
    [
        np.random.default_rng(31).standard_normal((300, 4))
        @ np.random.default_rng(32).standard_normal((4, 26)),  # rank 4 of 26
        _panel_with_spectrum(np.logspace(0, -10, 26), 300, seed=33),  # cond 1e10
    ],
    ids=["rank_deficient", "cond_1e10"],
)
def test_orthonormalize_falls_back_to_householder(a, householder_calls):
    q, r = factorize._orthonormalize(a, passes=2)
    assert householder_calls == [a.shape]
    assert np.abs(q.T @ q - np.eye(26)).max() <= 1e-12
    # q spans the panel's columns: projecting onto it loses nothing
    assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-12 * np.linalg.norm(a)
    np.testing.assert_allclose(q @ r, a, rtol=0, atol=1e-12 * np.abs(a).max())


def test_orthonormalize_falls_back_when_the_first_pass_drifts(monkeypatch, householder_calls):
    # cond 1e6: Cholesky succeeds, and the first pass's QᵀQ is off I by ~1e-5
    a = _panel_with_spectrum(np.logspace(0, -6, 26), 300, seed=34)
    factorize._orthonormalize(a, passes=2)
    assert householder_calls == []
    monkeypatch.setattr(factorize, "_MAX_GRAM_DRIFT", 1e-9)
    q, _ = factorize._orthonormalize(a, passes=2)
    assert householder_calls == [a.shape]
    assert np.abs(q.T @ q - np.eye(26)).max() <= 1e-12


def test_rsvd_takes_no_householder_fallback_on_the_sbm(householder_calls):
    # criterion 7's SBM, orbit 1, at the pipeline's block shape (rank 16 + 10)
    sbm, _ = two_block_sbm(200, 0.15, 0.01, seed=1)
    embed_graph(sbm, PipelineConfig(orbits=(1,), max_steps=2))
    assert householder_calls == []


@pytest.mark.parametrize("seed", range(3))
def test_rsvd_sign_rule(seed):
    rng = np.random.default_rng(40 + seed)
    s = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 50))
    s += rng.standard_normal((60, 50)) * 1e-3
    out = randomized_low_rank(s, FactorizeConfig(rank=6, seed=seed))
    pivots = np.abs(out.V).argmax(axis=1)
    assert (out.V[np.arange(6), pivots] > 0).all()


def test_ccd_zero_matrix():
    out = ccd_factorize(np.zeros((12, 9)), FactorizeConfig(rank=3, seed=0))
    np.testing.assert_array_equal(out.U, 0.0)
    np.testing.assert_array_equal(out.V, 0.0)
    assert out.objective_path[0] == 0.0
    assert out.achieved_rank == 0


def test_ccd_zero_matrix_without_regularization():
    cfg = FactorizeConfig(rank=3, seed=0, ccd=CcdOptions(reg=0.0))
    out = ccd_factorize(np.zeros((12, 9)), cfg)
    np.testing.assert_array_equal(out.U, 0.0)
    assert out.objective_path[0] == 0.0


def test_ccd_rank_one_exact():
    rng = np.random.default_rng(8)
    s = np.outer(rng.standard_normal(40), rng.standard_normal(25))
    cfg = FactorizeConfig(rank=1, seed=3, ccd=CcdOptions(reg=0.0))
    out = ccd_factorize(s, cfg)
    assert out.residual <= 1e-6


def test_ccd_objective_monotone():
    rng = np.random.default_rng(9)
    s = rng.standard_normal((50, 50))
    out = ccd_factorize(s, FactorizeConfig(rank=6, seed=1))
    path = out.objective_path
    assert len(path) >= 2
    for before, after in zip(path, path[1:]):
        assert after <= before * (1 + 1e-12) + 1e-15


def test_ccd_objective_value_matches_recomputation():
    rng = np.random.default_rng(10)
    s = rng.standard_normal((30, 20))
    cfg = FactorizeConfig(rank=4, seed=2)
    out = ccd_factorize(s, cfg)
    reg = cfg.ccd.reg
    expect = 0.5 * np.linalg.norm(s - out.U @ out.V) ** 2 + reg * (
        np.linalg.norm(out.U) ** 2 + np.linalg.norm(out.V) ** 2
    )
    np.testing.assert_allclose(out.objective_path[-1], expect, rtol=1e-10)


def test_ccd_determinism():
    rng = np.random.default_rng(12)
    s = rng.standard_normal((25, 25))
    cfg = FactorizeConfig(rank=4, seed=9)
    a = ccd_factorize(s, cfg)
    b = ccd_factorize(s, cfg)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    assert a.objective_path == b.objective_path


def test_ccd_residual_invariant_under_row_permutation():
    # coordinate descent starts from row-indexed random factors, so only the
    # reached quality is comparable, not the iterates
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(25, 12)))
    v, _ = np.linalg.qr(rng.normal(size=(18, 12)))
    y = u @ np.diag(0.6 ** np.arange(12)) @ v.T
    perm = np.random.default_rng(9).permutation(y.shape[0])
    cfg = FactorizeConfig(rank=6, seed=3)
    c1 = ccd_factorize(y, cfg).residual
    c2 = ccd_factorize(y[perm], cfg).residual
    assert abs(c1 - c2) <= 0.15 * max(c1, c2)


def test_ccd_sparse_input():
    import scipy.sparse as sp

    rng = np.random.default_rng(13)
    dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.2)
    out_sparse = ccd_factorize(sp.csr_matrix(dense), FactorizeConfig(rank=5, seed=4))
    out_dense = ccd_factorize(dense, FactorizeConfig(rank=5, seed=4))
    np.testing.assert_allclose(out_sparse.U, out_dense.U, atol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        FactorizeConfig(rank=0)
    with pytest.raises(ValueError):
        FactorizeConfig(rank=2, oversample=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        FactorizeConfig(seed=-1)
    with pytest.raises(ValueError):
        CcdOptions(reg=-1.0)
    with pytest.raises(ValueError):
        CcdOptions(max_sweeps=0)


# ------------------------------------------------------- exact fusion solver


def _svd_optimum(y, rank, reg):
    """½‖Y − UV‖² + reg(‖U‖² + ‖V‖²) at the soft-thresholded thin SVD."""
    a, s, bt = np.linalg.svd(y, full_matrices=False)
    root = np.sqrt(np.maximum(s[:rank] - 2.0 * reg, 0.0))
    return _objective(y, a[:, :rank] * root, root[:, None] * bt[:rank], reg)


def _objective(y, u, v, reg):
    return 0.5 * np.linalg.norm(y - u @ v) ** 2 + reg * (
        np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2
    )


# a smaller side of 25 takes the Gram's whole spectrum (4·7 > 25), one of 40
# its top-7 index subset (4·7 <= 40)
@pytest.mark.parametrize("shape", [(60, 25), (25, 60), (60, 40), (40, 60)])
@pytest.mark.parametrize("reg", [0.0, 1e-4, 0.5])
def test_exact_matches_svd_optimum(shape, reg):
    y = np.random.default_rng(20).standard_normal(shape)
    cfg = FactorizeConfig(rank=7, ccd=CcdOptions(reg=reg))
    out = exact_factorize(y, cfg)
    optimum = _svd_optimum(y, 7, reg)
    assert out.U.shape == (shape[0], 7) and out.V.shape == (7, shape[1])
    np.testing.assert_allclose(out.objective_path, (optimum,), rtol=1e-10)
    np.testing.assert_allclose(_objective(y, out.U, out.V, reg), optimum, rtol=1e-10)
    residual = np.linalg.norm(y - out.U @ out.V) / np.linalg.norm(y)
    np.testing.assert_allclose(out.residual, residual, rtol=1e-8)
    assert out.converged is True and out.achieved_rank == 7
    # the regularizer splits each kept component evenly: ‖U col‖ = ‖V row‖
    np.testing.assert_allclose(np.linalg.norm(out.U, axis=0), np.linalg.norm(out.V, axis=1))


@pytest.mark.parametrize("shape", [(12, 5), (5, 12)])
def test_exact_pads_rank_beyond_min_shape(shape):
    y = np.random.default_rng(21).standard_normal(shape)
    out = exact_factorize(y, FactorizeConfig(rank=9))
    assert out.U.shape == (shape[0], 9) and out.V.shape == (9, shape[1])
    assert out.achieved_rank == 5
    np.testing.assert_array_equal(out.U[:, 5:], 0.0)
    np.testing.assert_array_equal(out.V[5:], 0.0)
    np.testing.assert_allclose(out.objective_path[0], _svd_optimum(y, 9, 1e-4), rtol=1e-10)


def test_exact_zero_matrix():
    out = exact_factorize(np.zeros((12, 9)), FactorizeConfig(rank=3))
    np.testing.assert_array_equal(out.U, 0.0)
    np.testing.assert_array_equal(out.V, 0.0)
    assert out.objective_path == (0.0,) and out.residual == 0.0
    assert out.achieved_rank == 0


def test_exact_large_reg_zeroes_every_component():
    y = np.random.default_rng(22).standard_normal((30, 20))
    reg = np.linalg.norm(y, 2)  # 2·reg is above the largest singular value
    out = exact_factorize(y, FactorizeConfig(rank=4, ccd=CcdOptions(reg=reg)))
    np.testing.assert_array_equal(out.U, 0.0)
    np.testing.assert_array_equal(out.V, 0.0)
    assert out.achieved_rank == 0
    np.testing.assert_allclose(out.objective_path[0], 0.5 * np.linalg.norm(y) ** 2, rtol=1e-12)
    assert out.residual == pytest.approx(1.0)


def test_exact_is_deterministic_and_accepts_sparse_input():
    import scipy.sparse as sp

    rng = np.random.default_rng(23)
    y = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3)
    cfg = FactorizeConfig(rank=6)
    a = exact_factorize(y, cfg)
    b = exact_factorize(y, cfg)
    assert a.U.tobytes() == b.U.tobytes() and a.V.tobytes() == b.V.tobytes()
    c = exact_factorize(sp.csr_matrix(y), cfg)
    np.testing.assert_allclose(c.U, a.U, atol=1e-12)


@pytest.mark.parametrize("shape", [(50, 20), (20, 50)])
def test_exact_sign_rule_survives_column_permutation(shape):
    """Permuting Y's columns permutes the Gram matrix (or leaves Y Yᵀ as is);
    the sign rule picks the same signs, so the factors only move columns."""
    y = np.random.default_rng(24).standard_normal(shape)
    perm = np.random.default_rng(25).permutation(shape[1])
    cfg = FactorizeConfig(rank=5)
    base = exact_factorize(y, cfg)
    moved = exact_factorize(y[:, perm], cfg)
    np.testing.assert_allclose(moved.U, base.U, atol=1e-10)
    np.testing.assert_allclose(moved.V, base.V[:, perm], atol=1e-10)
    pivots = np.abs(base.V).argmax(axis=1)
    assert (base.V[np.arange(5), pivots] > 0).all()


def test_ccd_approaches_the_exact_optimum():
    y = np.random.default_rng(26).standard_normal((40, 30))
    cfg = FactorizeConfig(rank=4, seed=1)
    optimum = exact_factorize(y, cfg).objective_path[0]
    gaps = []
    for sweeps in (2, 20, 100, 400):
        ccd = CcdOptions(reg=cfg.ccd.reg, max_sweeps=sweeps, tol=0.0)
        final = ccd_factorize(y, FactorizeConfig(rank=4, seed=1, ccd=ccd)).objective_path[-1]
        gaps.append((final - optimum) / optimum)
    assert min(gaps) >= -1e-12  # never below the optimum
    assert gaps == sorted(gaps, reverse=True)
    # the last stretch is slow: U/V balance is pulled in only at rate ~reg
    assert gaps[-1] <= 1e-4 and gaps[0] >= 100 * gaps[-1]


def test_ccd_reports_its_sweep_cap(caplog):
    y = np.random.default_rng(27).standard_normal((20, 15))
    with caplog.at_level("WARNING", logger="motifembed.factorize"):
        capped = ccd_factorize(y, FactorizeConfig(rank=3, ccd=CcdOptions(max_sweeps=2, tol=0.0)))
    assert capped.converged is False
    assert "sweep cap" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="motifembed.factorize"):
        done = ccd_factorize(np.zeros((6, 5)), FactorizeConfig(rank=2))
    assert done.converged is True and not caplog.text
