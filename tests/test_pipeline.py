import re
from dataclasses import replace

import numpy as np
import pytest

from motifembed.factorize import CcdOptions, FactorizeConfig, normalize_columns, randomized_low_rank
from motifembed.generators import complete_graph, erdos_renyi
from motifembed.graph import Graph
from motifembed.matrices import MotifMatrixKind, build_motif_weight_matrix
from motifembed.operators import KStepOperator, dense_kstep
from motifembed.orbits import NUM_ORBITS, count_edge_orbits, node_motif_features
from motifembed import pipeline
from motifembed.pipeline import (
    Block,
    ConcatenatedEmbeddings,
    DiffusionConfig,
    DiffusionVariant,
    PipelineConfig,
    _block_seed,
    diffuse_attributes,
    embed_graph,
    global_embedding,
    local_embeddings,
    orbit_weights,
)

TRIANGLE = complete_graph(3)


def wrap(matrix):
    return ConcatenatedEmbeddings(matrix, (Block(1, 1, slice(0, matrix.shape[1])),))


def local_of(g, counts, cfg):
    return local_embeddings(g, orbit_weights(g, counts, cfg), cfg)


def diffused(g, counts, x, cfg):
    return diffuse_attributes(g, orbit_weights(g, counts, cfg), x, cfg)


def spectrum_matrix(rows=25, cols=18, rank=12, seed=5):
    # geometric singular values keep the leading subspaces well separated
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(rows, rank)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rank)))
    return u @ np.diag(0.6 ** np.arange(rank)) @ v.T


# ---------------------------------------------------------------- layout


def test_block_layout_is_k_major_and_full_width():
    g = erdos_renyi(30, 0.3, seed=1)
    cfg = PipelineConfig(max_steps=2, local_rank=16, kind=MotifMatrixKind.NORMALIZED_LAPLACIAN)
    counts = count_edge_orbits(g)
    local = local_of(g, counts, cfg)
    assert local.matrix.shape == (30, 13 * 2 * 16)
    assert local.matrix.flags.f_contiguous and not local.matrix.flags.writeable
    expected_order = [(k, t) for k in (1, 2) for t in range(1, NUM_ORBITS + 1)]
    assert [(b.k, b.orbit) for b in local] == expected_order
    assert [b.columns for b in local] == [slice(16 * i, 16 * (i + 1)) for i in range(26)]
    # kind w has the one-step blocks only, at every step count
    local = local_of(g, counts, replace(cfg, kind=MotifMatrixKind.WEIGHTED_GRAPH))
    assert local.matrix.shape == (30, 13 * 16)
    assert local.matrix.flags.f_contiguous and not local.matrix.flags.writeable
    assert [(b.k, b.orbit) for b in local] == [(1, t) for t in range(1, NUM_ORBITS + 1)]
    assert [b.columns for b in local] == [slice(16 * i, 16 * (i + 1)) for i in range(13)]


def test_attributes_appended_last():
    g = erdos_renyi(20, 0.3, seed=2)
    cfg = PipelineConfig(max_steps=2, local_rank=16, diffusion=DiffusionConfig(DiffusionVariant.LINEAR))
    counts = count_edge_orbits(g)
    y = embed_graph(g, cfg).concatenated
    # kind w fuses its 13 one-step blocks scaled by sqrt(max_steps)
    assert y.matrix.shape[1] == 208 + 13 * 52
    assert y.blocks[-1] == Block(None, None, slice(208, 208 + 13 * 52))
    np.testing.assert_array_equal(y.matrix[:, :208], np.sqrt(2.0) * local_of(g, counts, cfg).matrix)
    attrs = diffused(g, counts, node_motif_features(g, counts), cfg)
    np.testing.assert_array_equal(y.matrix[:, 208:], attrs)


def test_empty_orbits_give_flagged_zero_blocks_of_full_width():
    # a triangle has no wedges and no 4-node motifs: only orbits 1 and 3 carry weight
    counts = count_edge_orbits(TRIANGLE)
    cfg = PipelineConfig(max_steps=1, local_rank=4)
    local = local_of(TRIANGLE, counts, cfg)
    flags = {b.orbit: b.is_zero for b in local}
    assert flags[1] is False and flags[3] is False
    assert all(flags[t] for t in range(1, 14) if t not in (1, 3))
    assert local.matrix.shape == (3, 13 * 4)
    for b in local:
        u = local.matrix[:, b.columns]
        assert u.shape == (3, 4)
        # three nodes give at most rank 3: the fourth column stays zero
        assert not u[:, 3].any()
        assert u.any() != b.is_zero


@pytest.mark.parametrize("n, local_rank", [(9, 16), (12, 4), (20, 16), (20, 40)])
def test_small_graph_blocks_equal_hand_clamped_factorizations(n, local_rank):
    # n < local_rank + OVERSAMPLE: the factorization caps its own draw at n,
    # which gives the blocks of rank and oversample clamped to n by hand;
    # each is factorized on its support, from rows S of that same draw
    g = erdos_renyi(n, 0.4, seed=n)
    cfg = PipelineConfig(max_steps=2, local_rank=local_rank, seed=7)
    weights = orbit_weights(g, count_edge_orbits(g), cfg)
    rank = min(local_rank, n)
    fac = dict(rank=rank, oversample=min(pipeline.OVERSAMPLE, n - rank), power_iters=pipeline.POWER_ITERS)
    # kind w: the one-step blocks only, at max_steps=2 too
    expected = np.zeros((n, 13 * local_rank))
    for i, orbit in enumerate(range(1, NUM_ORBITS + 1)):
        nodes, wg = weights[orbit].on_support()
        if not wg.is_empty:
            op = KStepOperator(wg, cfg.kind, 1)
            factors = randomized_low_rank(op, FactorizeConfig(seed=_block_seed(7, 1, orbit), **fac),
                                          support=(n, nodes))
            expected[:, i * local_rank : i * local_rank + rank] = normalize_columns(factors.U)
    np.testing.assert_array_equal(local_embeddings(g, weights, cfg).matrix, expected)


def _with_isolated_nodes_and_a_clique():
    # 46 nodes: 0-2 and 39-40 isolated, an ER graph on 3..38, and a 5-clique
    # on 41..45, each edge in three 4-cliques, whose 4-clique orbit (13) has
    # a support of 5 nodes at delta 1 and 2, below the draw of local_rank 4
    # + OVERSAMPLE
    base = erdos_renyi(36, 0.15, seed=4)
    edges = [(u + 3, v + 3) for u, v in base.edges()]
    edges += [(a, b) for a in range(41, 46) for b in range(a + 1, 46)]
    return Graph.from_edges(46, edges)


@pytest.mark.parametrize("delta", [1, 2])
@pytest.mark.parametrize("kind", list(MotifMatrixKind))
def test_blocks_factorized_on_their_support_span_the_full_operator_factorization(kind, delta):
    g = _with_isolated_nodes_and_a_clique()
    n, r = g.num_nodes, 4
    cfg = PipelineConfig(max_steps=3, local_rank=r, kind=kind, delta=delta, seed=11)
    weights = orbit_weights(g, count_edge_orbits(g), cfg)
    local = local_embeddings(g, weights, cfg)
    assert 0 < len(weights[13].on_support()[0]) < r + pipeline.OVERSAMPLE
    gapped = 0
    for wg in weights.values():
        nodes, sub = wg.on_support()
        assert not np.isin([0, 1, 2, 39, 40], nodes).any()
        for k in (1, 2, 3):
            # every kind gives the nodes outside S zero rows and columns
            padded = np.zeros((n, n))
            padded[np.ix_(nodes, nodes)] = dense_kstep(sub, kind, k)
            np.testing.assert_allclose(padded, dense_kstep(wg, kind, k), rtol=0, atol=1e-12)
    for block in local:
        wg = weights[block.orbit]
        nodes, _ = wg.on_support()
        assert block.support == len(nodes) and block.is_zero == wg.is_empty
        u = local.matrix[:, block.columns]
        assert not u[np.setdiff1d(np.arange(n), nodes)].any()
        # orthonormal columns: the fusion sees the block only through u uᵀ
        live = u.any(axis=0)
        np.testing.assert_allclose(u.T @ u, np.diag(live.astype(float)), rtol=0, atol=1e-12)
        if wg.is_empty:
            continue
        sigma = np.linalg.svd(dense_kstep(wg, kind, block.k), compute_uv=False)
        if sigma[r - 1] - sigma[r] <= 1e-3 * sigma[0]:
            continue  # a tie at the rank boundary: the span is not determined
        gapped += 1
        fac = FactorizeConfig(rank=r, oversample=pipeline.OVERSAMPLE, power_iters=pipeline.POWER_ITERS,
                              seed=_block_seed(cfg.seed, block.k, block.orbit))
        full = normalize_columns(randomized_low_rank(KStepOperator(wg, kind, block.k), fac).U)
        np.testing.assert_allclose(u @ u.T, full @ full.T, rtol=0, atol=1e-12)
    assert gapped >= len(local.blocks) // 2


def aligned_to(actual, expected):
    """``actual`` with each column's sign flipped to best match ``expected``."""
    return actual * np.where(np.sum(actual * expected, axis=0) < 0, -1.0, 1.0)


@pytest.mark.parametrize("steps", [2, 3, 4])
@pytest.mark.parametrize("diffusion", [None, DiffusionConfig(DiffusionVariant.LINEAR)])
def test_kind_w_fusion_equals_fusing_sign_flipped_copies(steps, diffusion):
    # the K steps of w are the one-step blocks B with column i times
    # sgn(λᵢ)^(k−1); fusing those K copies by hand is the oracle for √K·B
    g = erdos_renyi(60, 0.15, seed=steps)
    cfg = PipelineConfig(orbits=(1, 2, 4), max_steps=steps, local_rank=6, global_rank=8,
                         diffusion=diffusion, seed=3)
    res = embed_graph(g, cfg)
    counts = count_edge_orbits(g)
    weights = orbit_weights(g, counts, cfg)
    b = res.local.matrix
    signs = np.ones(b.shape[1])
    for block in res.local:
        # the Rayleigh quotient of each unit column has the sign of its eigenvalue
        u = b[:, block.columns]
        quotient = np.sum(u * (dense_kstep(weights[block.orbit], cfg.kind, 1) @ u), axis=0)
        signs[block.columns] = np.where(quotient < 0, -1.0, 1.0)
    assert (signs < 0).any() and (signs > 0).any()
    copies = [b * signs ** (k - 1) for k in range(1, steps + 1)]
    if diffusion is not None:
        copies.append(diffused(g, counts, node_motif_features(g, counts), cfg))
    oracle = global_embedding(wrap(np.hstack(copies)), cfg.global_rank, ccd=cfg.ccd)
    nodes = res.embedding.nodes
    assert nodes[:, -1].any()
    np.testing.assert_allclose(aligned_to(nodes, oracle.nodes), oracle.nodes, rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.embedding.objective_path, oracle.objective_path, rtol=1e-12)


@pytest.mark.parametrize("kind", [k for k in MotifMatrixKind if k is not MotifMatrixKind.WEIGHTED_GRAPH])
def test_kinds_other_than_w_factorize_every_step_and_orbit(monkeypatch, kind):
    base = erdos_renyi(25, 0.3, seed=2)
    g = Graph(26, base.edge_u, base.edge_v)  # node 25 is isolated, so no support is every node
    cfg = PipelineConfig(orbits=(1, 2, 3), max_steps=3, local_rank=4, kind=kind, seed=5)
    seeds = []

    def recording(op, fac_cfg, support):
        assert len(support[1]) < support[0] == g.num_nodes
        seeds.append(fac_cfg.seed)
        return randomized_low_rank(op, fac_cfg, support=support)

    monkeypatch.setattr(pipeline, "randomized_low_rank", recording)
    local_of(g, count_edge_orbits(g), cfg)
    assert seeds == [_block_seed(5, k, t) for k in (1, 2, 3) for t in (1, 2, 3)]
    # kind w factorizes only the one-step blocks
    seeds.clear()
    local_of(g, count_edge_orbits(g), replace(cfg, kind=MotifMatrixKind.WEIGHTED_GRAPH))
    assert seeds == [_block_seed(5, 1, t) for t in (1, 2, 3)]


def test_block_tiling_is_validated():
    with pytest.raises(ValueError, match="tile"):
        ConcatenatedEmbeddings(np.zeros((3, 4)), (Block(1, 1, slice(0, 3)),))
    with pytest.raises(ValueError, match="tile"):
        ConcatenatedEmbeddings(np.zeros((3, 4)), (Block(1, 1, slice(1, 4)),))
    with pytest.raises(ValueError, match="tile"):
        ConcatenatedEmbeddings(
            np.zeros((3, 4)), (Block(1, 1, slice(0, 2)), Block(1, 2, slice(3, 4)))
        )


def test_block_seeds_are_distinct_across_blocks():
    seeds = {_block_seed(0, k, t) for k in range(5) for t in range(14)}
    assert len(seeds) == 5 * 14


# ------------------------------------------------------- global factorization


def test_global_embedding_exact_rank_recovery():
    y = spectrum_matrix(rank=8)
    emb = global_embedding(wrap(y), 8, ccd=CcdOptions(reg=0.0))
    assert emb.residual <= 1e-6
    np.testing.assert_allclose(emb.nodes @ emb.basis, y, atol=1e-8)


def test_global_residual_nonincreasing_in_rank():
    y = spectrum_matrix()
    residuals = [
        global_embedding(wrap(y), d).residual
        for d in (2, 4, 8)
    ]
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_global_residual_invariant_under_row_permutation():
    y = spectrum_matrix()
    perm = np.random.default_rng(9).permutation(y.shape[0])
    r1 = global_embedding(wrap(y), 6).residual
    r2 = global_embedding(wrap(y[perm]), 6).residual
    assert abs(r1 - r2) <= 1e-12 * (1.0 + r1)


def test_duplicated_column_block_preserves_node_similarity_structure():
    y = spectrum_matrix()
    exact = CcdOptions(reg=0.0)
    e1 = global_embedding(wrap(y), 8, ccd=exact)
    e2 = global_embedding(wrap(np.hstack([y, y])), 8, ccd=exact)
    g1 = e1.nodes @ e1.nodes.T
    g2 = e2.nodes @ e2.nodes.T
    # same column space, every singular value scaled by sqrt(2); the exact
    # split puts sqrt(s) of each singular value s into the node factor
    np.testing.assert_allclose(g2, np.sqrt(2.0) * g1, atol=1e-10 * np.abs(g1).max())


def test_global_rank_past_column_count_pads_with_zeros():
    g = erdos_renyi(15, 0.4, seed=3)
    cfg = PipelineConfig(orbits=(1, 2, 3), max_steps=1, local_rank=2, global_rank=128)
    res = embed_graph(g, cfg)
    assert res.concatenated.matrix.shape[1] == 6
    assert res.embedding.nodes.shape == (15, 128)
    assert res.embedding.basis.shape == (128, 6)
    assert not res.embedding.nodes[:, 6:].any() and not res.embedding.basis[6:].any()
    # the leading components are the fusion at the column count
    at_cols = global_embedding(res.concatenated, 6)
    np.testing.assert_array_equal(res.embedding.nodes[:, :6], at_cols.nodes)
    np.testing.assert_array_equal(res.embedding.basis[:6], at_cols.basis)


# ----------------------------------------------------------------- diffusion


def diffusing(variant, steps, theta=None, **fields):
    """A pipeline config that diffuses by ``variant`` over ``steps`` steps."""
    return PipelineConfig(max_steps=steps, diffusion=DiffusionConfig(variant, theta=theta), **fields)


def test_transition_walk_one_step_on_triangle():
    counts = count_edge_orbits(TRIANGLE)
    x = np.array([[1.0], [0.0], [0.0]])
    out = diffused(TRIANGLE, counts, x, diffusing(DiffusionVariant.TRANSITION_WALK, 1, orbits=(3,)))
    expect = normalize_columns(np.array([[0.0], [0.5], [0.5]]))
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_linear_diffusion_applies_growing_powers():
    # orbit 3 on a triangle weights like the adjacency matrix; two linear
    # steps map e1 through W then W^2: (1,0,0) -> (0,1,1) -> (2,3,3)
    counts = count_edge_orbits(TRIANGLE)
    x = np.array([[1.0], [0.0], [0.0]])
    out = diffused(TRIANGLE, counts, x, diffusing(DiffusionVariant.LINEAR, 2, orbits=(3,)))
    expect = normalize_columns(np.array([[2.0], [3.0], [3.0]]))
    np.testing.assert_allclose(out, expect, atol=1e-12)


@pytest.mark.parametrize("kind", list(MotifMatrixKind))
def test_linear_diffusion_applies_the_kstep_matrices(kind):
    # step l multiplies by the same k-step matrix the local blocks use at k = l
    g = erdos_renyi(20, 0.3, seed=3)
    counts = count_edge_orbits(g)
    x = np.random.default_rng(1).normal(size=(20, 2))
    out = diffused(g, counts, x, diffusing(DiffusionVariant.LINEAR, 3, orbits=(2,), kind=kind))
    wg = build_motif_weight_matrix(g, counts, 2)
    expect = x
    for step in (1, 2, 3):
        expect = dense_kstep(wg, kind, step) @ expect
    np.testing.assert_allclose(out, normalize_columns(expect), atol=1e-10)


def test_theta_one_is_a_fixed_point():
    g = erdos_renyi(12, 0.4, seed=4)
    counts = count_edge_orbits(g)
    x = np.random.default_rng(0).normal(size=(12, 3))
    out = diffused(
        g, counts, x, diffusing(DiffusionVariant.THETA_SMOOTHING, 3, theta=1.0, orbits=(1, 2))
    )
    np.testing.assert_allclose(out, normalize_columns(np.hstack([x, x])), atol=1e-12)


def test_transition_walk_preserves_constant_columns_on_support():
    # over full support a constant column is a fixed point, so step count is moot
    g = erdos_renyi(25, 0.3, seed=5)
    counts = count_edge_orbits(g)
    ones = np.ones((25, 1))
    one = diffused(g, counts, ones, diffusing(DiffusionVariant.TRANSITION_WALK, 1, orbits=(1,)))
    three = diffused(g, counts, ones, diffusing(DiffusionVariant.TRANSITION_WALK, 3, orbits=(1,)))
    np.testing.assert_allclose(one, three, atol=1e-12)
    np.testing.assert_allclose(one, np.full((25, 1), 1.0 / np.sqrt(25)), atol=1e-12)


def test_diffusion_config_validation():
    with pytest.raises(ValueError, match="theta"):
        DiffusionConfig(DiffusionVariant.THETA_SMOOTHING)
    with pytest.raises(ValueError, match="theta"):
        DiffusionConfig(DiffusionVariant.THETA_SMOOTHING, theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        DiffusionConfig(DiffusionVariant.LINEAR, theta=0.5)


def test_diffused_attribute_width_is_orbits_times_feature_width():
    g = erdos_renyi(18, 0.35, seed=6)
    counts = count_edge_orbits(g)
    feats = node_motif_features(g, counts)
    assert feats.shape == (18, 52)
    cfg = PipelineConfig(
        max_steps=1,
        local_rank=4,
        diffusion=DiffusionConfig(DiffusionVariant.LINEAR),
    )
    res = embed_graph(g, cfg)
    last = res.concatenated.blocks[-1]
    assert (last.k, last.orbit) == (None, None)
    assert last.columns.stop - last.columns.start == 13 * 52


# ------------------------------------------------------------------- e2e


def test_embed_graph_is_deterministic():
    g = erdos_renyi(30, 0.25, seed=7)
    cfg = PipelineConfig(max_steps=2, local_rank=6, global_rank=24)
    a = embed_graph(g, cfg)
    b = embed_graph(g, cfg)
    assert np.array_equal(a.embedding.nodes, b.embedding.nodes)
    assert np.array_equal(a.embedding.basis, b.embedding.basis)
    assert a.embedding.objective_path == b.embedding.objective_path


def test_embed_graph_takes_the_step_prefix_of_given_blocks():
    g = erdos_renyi(30, 0.2, seed=4)
    cfg = PipelineConfig(orbits=(1, 3), max_steps=2, local_rank=3, global_rank=6,
                         kind=MotifMatrixKind.NORMALIZED_LAPLACIAN, seed=9)
    prior = embed_graph(g, replace(cfg, max_steps=3))
    shared = embed_graph(g, cfg, prior=prior)
    fresh = embed_graph(g, cfg)
    assert shared.embedding.nodes.tobytes() == fresh.embedding.nodes.tobytes()
    assert shared.concatenated.blocks == fresh.concatenated.blocks
    assert shared.counts is prior.counts
    # without diffusion the prefix is a view of the prior's blocks, not a copy
    assert np.shares_memory(shared.concatenated.matrix, prior.local.matrix)
    assert shared.concatenated.matrix.shape == (30, 12)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_kind_w_runs_lent_a_four_step_prior_equal_fresh_runs(steps):
    g = erdos_renyi(30, 0.2, seed=6)
    cfg = PipelineConfig(orbits=(1, 2, 3), max_steps=steps, local_rank=4, global_rank=8, seed=2)
    prior = embed_graph(g, replace(cfg, max_steps=4))
    shared = embed_graph(g, cfg, prior=prior)
    fresh = embed_graph(g, cfg)
    assert shared.local.matrix.tobytes() == fresh.local.matrix.tobytes()
    assert shared.concatenated.matrix.tobytes() == fresh.concatenated.matrix.tobytes()
    assert shared.embedding.nodes.tobytes() == fresh.embedding.nodes.tobytes()
    # every step count of w borrows the prior's one block set itself
    assert np.shares_memory(shared.local.matrix, prior.local.matrix)


@pytest.mark.parametrize("kind, steps, diffusion", [
    (MotifMatrixKind.NORMALIZED_LAPLACIAN, 2, None),
    (MotifMatrixKind.NORMALIZED_LAPLACIAN, 2, DiffusionConfig(DiffusionVariant.LINEAR)),
    (MotifMatrixKind.WEIGHTED_GRAPH, 1, None),
    (MotifMatrixKind.WEIGHTED_GRAPH, 1, DiffusionConfig(DiffusionVariant.LINEAR)),
])
def test_result_local_is_a_read_only_view_of_the_fused_prefix(kind, steps, diffusion):
    g = erdos_renyi(30, 0.2, seed=6)
    cfg = PipelineConfig(orbits=(1, 2, 3), max_steps=steps, local_rank=4, global_rank=8,
                         kind=kind, diffusion=diffusion)
    res = embed_graph(g, cfg)
    local, y = res.local, res.concatenated
    width = 3 * steps * 4
    assert local.matrix.shape == (30, width) and not local.matrix.flags.writeable
    assert np.shares_memory(local.matrix, y.matrix)
    assert local.matrix.tobytes() == y.matrix[:, :width].tobytes()
    assert local.blocks == y.blocks[: 3 * steps]
    assert local.matrix.tobytes() == local_of(g, count_edge_orbits(g), cfg).matrix.tobytes()


@pytest.mark.parametrize("steps", [2, 3, 4])
def test_kind_w_past_one_step_fuses_its_local_blocks_scaled_by_root_steps(steps):
    g = erdos_renyi(30, 0.2, seed=6)
    cfg = PipelineConfig(orbits=(1, 2, 3), max_steps=steps, local_rank=4, global_rank=8)
    res = embed_graph(g, cfg)
    assert res.local.matrix.tobytes() == local_of(g, count_edge_orbits(g), cfg).matrix.tobytes()
    assert res.concatenated.blocks == res.local.blocks
    assert res.concatenated.matrix.tobytes() == (np.sqrt(steps) * res.local.matrix).tobytes()
    assert not res.concatenated.matrix.flags.writeable


def test_a_wider_prior_differing_in_fusion_settings_gives_a_fresh_run():
    g = erdos_renyi(30, 0.2, seed=4)
    cfg = PipelineConfig(orbits=(1, 3), max_steps=2, local_rank=3, global_rank=6, seed=9)
    prior = embed_graph(g, replace(
        cfg, max_steps=3, global_rank=4, diffusion=DiffusionConfig(DiffusionVariant.LINEAR),
        ccd=CcdOptions(reg=1e-2),
    ))
    shared = embed_graph(g, cfg, prior=prior)
    fresh = embed_graph(g, cfg)
    assert shared.config == cfg
    assert shared.embedding.nodes.tobytes() == fresh.embedding.nodes.tobytes()
    assert shared.concatenated.matrix.tobytes() == fresh.concatenated.matrix.tobytes()


@pytest.mark.parametrize("diffusion", [None, DiffusionConfig(DiffusionVariant.LINEAR)])
def test_fresh_fusion_input_is_fortran_ordered(diffusion):
    g = erdos_renyi(25, 0.3, seed=8)
    cfg = PipelineConfig(max_steps=2, local_rank=3, global_rank=6, diffusion=diffusion)
    assert embed_graph(g, cfg).concatenated.matrix.flags.f_contiguous


def test_embed_graph_rejects_priors_that_do_not_hold_its_blocks():
    g = erdos_renyi(30, 0.2, seed=4)
    cfg = PipelineConfig(orbits=(1, 3), max_steps=2, local_rank=3, global_rank=6)
    priors = [
        embed_graph(g, replace(cfg, **change))
        for change in (
            {"max_steps": 1},
            {"orbits": (3, 1)},
            {"local_rank": 4},
            {"kind": MotifMatrixKind.TRANSITION},
            {"seed": 1},
            {"delta": 2},
        )
    ]
    priors.append(embed_graph(erdos_renyi(30, 0.2, seed=5), cfg))
    for prior in priors:
        with pytest.raises(ValueError, match="prior does not hold the blocks of max_steps=2"):
            embed_graph(g, cfg, prior=prior)


def test_counts_and_priors_are_accepted_on_an_equal_graph_only():
    g = erdos_renyi(30, 0.2, seed=4)
    cfg = PipelineConfig(orbits=(1, 3), max_steps=2, local_rank=3, global_rank=6,
                         diffusion=DiffusionConfig(DiffusionVariant.LINEAR))
    prior = embed_graph(g, cfg)
    counts = prior.counts
    assert counts.graph is g
    rebuilt = Graph.from_edges(g.num_nodes, np.stack([g.edge_u, g.edge_v], axis=1), labels=g.labels)
    assert rebuilt == g and rebuilt is not g
    same = embed_graph(g, cfg, prior=prior).embedding.nodes
    np.testing.assert_array_equal(embed_graph(rebuilt, cfg, prior=prior).embedding.nodes, same)
    np.testing.assert_array_equal(node_motif_features(rebuilt, counts), node_motif_features(g, counts))
    weights = [build_motif_weight_matrix(h, counts, 3).matrix for h in (rebuilt, g)]
    assert (weights[0] != weights[1]).nnz == 0

    other = erdos_renyi(30, 0.2, seed=5)
    foreign = "^orbit counts were computed for a different graph$"
    with pytest.raises(ValueError, match=foreign):
        build_motif_weight_matrix(other, counts, 3)
    with pytest.raises(ValueError, match=foreign):
        node_motif_features(other, counts)
    with pytest.raises(ValueError, match="^" + re.escape(
        "the prior does not hold the blocks of max_steps=2: it must come from the same graph, at least"
        " that many steps, and the same orbits, local_rank, kind, delta and seed"
    ) + "$"):
        embed_graph(other, cfg, prior=prior)


@pytest.mark.parametrize("diffusion", [None, DiffusionConfig(DiffusionVariant.LINEAR)])
def test_embed_graph_builds_each_weight_matrix_once(monkeypatch, diffusion):
    g = erdos_renyi(25, 0.3, seed=8)
    cfg = PipelineConfig(max_steps=2, local_rank=3, global_rank=6, diffusion=diffusion)
    built = []

    def counting(graph, orbit_counts, orbit, delta=1):
        built.append(orbit)
        return build_motif_weight_matrix(graph, orbit_counts, orbit, delta)

    monkeypatch.setattr(pipeline, "build_motif_weight_matrix", counting)
    prior = embed_graph(g, cfg)
    assert built == list(range(1, NUM_ORBITS + 1))
    # with a prior and no diffusion, no stage reads a weight matrix
    built.clear()
    embed_graph(g, replace(cfg, diffusion=None), prior=prior)
    assert built == []


def test_embed_graph_seed_changes_output():
    g = erdos_renyi(30, 0.25, seed=7)
    a = embed_graph(g, PipelineConfig(max_steps=1, local_rank=6, global_rank=24, seed=0))
    b = embed_graph(g, PipelineConfig(max_steps=1, local_rank=6, global_rank=24, seed=1))
    assert not np.array_equal(a.embedding.nodes, b.embedding.nodes)


def test_embed_graph_smoke_shapes_and_objective():
    g = erdos_renyi(40, 0.2, seed=8)
    cfg = PipelineConfig(max_steps=2, local_rank=8, global_rank=32)
    res = embed_graph(g, cfg)
    assert res.embedding.nodes.shape == (40, 32)
    # kind w fuses one block per orbit at every step count
    assert res.embedding.basis.shape == (32, 13 * 8)
    # the default global step is the exact optimum: one value, converged
    y = res.concatenated.matrix
    sing = np.linalg.svd(y, compute_uv=False)
    kept = np.maximum(sing[:32] - 2.0 * cfg.ccd.reg, 0.0)
    fit = np.sum(sing[32:] ** 2) + np.sum((sing[:32] - kept) ** 2)
    optimum = 0.5 * fit + 2.0 * cfg.ccd.reg * kept.sum()
    assert res.embedding.converged is True
    np.testing.assert_allclose(res.embedding.objective_path, (optimum,), rtol=1e-10)
    assert sorted(res.seconds) == ["count", "diffuse", "global", "local"]
    assert all(sec >= 0.0 for sec in res.seconds.values())


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="orbits"):
        PipelineConfig(orbits=())
    with pytest.raises(ValueError, match="orbits"):
        PipelineConfig(orbits=(0, 1))
    with pytest.raises(ValueError, match="repeat"):
        PipelineConfig(orbits=(1, 1))
    with pytest.raises(ValueError, match="max_steps"):
        PipelineConfig(max_steps=0)
    with pytest.raises(ValueError, match="ranks"):
        PipelineConfig(local_rank=0)
    with pytest.raises(ValueError, match="^delta must be >= 1$"):
        PipelineConfig(delta=0)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        PipelineConfig(seed=-1)


def test_transition_kind_pipeline_runs():
    g = erdos_renyi(25, 0.3, seed=9)
    cfg = PipelineConfig(
        max_steps=2, local_rank=4, global_rank=16, kind=MotifMatrixKind.TRANSITION
    )
    res = embed_graph(g, cfg)
    assert res.embedding.nodes.shape == (25, 16)
    assert np.isfinite(res.embedding.nodes).all()
