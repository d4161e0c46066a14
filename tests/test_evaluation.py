import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from motifembed import evaluation, pipeline
from motifembed.evaluation import (
    FOLDS,
    LAMBDA_GRID,
    SELECTION_FRACTION,
    EvalConfig,
    LogRegDesign,
    SeedOutcome,
    auc,
    auc_pairwise,
    cross_val_auc,
    edge_features_mean,
    evaluate_one_seed,
    fit_logreg,
    make_split,
    run_experiment,
    _logistic,
    _selection_subsample,
    _stratified_folds,
)
from motifembed.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_average_degree,
    two_block_sbm,
)
from motifembed.graph import Graph
from motifembed.pipeline import DiffusionConfig, DiffusionVariant, PipelineConfig, embed_graph

TINY_PIPELINE = PipelineConfig(orbits=(1, 2, 3), max_steps=1, local_rank=4, global_rank=12)


# -------------------------------------------------------------------- split


def test_split_arithmetic_on_ten_edges():
    g = cycle_graph(10)  # exactly 10 edges
    split = make_split(g, 0)
    assert len(split.positives) == 5
    assert len(split.negatives) == 5
    assert split.train_graph.num_edges == 5
    assert split.train_graph.num_nodes == 10


def test_split_partition_and_nonadjacency_invariants():
    g = erdos_renyi(40, 0.15, seed=3)
    split = make_split(g, 7)
    train = split.train_graph
    pos_u, pos_v = split.positives.T
    assert (g.edge_ids(pos_u, pos_v) >= 0).all()
    assert (train.edge_ids(pos_u, pos_v) == -1).all()
    neg_u, neg_v = split.negatives.T
    assert (g.edge_ids(neg_u, neg_v) == -1).all()
    assert (neg_u != neg_v).all()
    held = {tuple(p) for p in map(tuple, split.positives)}
    kept = {tuple(e) for e in train.edges()}
    assert held.isdisjoint(kept)
    assert len(held) + len(kept) == g.num_edges
    neg = {tuple(p) for p in map(tuple, split.negatives)}
    assert len(neg) == len(split.negatives)  # distinct pairs


def test_split_is_deterministic_per_seed():
    g = erdos_renyi(30, 0.2, seed=1)
    a = make_split(g, 5)
    b = make_split(g, 5)
    c = make_split(g, 6)
    assert np.array_equal(a.positives, b.positives)
    assert np.array_equal(a.negatives, b.negatives)
    assert a.train_graph == b.train_graph
    assert not np.array_equal(a.positives, c.positives)


def _split_loop(g, seed):
    # reference: the scalar rejection loop, one rng.integers call per
    # endpoint and a set of pairs; make_split draws the same stream in
    # batches, so the positives, negatives and train edges must be equal
    m, n = g.num_edges, g.num_nodes
    n_hold = m // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE0)))
    order = rng.permutation(m)
    held, kept = np.sort(order[:n_hold]), np.sort(order[n_hold:])
    edges = set(g.edges())
    chosen = set()
    attempts = 0
    while len(chosen) < n_hold:
        attempts += 1
        assert attempts <= 200 * n_hold + 10_000
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair in chosen or pair in edges:
            continue
        chosen.add(pair)
    positives = np.stack([g.edge_u[held], g.edge_v[held]], axis=1)
    train = np.stack([g.edge_u[kept], g.edge_v[kept]], axis=1)
    return positives, np.array(sorted(chosen), dtype=np.int64), train


def _near_complete_graph(n, seed):
    # as dense as make_split allows: the non-edges barely cover the
    # held-out half, so most draws are rejected as edges or repeats
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = 2 * len(pairs) // 3
    while len(pairs) - m < m // 2:
        m -= 1
    pick = np.random.default_rng(seed).permutation(len(pairs))[:m]
    return Graph.from_edges(n, [pairs[i] for i in pick])


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(lambda: two_block_sbm(200, 0.15, 0.01, seed=1)[0], id="sbm"),
        pytest.param(lambda: erdos_renyi_average_degree(200, 10.0, seed=2), id="control"),
        pytest.param(lambda: _near_complete_graph(30, seed=4), id="near-complete"),
    ],
)
def test_split_equals_the_scalar_loop_exactly(graph):
    g = graph()
    for seed in range(5):
        split = make_split(g, seed)
        positives, negatives, train = _split_loop(g, seed)
        np.testing.assert_array_equal(split.positives, positives)
        np.testing.assert_array_equal(split.negatives, negatives)
        np.testing.assert_array_equal(split.train_graph.edge_u, train[:, 0])
        np.testing.assert_array_equal(split.train_graph.edge_v, train[:, 1])


def test_split_rejects_tiny_and_saturated_graphs():
    with pytest.raises(ValueError, match="at least 4"):
        make_split(complete_graph(3), 0)
    with pytest.raises(ValueError, match="dense"):
        make_split(complete_graph(5), 0)


# ----------------------------------------------------------------- features


def test_mean_feature_formula_and_symmetry():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    out = edge_features_mean(z, np.array([[0, 1]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])
    np.testing.assert_allclose(
        edge_features_mean(z, np.array([[0, 1]])),
        edge_features_mean(z, np.array([[1, 0]])),
    )
    np.testing.assert_allclose(edge_features_mean(z, np.array([[2, 2]])), [[3.0, 3.0]])


def test_mean_feature_rejects_bad_ids():
    z = np.zeros((3, 2))
    with pytest.raises(IndexError):
        edge_features_mean(z, np.array([[0, 3]]))
    with pytest.raises(IndexError):
        edge_features_mean(z, np.array([[-1, 1]]))


# ---------------------------------------------------------------------- auc


def test_auc_frozen_examples():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auc(np.full(6, 0.3), np.array([1, 1, 1, 0, 0, 0])) == 0.5
    # one tie out of two comparisons: (1 + 0.5) / 2
    assert auc(np.array([0.7, 0.7, 0.1]), np.array([1, 0, 0])) == 0.75


def _auc_tie_loop(scores, labels):
    # reference: one tie group at a time in Python; auc does the same
    # arithmetic on whole arrays, so the results must be equal
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(labels.size)
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_equals_the_tie_loop_exactly():
    rng = np.random.default_rng(21)
    for i in range(300):
        size = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size)
        labels[0], labels[-1] = 0, 1
        if i % 2 == 0:
            scores = rng.integers(0, int(rng.integers(1, 6)), size).astype(float)
        else:
            scores = np.round(rng.standard_normal(size), 1)
        assert auc(scores, labels) == _auc_tie_loop(scores, labels)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueError, match="both classes"):
        auc_pairwise(np.array([0.1, 0.2]), np.array([0, 0]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_auc_matches_pairwise_oracle(data):
    n = data.draw(st.integers(4, 40))
    scores = np.array(
        data.draw(
            st.lists(
                st.integers(-5, 5).map(float), min_size=n, max_size=n
            )
        )
    )
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    assert abs(auc(scores, labels) - auc_pairwise(scores, labels)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_auc_invariant_under_strictly_monotone_transforms(data):
    n = data.draw(st.integers(4, 30))
    scores = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), dtype=float)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == base
    assert auc(scores**3, labels) == base  # odd power: strictly increasing


# ---------------------------------------------------------------- regression


def separable_toy(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-3.0, 0.5, n // 2), rng.normal(3.0, 0.5, n // 2)])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return x.reshape(-1, 1), y


def test_separable_toy_reaches_training_auc_one():
    x, y = separable_toy()
    model = fit_logreg(x, y, 1e-4)
    assert auc(model.decision_scores(x), y) == 1.0


def test_weight_norm_monotone_in_regularization():
    x, y = separable_toy()
    regs = list(LAMBDA_GRID) + [1e3, 1e4]
    norms = [np.linalg.norm(fit_logreg(x, y, r).weights) for r in regs]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-3  # heavy shrinkage drives w toward zero


def test_logistic_matches_expit_without_overflow():
    z = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [-0.0, 1e-300, -1e-300]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _logistic(z)
        tails = _logistic(np.array([-np.inf, -1e308, 1e308, np.inf]))
    want = expit(z)
    # below z ≈ −709.78 expit's exp(−z) overflows and it returns 0; the true
    # value, which _logistic keeps, is then under the smallest normal double
    tiny = np.finfo(np.float64).tiny
    assert np.all(np.abs(got - want) <= np.where(want >= tiny, 4 * np.spacing(want), tiny))
    np.testing.assert_array_equal(tails, [0.0, 0.0, 1.0, 1.0])


def test_fit_logreg_validates_labels():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError, match="0/1"):
        fit_logreg(x, np.array([0.0, 1.0, 2.0, 0.0]), 0.1)
    with pytest.raises(ValueError, match="0/1"):
        fit_logreg(x, np.array([0.0, 1.0, np.nan, 0.0]), 0.1)
    with pytest.raises(ValueError, match="both classes"):
        fit_logreg(x, np.ones(4), 0.1)


def test_fit_logreg_validates_shapes():
    x, y = logistic_draw(n=10)
    with pytest.raises(ValueError, match="labels must be 1-D with one entry per row"):
        fit_logreg(x, y[:8], 0.1)
    with pytest.raises(ValueError, match="labels must be 1-D with one entry per row"):
        fit_logreg(x, y[:, None], 0.1)
    with pytest.raises(ValueError, match="labels must be 1-D with one entry per row"):
        fit_logreg(LogRegDesign.of(x), y[:8], 0.1)
    with pytest.raises(ValueError, match="features must be 2-D"):
        fit_logreg(x[:, 0], y, 0.1)


def test_fit_logreg_on_a_design_with_its_bias_column_equals_the_plain_fit():
    x, y = logistic_draw(n=120)
    design = LogRegDesign(np.hstack([x, np.ones((len(x), 1))]))
    assert design.rows.tobytes() == LogRegDesign.of(x).rows.tobytes()
    plain = fit_logreg(x, y, 1e-2)
    prebuilt = fit_logreg(design, y, 1e-2)
    assert plain.weights.tobytes() == prebuilt.weights.tobytes()
    assert (plain.bias, plain.iterations, plain.converged) == (
        prebuilt.bias, prebuilt.iterations, prebuilt.converged
    )
    with pytest.raises(ValueError, match="0/1"):
        fit_logreg(design, np.full(120, 2.0), 1e-2)
    with pytest.raises(ValueError, match="reg"):
        fit_logreg(design, y, 0.0)


def test_fit_logreg_converges_on_scaled_features():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 8)) * 0.01  # small-scale columns
    y = (rng.random(200) < 0.5).astype(float)
    model = fit_logreg(x, y, 1e-2)
    assert model.converged
    assert model.iterations < 500


def wide_degenerate(seed=1):
    # more columns than rows, one duplicated column and one all-zero column,
    # like a selection fold with zero blocks
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, 60))
    x[:, 5] = x[:, 4]
    x[:, 7] = 0.0
    y = (rng.random(40) < 0.5).astype(float)
    y[:2] = (0.0, 1.0)
    return x, y


def logistic_draw(n=1500, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 10))
    y = (rng.random(n) < expit(x @ rng.normal(size=10) - 0.5)).astype(float)
    return x, y


def _objective_and_gradient(coef, x, y, reg):
    w, b = coef[:-1], coef[-1]
    z = x @ w + b
    err = expit(z) - y
    obj = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * reg * (w @ w)
    return obj, np.append(x.T @ err / y.size + reg * w, err.mean())


@pytest.mark.parametrize("case", [separable_toy, wide_degenerate, logistic_draw])
def test_fit_logreg_reaches_the_optimum_at_every_lambda(case):
    x, y = case()
    for reg in list(LAMBDA_GRID) + [1e3, 1e4]:
        model = fit_logreg(x, y, reg)
        obj, grad = _objective_and_gradient(np.append(model.weights, model.bias), x, y, reg)
        assert model.converged
        assert np.linalg.norm(grad) <= 1e-6
        reference = minimize(
            _objective_and_gradient, np.zeros(x.shape[1] + 1), args=(x, y, reg), jac=True,
            method="L-BFGS-B", options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 100_000},
        )
        assert obj <= reference.fun + 1e-9


def test_fit_logreg_backtracks_to_the_optimum_on_a_heavy_tailed_design(monkeypatch):
    # one of the seeded Cauchy designs on which a full Newton step overshoots
    # far from the optimum: the fifth step more than triples the loss
    rng = np.random.default_rng(12202)
    n, d, reg = int(rng.integers(4, 61)), int(rng.integers(1, 4)), 10 ** rng.uniform(-4, 1)
    x = rng.standard_cauchy(size=(n, d))
    y = (x[:, 0] > 0).astype(float)
    calls = []
    original = evaluation._penalized_loss

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluation, "_penalized_loss", counting)
    model = fit_logreg(x, y, reg)
    assert model.converged
    # a fit that never halves evaluates the loss `iterations` times: once at
    # the start and once per Newton step, the last iteration stopping at the
    # gradient test
    assert len(calls) > model.iterations
    reference = minimize(
        _objective_and_gradient, np.zeros(d + 1), args=(x, y, reg), jac=True,
        method="L-BFGS-B", options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 100_000},
    )
    np.testing.assert_allclose(np.append(model.weights, model.bias), reference.x, rtol=0, atol=1e-8)


def test_fit_logreg_stops_at_the_optimum_on_heavy_tailed_columns(monkeypatch):
    # cubed Cauchy features reach 1e9: rounding in the gradient's sums keeps
    # its norm above LOGREG_GRAD_TOL, so the absolute test alone runs to the
    # iteration cap; measured against the size of those sums it stops early
    rng = np.random.default_rng(2064)
    n, d, reg = int(rng.integers(4, 61)), int(rng.integers(1, 4)), 10 ** rng.uniform(-4, 1)
    x = rng.standard_cauchy(size=(n, d)) ** 3
    y = (x[:, 0] > 0).astype(float)
    assert np.abs(x).max() > 1e9
    model = fit_logreg(x, y, reg)
    obj, grad = _objective_and_gradient(np.append(model.weights, model.bias), x, y, reg)
    assert model.converged and model.iterations < 50
    assert np.linalg.norm(grad) > evaluation.LOGREG_GRAD_TOL

    monkeypatch.setattr(evaluation, "LOGREG_GRAD_TOL", 0.0)  # no gradient passes
    capped = fit_logreg(x, y, reg)
    capped_obj, _ = _objective_and_gradient(np.append(capped.weights, capped.bias), x, y, reg)
    assert not capped.converged
    # the capped iterations after the stop gain nothing
    assert obj <= capped_obj * (1 + 1e-12)


@pytest.mark.parametrize("case", [separable_toy, wide_degenerate, logistic_draw])
def test_fits_along_the_grid_on_one_design_equal_fresh_fits(case):
    x, y = case()
    keep = np.arange(y.size) % 7 != 3  # fits on a row subset, as a fold takes it
    design = LogRegDesign(LogRegDesign.of(x).rows[keep])
    for reg in LAMBDA_GRID:
        shared = fit_logreg(design, y[keep], reg)
        fresh = fit_logreg(x[keep], y[keep], reg)
        assert shared.weights.tobytes() == fresh.weights.tobytes()
        assert (shared.bias, shared.iterations, shared.converged) == (
            fresh.bias, fresh.iterations, fresh.converged
        )


def test_the_start_hessian_is_formed_once_per_design(monkeypatch):
    starts = []
    original = evaluation._weighted_gram

    def recording(rows, prob):
        if np.all(prob == 0.5):  # p = 1/2 only at the Newton start, coef = 0
            starts.append(rows.shape)
        return original(rows, prob)

    monkeypatch.setattr(evaluation, "_weighted_gram", recording)
    x, y = logistic_draw(n=200)
    design = LogRegDesign.of(x)
    for reg in LAMBDA_GRID:
        fit_logreg(design, y, reg)
    assert starts == [(200, 11)]
    for reg in LAMBDA_GRID:
        fit_logreg(x, y, reg)
    assert len(starts) == 1 + len(LAMBDA_GRID)


def test_fit_logreg_warns_at_its_iteration_cap(caplog, monkeypatch):
    x, y = logistic_draw(n=200)
    monkeypatch.setattr(evaluation, "LOGREG_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="motifembed.evaluation"):
        model = fit_logreg(x, y, 1e-4)
    assert not model.converged
    assert model.iterations == 1
    assert "1-iteration cap" in caplog.text


@pytest.mark.parametrize("reg", [0.0, -1e-3])
def test_fit_logreg_rejects_nonpositive_reg(reg):
    x, y = separable_toy()
    with pytest.raises(ValueError, match="reg"):
        fit_logreg(x, y, reg)


@pytest.mark.parametrize("reg", [np.nan, np.inf])
def test_fit_logreg_rejects_nonfinite_reg(reg):
    x, y = separable_toy()
    with pytest.raises(ValueError, match="reg"):
        fit_logreg(x, y, reg)


def test_permuted_labels_give_null_cv_auc():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 6))
    y = np.concatenate([np.ones(200), np.zeros(200)])
    rng.shuffle(y)
    (score,) = cross_val_auc(x, y, (1e-2,), seed=0)
    assert 0.4 <= score <= 0.6


def test_cross_val_auc_deterministic():
    x, y = separable_toy(n=80, seed=2)
    assert cross_val_auc(x, y, (1e-2,), seed=4) == cross_val_auc(x, y, (1e-2,), seed=4)


def test_cross_val_auc_over_a_grid_equals_one_partition_per_lambda():
    x, y = logistic_draw(n=300)
    expected = []
    for reg in LAMBDA_GRID:
        # the partition drawn afresh for every lambda, from the same seed
        parts = _stratified_folds(y, FOLDS, np.random.default_rng(np.random.SeedSequence((5, 0xCF))))
        scores = []
        for held in parts:
            train = np.setdiff1d(np.arange(y.size), held)
            model = fit_logreg(x[train], y[train], reg)
            scores.append(auc(model.decision_scores(x[held]), y[held]))
        expected.append(float(np.mean(scores)))
    assert cross_val_auc(x, y, LAMBDA_GRID, seed=5) == expected


def test_stratified_folds_partition_and_cover_both_classes():
    labels = np.array([1] * 25 + [0] * 35)
    rng = np.random.default_rng(0)
    parts = _stratified_folds(labels, 10, rng)
    seen = np.concatenate(parts)
    assert sorted(seen.tolist()) == list(range(60))
    for part in parts:
        vals = set(labels[part].tolist())
        assert vals == {0, 1}


# ------------------------------------------------------------------ protocol


def test_evaluate_one_seed_deterministic_and_in_range():
    g = erdos_renyi(40, 0.2, seed=13)
    cfg = EvalConfig(pipeline=TINY_PIPELINE, step_grid=(1, 2), n_seeds=1)
    a = evaluate_one_seed(g, cfg, 3)
    b = evaluate_one_seed(g, cfg, 3)
    assert a == b
    assert 0.0 <= a.auc <= 1.0
    assert a.chosen_steps in (1, 2)
    assert a.chosen_lambda in LAMBDA_GRID


@pytest.mark.parametrize("fields, message", [
    ({"n_seeds": 0}, "n_seeds must be >= 1"),
    ({"step_grid": ()}, "step_grid must be nonempty, with every step count >= 1"),
    ({"step_grid": (0, 1)}, "step_grid must be nonempty, with every step count >= 1"),
    ({"step_grid": (2, -1)}, "step_grid must be nonempty, with every step count >= 1"),
    ({"base_seed": -1}, "base_seed must be >= 0"),
])
def test_eval_config_rejects_bad_values_at_construction(fields, message):
    with pytest.raises(ValueError) as raised:
        EvalConfig(**{"pipeline": TINY_PIPELINE, "step_grid": (1, 2), **fields})
    assert str(raised.value) == message


def test_run_experiment_report_shape_and_determinism():
    g = erdos_renyi(35, 0.2, seed=17)
    cfg = EvalConfig(pipeline=TINY_PIPELINE, step_grid=(1,), n_seeds=3, base_seed=2)
    rep1 = run_experiment(g, cfg)
    rep2 = run_experiment(g, cfg)
    assert rep1 == rep2
    assert [o.seed for o in rep1.outcomes] == [2, 3, 4]
    aucs = np.array([o.auc for o in rep1.outcomes])
    assert rep1.mean_auc == pytest.approx(aucs.mean())
    assert rep1.std_auc == pytest.approx(aucs.std())


def _protocol_from_scratch(g, cfg, seed):
    # reference: the protocol with a from-scratch embed_graph per step count
    split = make_split(g, seed)
    pairs = np.vstack([split.positives, split.negatives])
    labels = np.concatenate([np.ones(len(split.positives)), np.zeros(len(split.negatives))])
    sub = _selection_subsample(
        labels, SELECTION_FRACTION, np.random.default_rng(np.random.SeedSequence((seed, 0x5B)))
    )
    embed_seed = int(np.random.SeedSequence((cfg.base_seed, seed, 0xEB)).generate_state(1)[0])
    best = None
    for steps in cfg.step_grid:
        step_cfg = replace(cfg.pipeline, max_steps=steps, seed=embed_seed)
        features = edge_features_mean(embed_graph(split.train_graph, step_cfg).embedding.nodes, pairs)
        for reg in LAMBDA_GRID:
            (score,) = cross_val_auc(features[sub], labels[sub], (reg,), seed=seed)
            if best is None or score > best[0]:
                best = (score, steps, reg, features)
    _, steps, reg, features = best
    return SeedOutcome(seed, steps, reg, cross_val_auc(features, labels, (reg,), seed=seed)[0])


@pytest.mark.parametrize("diffusion", [None, DiffusionConfig(DiffusionVariant.LINEAR)])
def test_shared_split_work_equals_embedding_from_scratch(monkeypatch, diffusion):
    g = erdos_renyi(40, 0.2, seed=13)
    cfg = EvalConfig(pipeline=replace(TINY_PIPELINE, diffusion=diffusion), step_grid=(1, 2, 3), n_seeds=1)
    runs = []

    def recording(graph, step_cfg, prior=None):
        result = embed_graph(graph, step_cfg, prior=prior)
        runs.append((graph, step_cfg, result))
        return result

    monkeypatch.setattr(evaluation, "embed_graph", recording)
    assert evaluate_one_seed(g, cfg, 3) == _protocol_from_scratch(g, cfg, 3)
    assert [step_cfg.max_steps for _, step_cfg, _ in runs] == [3, 1, 2]
    for graph, step_cfg, result in runs:
        fresh = embed_graph(graph, step_cfg)
        assert result.embedding.nodes.tobytes() == fresh.embedding.nodes.tobytes()
        assert result.concatenated.matrix.tobytes() == fresh.concatenated.matrix.tobytes()


def test_orbits_are_counted_once_per_split(monkeypatch):
    calls = []
    original = pipeline.count_edge_orbits

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(pipeline, "count_edge_orbits", counting)
    g = erdos_renyi(35, 0.2, seed=17)
    run_experiment(g, EvalConfig(pipeline=TINY_PIPELINE, step_grid=(1, 2, 3), n_seeds=2))
    assert len(calls) == 2


def test_embedding_and_evaluating_a_graph_leave_its_attributes_alone():
    g = erdos_renyi(35, 0.2, seed=17)
    before = dict(vars(g))
    embed_graph(g, replace(TINY_PIPELINE, diffusion=DiffusionConfig(DiffusionVariant.LINEAR)))
    run_experiment(g, EvalConfig(pipeline=TINY_PIPELINE, step_grid=(1, 2), n_seeds=1))
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[key] is value for key, value in before.items())
