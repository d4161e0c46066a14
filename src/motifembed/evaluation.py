"""Link-prediction evaluation: edge holdout, negative sampling, mean-operator
edge features, from-scratch L2 logistic regression, rank-based AUC, and the
multi-seed experiment protocol with step-count selection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from motifembed.graph import Graph
from motifembed.pipeline import PipelineConfig, embed_graph

log = logging.getLogger("motifembed.evaluation")

# the protocol's L2 regularization grid, cross-validation fold count, and
# the share of labeled pairs on which (steps, lambda) is selected
LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
FOLDS = 10
# every logistic fit stops at this gradient norm (see _settled for
# heavy-tailed features), or else at this many iterations
LOGREG_GRAD_TOL = 1e-6
LOGREG_MAX_ITER = 500
SELECTION_FRACTION = 0.1
DEFAULT_STEP_GRID = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# split construction


@dataclass(frozen=True)
class LinkPredSplit:
    train_graph: Graph
    positives: np.ndarray  # held-out edges, shape (n_pos, 2)
    negatives: np.ndarray  # sampled non-edges, shape (n_pos, 2)


def make_split(g: Graph, seed: int) -> LinkPredSplit:
    """Remove a uniformly random half of the edges as positives and sample an
    equal number of distinct non-adjacent pairs as negatives.

    The train graph keeps every node. Negatives are rejected against the
    ORIGINAL edge set, never against the held-out half.
    """
    m = g.num_edges
    if m < 4:
        raise ValueError("need at least 4 edges to split")
    n_hold = m // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE0)))
    order = rng.permutation(m)
    held = np.sort(order[:n_hold])
    kept = np.sort(order[n_hold:])
    positives = np.stack([g.edge_u[held], g.edge_v[held]], axis=1)
    train = Graph(
        g.num_nodes, g.edge_u[kept], g.edge_v[kept], labels=g.labels.copy()
    )

    n = g.num_nodes
    total_pairs = n * (n - 1) // 2
    if total_pairs - m < n_hold:
        raise ValueError("graph too dense to sample enough negative pairs")
    # candidate pairs come in batches of one rng.integers stream, which draws
    # the same numbers as one scalar call per endpoint; the negatives are the
    # first n_hold distinct non-edges in draw order, within the budget
    budget = 200 * n_hold + 10_000
    drawn = 0
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < n_hold:
        if drawn == budget:
            raise ValueError("negative sampling exhausted its attempt budget")
        batch = min(budget - drawn, max(2 * (n_hold - keys.size), drawn))
        u, v = rng.integers(0, n, size=(batch, 2)).T
        drawn += batch
        u, v = np.minimum(u, v), np.maximum(u, v)
        fresh = (u != v) & (g.edge_ids(u, v) < 0)
        keys = np.concatenate([keys, u[fresh] * n + v[fresh]])
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
    keys = np.sort(keys[:n_hold])
    negatives = np.stack([keys // n, keys % n], axis=1)
    return LinkPredSplit(train_graph=train, positives=positives, negatives=negatives)


# ---------------------------------------------------------------------------
# edge features


def edge_features_mean(node_vectors: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Feature of pair (i, j) is (vec_i + vec_j) / 2."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size and pairs.max() >= node_vectors.shape[0]:
        raise IndexError("pair id out of range")
    if pairs.size and pairs.min() < 0:
        raise IndexError("pair id out of range")
    return (node_vectors[pairs[:, 0]] + node_vectors[pairs[:, 1]]) / 2.0


# ---------------------------------------------------------------------------
# AUC


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Rank-based (tie-averaged ranks), O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tie groups of the sorted scores, as [start, stop) index ranges
    starts = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    stops = np.append(starts[1:], labels.size)
    ranks = np.empty(labels.size, dtype=np.float64)
    # every member of a group gets the group's average 1-based rank
    ranks[order] = np.repeat(0.5 * (starts + stops - 1) + 1.0, stops - starts)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pairwise(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) comparator used as the oracle for :func:`auc`."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels != 1]
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise ValueError("auc needs both classes present")
    total = 0.0
    for p in pos_scores:
        total += float(np.sum(p > neg_scores)) + 0.5 * float(np.sum(p == neg_scores))
    return total / (pos_scores.size * neg_scores.size)


# ---------------------------------------------------------------------------
# logistic regression (from scratch: damped Newton, i.e. IRLS)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(−z)) elementwise, as 1 / (1 + e) for z ≥ 0 and e / (1 + e)
    below, where e = exp(−|z|) ≤ 1, so neither tail overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray
    bias: float
    iterations: int
    converged: bool

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        return _logistic(features @ self.weights + self.bias)


def _penalized_loss(z, labels, weights, reg):
    # mean of log(1 + exp(z)) - y*z, stable for large |z|
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    return loss + 0.5 * reg * float(weights @ weights)


def _weighted_gram(rows: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Xᵀdiag(p(1−p))X/n, the unpenalized Hessian of the mean log-loss, as
    one symmetric rank-k product of the rows of X scaled by √(p(1−p)/n)."""
    scaled = rows * np.sqrt(prob * (1.0 - prob) / len(rows))[:, None]
    return scaled.T @ scaled  # numpy sends a product with its own transpose to syrk


@dataclass(eq=False)
class LogRegDesign:
    """The rows of a logistic fit: the features with an all-ones column
    appended, whose coefficient is the bias.

    Every Newton run of :func:`fit_logreg` starts at coef = 0, where
    p = ½ on every row, so its first Hessian depends on the rows alone. The
    design forms it on first use and gives each fit a copy, so fits of the
    same rows at several regs form it once.
    """

    rows: np.ndarray
    _start_hessian: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def of(cls, features: np.ndarray) -> LogRegDesign:
        """The design of a 2-D feature array, one row per sample."""
        features =np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        return cls(np.hstack([features, np.ones((len(features), 1))]))

    def start_hessian(self) -> np.ndarray:
        """A copy of the unpenalized Hessian at coef = 0."""
        if self._start_hessian is None:
            self._start_hessian = _weighted_gram(self.rows, np.full(len(self.rows), 0.5))
        return self._start_hessian.copy()


def _settled(rows: np.ndarray, grad: np.ndarray, resid: np.ndarray, shrink: np.ndarray) -> bool:
    """Whether a gradient above ``LOGREG_GRAD_TOL`` is within it of zero
    after all, measured against the size of the terms it sums.

    Entry j of ``grad`` sums the terms x_ij·r_i/n and the shrinkage reg·w_j,
    whose size is S_j = Σᵢ|x_ij||r_i|/n + |reg·w_j|. The test is
    ‖grad / max(1, S)‖ ≤ ``LOGREG_GRAD_TOL``, so a heavy-tailed column, whose
    rounding error grows with S_j, gets a tolerance it can reach.
    """
    size = np.abs(rows).T @ np.abs(resid) / len(resid) + np.abs(shrink)
    return bool(np.linalg.norm(grad / np.maximum(size, 1.0)) <= LOGREG_GRAD_TOL)


def fit_logreg(features: np.ndarray | LogRegDesign, labels: np.ndarray, reg: float) -> LogRegModel:
    """Minimize mean log-loss + (reg/2)·‖w‖² (bias unregularized).

    ``features`` is a 2-D array, one row per label, or a
    :class:`LogRegDesign`, whose start Hessian is shared by every fit on it.

    Damped Newton (IRLS) from zero. Each iteration solves the Newton system
    with the Hessian Xᵀdiag(p(1−p))X/n + reg (no reg on the bias), formed as
    one symmetric rank-k product (BLAS syrk) of the rows of X scaled by
    √(p(1−p)/n), and backtracks along that direction until the Armijo
    condition holds.
    ``reg > 0`` makes the problem strictly convex, so the optimum is unique
    and the Hessian is positive definite even for rank-deficient features.
    The fit stops once the gradient norm is at most ``LOGREG_GRAD_TOL``, or,
    on a design with some |feature| above 1, within it relative to the size
    of the terms it sums (:func:`_settled`); a fit that reaches
    ``LOGREG_MAX_ITER`` iterations first is returned with ``converged=False``
    and a warning.
    """
    if not (np.isfinite(reg) and reg > 0):
        raise ValueError(f"reg must be positive and finite, got {reg}")
    design = features if isinstance(features, LogRegDesign) else LogRegDesign.of(features)
    rows = design.rows
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (len(rows),):
        raise ValueError(
            f"labels must be 1-D with one entry per row, got shape {labels.shape} for {len(rows)} rows"
        )
    positive = labels == 1.0
    if not (positive | (labels == 0.0)).all():  # NaN is neither
        raise ValueError("labels must be 0/1")
    if positive.all() or not positive.any():
        raise ValueError("need both classes to fit")
    n, dim = len(rows), rows.shape[1] - 1  # the last coefficient is the bias
    penalty = np.full(dim + 1, reg)
    penalty[-1] = 0.0
    # features within ±1 round too little to need the relative test
    heavy = np.abs(rows).max() > 1.0
    coef = np.zeros(dim + 1)
    z = np.zeros(n)
    obj = _penalized_loss(z, labels, coef[:-1], reg)
    converged = False
    it = 0
    for it in range(1, LOGREG_MAX_ITER + 1):
        prob = _logistic(z)
        resid = prob - labels
        shrink = penalty * coef
        grad = rows.T @ resid / n + shrink
        if np.linalg.norm(grad) <= LOGREG_GRAD_TOL or (heavy and _settled(rows, grad, resid, shrink)):
            converged = True
            break
        hess = design.start_hessian() if it == 1 else _weighted_gram(rows, prob)
        hess.flat[:: dim + 2] += penalty  # the diagonal
        # numpy's LAPACK, not scipy.linalg.cho_solve: the Hessian product runs
        # in numpy's BLAS, and scipy ships a second BLAS with its own thread
        # pool; alternating the two pools made the protocol ~10x slower with
        # unpinned BLAS threads on a 2-vCPU machine
        direction = -np.linalg.solve(hess, grad)
        slope = float(grad @ direction)
        dz = rows @ direction  # the predictor moves linearly in the step
        step = 1.0
        while True:
            cand = coef + step * direction
            cand_z = z + step * dz
            cand_obj = _penalized_loss(cand_z, labels, cand[:-1], reg)
            if cand_obj <= obj + 0.25 * step * slope or step <= 1e-14:
                break
            step *= 0.5
        coef, z, obj = cand, cand_z, cand_obj
    if not converged:
        log.warning(
            "logistic regression stopped at its %d-iteration cap above grad_tol=%g (reg=%g)",
            LOGREG_MAX_ITER,
            LOGREG_GRAD_TOL,
            reg,
        )
    return LogRegModel(weights=coef[:-1], bias=float(coef[-1]), iterations=it, converged=converged)


def _stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator):
    """Index folds with both classes spread evenly; fold count shrinks if a
    class has fewer members than requested folds."""
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels != 1)
    folds = max(2, min(folds, pos_idx.size, neg_idx.size))
    pos_idx = rng.permutation(pos_idx)
    neg_idx = rng.permutation(neg_idx)
    return [
        np.concatenate([chunk_p, chunk_n])
        for chunk_p, chunk_n in zip(np.array_split(pos_idx, folds), np.array_split(neg_idx, folds))
    ]


def cross_val_auc(
    features: np.ndarray,
    labels: np.ndarray,
    regs: tuple[float, ...],
    seed: int = 0,
) -> list[float]:
    """Mean held-out-fold AUC of the model at each of ``regs``, over one
    partition into ``FOLDS`` folds drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCF)))
    parts = _stratified_folds(labels, FOLDS, rng)
    rows = LogRegDesign.of(features).rows  # each fold takes its train rows with one index
    scores = np.empty((len(regs), len(parts)))
    for j, held in enumerate(parts):
        mask = np.ones(labels.size, dtype=bool)
        mask[held] = False
        train_x, train_y = LogRegDesign(rows[mask]), labels[mask]
        held_x, held_y = features[held], labels[held]
        for i, reg in enumerate(regs):
            model = fit_logreg(train_x, train_y, reg)
            scores[i, j] = auc(model.decision_scores(held_x), held_y)
    return [float(np.mean(row)) for row in scores]


def _selection_subsample(labels: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Stratified index subsample used for hyperparameter selection."""
    pos_idx = rng.permutation(np.flatnonzero(labels == 1))
    neg_idx = rng.permutation(np.flatnonzero(labels != 1))
    take_p = max(2, int(round(fraction * pos_idx.size)))
    take_n = max(2, int(round(fraction * neg_idx.size)))
    return np.sort(np.concatenate([pos_idx[:take_p], neg_idx[:take_n]]))


# ---------------------------------------------------------------------------
# experiment protocol


@dataclass(frozen=True)
class EvalConfig:
    pipeline: PipelineConfig
    step_grid: tuple[int, ...]
    n_seeds: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if not self.step_grid or min(self.step_grid) < 1:
            raise ValueError("step_grid must be nonempty, with every step count >= 1")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    chosen_steps: int
    chosen_lambda: float
    auc: float


@dataclass(frozen=True)
class EvalReport:
    outcomes: tuple[SeedOutcome, ...]
    mean_auc: float
    std_auc: float


def _labeled_pairs(split: LinkPredSplit) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.vstack([split.positives, split.negatives])
    labels = np.concatenate(
        [np.ones(len(split.positives)), np.zeros(len(split.negatives))]
    )
    return pairs, labels


def evaluate_one_seed(g: Graph, cfg: EvalConfig, seed: int) -> SeedOutcome:
    """Split, embed the train graph, select (steps, lambda) on the 10%
    stratified subsample, and report the 10-fold CV AUC over all labeled
    pairs at the chosen setting.

    The train graph is embedded from scratch once, at the largest step
    count of the grid; every other grid step passes that result to
    :func:`embed_graph` as its prior, so the orbits are counted and the
    local blocks built once, and each result equals a run from scratch.
    """
    split = make_split(g, seed)
    pairs, labels = _labeled_pairs(split)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B)))
    sub = _selection_subsample(labels, SELECTION_FRACTION, rng)

    embed_seed = int(np.random.SeedSequence((cfg.base_seed, seed, 0xEB)).generate_state(1)[0])
    pipeline_cfg = replace(cfg.pipeline, seed=embed_seed)
    train = split.train_graph
    widest = embed_graph(train, replace(pipeline_cfg, max_steps=max(cfg.step_grid)))

    best = None  # (auc, steps, lambda, features)
    for steps in cfg.step_grid:
        step_cfg = replace(pipeline_cfg, max_steps=steps)
        result = widest if step_cfg == widest.config else embed_graph(train, step_cfg, prior=widest)
        features = edge_features_mean(result.embedding.nodes, pairs)
        scores = cross_val_auc(features[sub], labels[sub], LAMBDA_GRID, seed=seed)
        for reg, score in zip(LAMBDA_GRID, scores):
            # strict > keeps the smallest steps and the first lambda on ties
            if best is None or score > best[0]:
                best = (score, steps, reg, features)

    _, chosen_steps, chosen_lambda, features = best
    (final_auc,) = cross_val_auc(features, labels, (chosen_lambda,), seed=seed)
    return SeedOutcome(seed=seed, chosen_steps=chosen_steps, chosen_lambda=chosen_lambda, auc=final_auc)


def run_experiment(g: Graph, cfg: EvalConfig) -> EvalReport:
    """The full protocol over ``cfg.n_seeds`` consecutive seeds."""
    outcomes = []
    for offset in range(cfg.n_seeds):
        seed = cfg.base_seed + offset
        outcome = evaluate_one_seed(g, cfg, seed)
        log.info("seed %d: steps=%d lambda=%g auc=%.4f", seed, outcome.chosen_steps, outcome.chosen_lambda, outcome.auc)
        outcomes.append(outcome)
    aucs = np.array([o.auc for o in outcomes])
    return EvalReport(outcomes=tuple(outcomes), mean_auc=float(aucs.mean()), std_auc=float(aucs.std()))
