"""End-to-end embedding pipeline.

For every (step k, orbit t) pair: threshold the orbit's counts into a weight
matrix, wrap the implicit k-step operator for the configured matrix kind,
factorize it at the local rank, and column-normalize the left factors. The
blocks are concatenated side by side in k-major order (all orbits for k=1,
then k=2, ...), optionally followed by diffused node features, and the
resulting wide matrix is factorized once more at the global rank, by the
exact minimizer of the regularized fusion objective. Rows of the global
left factor are the node embeddings.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from motifembed.factorize import (
    CcdOptions,
    FactorizeConfig,
    exact_factorize,
    normalize_columns,
    randomized_low_rank,
)
from motifembed.graph import Graph
from motifembed.matrices import MotifMatrixKind, MotifWeightedGraph, build_motif_weight_matrix
from motifembed.operators import KStepOperator
from motifembed.orbits import NUM_ORBITS, EdgeOrbitCounts, count_edge_orbits, node_motif_features

log = logging.getLogger("motifembed.pipeline")

ALL_ORBITS = tuple(range(1, NUM_ORBITS + 1))
# randomized range finder of every local block: extra test columns drawn
# beyond the rank, and power iterations
OVERSAMPLE = 10
POWER_ITERS = 2


class DiffusionVariant(Enum):
    LINEAR = "linear"  # step l multiplies by the k-step matrix at k = l
    TRANSITION_WALK = "transition"  # step l multiplies by the transition matrix
    THETA_SMOOTHING = "theta"  # mix smoothed features with the originals


@dataclass(frozen=True)
class DiffusionConfig:
    """How node features diffuse; they take the pipeline's ``max_steps`` steps."""

    variant: DiffusionVariant
    theta: float | None = None

    def __post_init__(self):
        if self.variant is DiffusionVariant.THETA_SMOOTHING:
            if self.theta is None or not 0.0 < self.theta <= 1.0:
                raise ValueError("theta must be in (0, 1] for the theta variant")
        elif self.theta is not None:
            raise ValueError("theta is only valid for the theta variant")


@dataclass(frozen=True)
class PipelineConfig:
    orbits: tuple[int, ...] = ALL_ORBITS
    max_steps: int = 2
    local_rank: int = 16
    global_rank: int = 128
    kind: MotifMatrixKind = MotifMatrixKind.WEIGHTED_GRAPH
    delta: int = 1
    diffusion: DiffusionConfig | None = None
    ccd: CcdOptions = field(default_factory=CcdOptions)
    seed: int = 0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.local_rank < 1 or self.global_rank < 1:
            raise ValueError("ranks must be >= 1")
        if not self.orbits or any(not 1 <= t <= NUM_ORBITS for t in self.orbits):
            raise ValueError(f"orbits must be a nonempty subset of 1..{NUM_ORBITS}")
        if len(set(self.orbits)) != len(self.orbits):
            raise ValueError("orbits must not repeat")


@dataclass(frozen=True)
class ColumnBlock:
    """Provenance of one column range of the concatenated matrix."""

    tag: str  # "orbit" or "attributes"
    start: int
    stop: int
    orbit: int | None = None
    k: int | None = None
    is_zero: bool = False


@dataclass(frozen=True)
class ConcatenatedEmbeddings:
    matrix: np.ndarray
    blocks: tuple[ColumnBlock, ...]

    def __post_init__(self):
        if self.blocks:
            covered = [(b.start, b.stop) for b in self.blocks]
            pos = 0
            for start, stop in covered:
                if start != pos or stop < start:
                    raise ValueError("blocks must tile the columns exactly")
                pos = stop
            if pos != self.matrix.shape[1]:
                raise ValueError("blocks must tile the columns exactly")


@dataclass(frozen=True)
class GlobalEmbedding:
    nodes: np.ndarray  # N x global rank
    basis: np.ndarray  # global rank x columns(Y)
    residual: float | None
    objective_path: tuple[float, ...] | None = None
    converged: bool | None = None


def _block_seed(seed: int, k: int, orbit: int) -> int:
    return int(np.random.SeedSequence((seed, k, orbit)).generate_state(1)[0])


def orbit_weights(
    g: Graph, counts: EdgeOrbitCounts, cfg: PipelineConfig
) -> dict[int, MotifWeightedGraph]:
    """The weight matrix of each of ``cfg.orbits`` at ``cfg.delta``."""
    return {orbit: build_motif_weight_matrix(g, counts, orbit, cfg.delta) for orbit in cfg.orbits}


def local_embeddings(
    g: Graph, weights: dict[int, MotifWeightedGraph], cfg: PipelineConfig
) -> list[tuple[int, int, np.ndarray, bool]]:
    """Column-normalized local factors, one (k, orbit, U, is_zero) per block,
    from the :func:`orbit_weights` of ``g``.

    Blocks are produced k-major: every orbit at k=1, then every orbit at k=2,
    and so on. Each U has exactly ``cfg.local_rank`` columns; orbits whose
    weight matrix is empty at the configured delta give all-zero blocks, and
    rank shortfalls are zero-padded so the layout never varies.
    """
    n = g.num_nodes
    rank_eff = min(cfg.local_rank, n)
    oversample_eff = min(OVERSAMPLE, n - rank_eff)
    out = []
    for k in range(1, cfg.max_steps + 1):
        for orbit in cfg.orbits:
            wg = weights[orbit]
            if wg.is_empty:
                log.info("orbit %d has no edges at delta=%d; zero block", orbit, cfg.delta)
                out.append((k, orbit, np.zeros((n, cfg.local_rank)), True))
                continue
            op = KStepOperator(wg, cfg.kind, k)
            fac_cfg = FactorizeConfig(
                rank=rank_eff,
                oversample=oversample_eff,
                power_iters=POWER_ITERS,
                seed=_block_seed(cfg.seed, k, orbit),
            )
            factors = randomized_low_rank(op, fac_cfg)
            u = normalize_columns(factors.U)
            if rank_eff < cfg.local_rank:
                u = np.hstack([u, np.zeros((n, cfg.local_rank - rank_eff))])
            out.append((k, orbit, u, False))
    return out


def concatenate_embeddings(
    blocks: list[tuple[int, int, np.ndarray, bool]],
    attributes: np.ndarray | None = None,
) -> ConcatenatedEmbeddings:
    """Stack local blocks (already in k-major order) and optional attributes."""
    mats = []
    provenance = []
    pos = 0
    n = blocks[0][2].shape[0] if blocks else (attributes.shape[0] if attributes is not None else 0)
    for k, orbit, u, is_zero in blocks:
        if u.shape[0] != n:
            raise ValueError("inconsistent node counts across blocks")
        mats.append(u)
        provenance.append(
            ColumnBlock("orbit", pos, pos + u.shape[1], orbit=orbit, k=k, is_zero=is_zero)
        )
        pos += u.shape[1]
    if attributes is not None:
        if attributes.shape[0] != n:
            raise ValueError("attribute rows must match node count")
        mats.append(attributes)
        provenance.append(ColumnBlock("attributes", pos, pos + attributes.shape[1]))
        pos += attributes.shape[1]
    if not mats:
        raise ValueError("nothing to concatenate")
    return ConcatenatedEmbeddings(np.hstack(mats), tuple(provenance))


def global_embedding(
    conc: ConcatenatedEmbeddings,
    rank: int,
    ccd: CcdOptions | None = None,
) -> GlobalEmbedding:
    """Factorize the concatenated matrix at the global rank.

    The factors are the exact minimizer of the regularized fusion objective
    (regularizer ``ccd.reg``). The rank is clamped to the column count when
    the concatenation is narrower than requested (tiny graphs).
    """
    y = conc.matrix
    cols = y.shape[1]
    if rank > cols:
        log.warning("global rank %d clamped to %d columns", rank, cols)
        rank = cols
    cfg = FactorizeConfig(rank=rank, ccd=ccd if ccd is not None else CcdOptions())
    factors = exact_factorize(y, cfg)
    return GlobalEmbedding(
        nodes=factors.U,
        basis=factors.V,
        residual=factors.residual,
        objective_path=factors.objective_path,
        converged=factors.converged,
    )


def diffuse_attributes(
    g: Graph,
    weights: dict[int, MotifWeightedGraph],
    features: np.ndarray,
    cfg: PipelineConfig,
) -> np.ndarray:
    """Propagate node features through each orbit's motif structure, by
    ``cfg.diffusion`` over ``cfg.max_steps`` steps, for each of ``cfg.orbits``
    (their :func:`orbit_weights` of ``g``).

    LINEAR: step l multiplies by the k-step matrix of ``cfg.kind`` at k = l
    (kind(W^l), or P^l for the transition kind; see :class:`KStepOperator`).
    TRANSITION_WALK: every step multiplies by the one-step transition matrix
    (zero motif-degree rows stay zero). THETA_SMOOTHING: every step mixes the
    normalized-Laplacian smoothed features with the originals at weight
    theta. Per-orbit results are concatenated and column-normalized.
    """
    if cfg.diffusion is None:
        raise ValueError("the pipeline config sets no diffusion")
    if features.shape[0] != g.num_nodes:
        raise ValueError("feature rows must match node count")
    dcfg, steps = cfg.diffusion, cfg.max_steps
    parts = []
    for orbit in cfg.orbits:
        wg = weights[orbit]
        current = np.asarray(features, dtype=np.float64)
        if dcfg.variant is DiffusionVariant.LINEAR:
            for step in range(1, steps + 1):
                current = KStepOperator(wg, cfg.kind, step).matmat(current)
        elif dcfg.variant is DiffusionVariant.TRANSITION_WALK:
            current = KStepOperator(wg, MotifMatrixKind.TRANSITION, steps).matmat(current)
        else:
            smooth = KStepOperator(wg, MotifMatrixKind.NORMALIZED_LAPLACIAN, 1)
            for _ in range(steps):
                current = (1.0 - dcfg.theta) * smooth.matmat(current) + dcfg.theta * features
        parts.append(current)
    return normalize_columns(np.hstack(parts))


@dataclass(frozen=True)
class PipelineResult:
    embedding: GlobalEmbedding
    concatenated: ConcatenatedEmbeddings
    counts: EdgeOrbitCounts
    config: PipelineConfig
    # wall seconds per stage: count (0 when counts were given), diffuse
    # (0 without diffusion), local (the local blocks, unless they were
    # given, and the concatenation) and global
    seconds: dict[str, float] = field(default_factory=dict)


def _block_prefix(
    blocks: list[tuple[int, int, np.ndarray, bool]], cfg: PipelineConfig
) -> list[tuple[int, int, np.ndarray, bool]]:
    """The blocks for k <= cfg.max_steps out of a k-major set built at a
    step count of at least cfg.max_steps."""
    expected = [(k, orbit) for k in range(1, cfg.max_steps + 1) for orbit in cfg.orbits]
    prefix = blocks[: len(expected)]
    if [(k, orbit) for k, orbit, _, _ in prefix] != expected:
        raise ValueError(
            f"blocks do not cover max_steps={cfg.max_steps} over orbits {cfg.orbits} in k-major order"
        )
    return prefix


def embed_graph(
    g: Graph,
    cfg: PipelineConfig,
    counts: EdgeOrbitCounts | None = None,
    blocks: list[tuple[int, int, np.ndarray, bool]] | None = None,
) -> PipelineResult:
    """Run the whole pipeline: counts, diffusion, local blocks, global factors.

    ``counts`` and ``blocks`` let a caller share work across runs on the same
    graph. ``blocks`` must come from :func:`local_embeddings` on the orbit
    weights of ``g`` and ``counts``, with ``cfg`` at a step count of at least
    ``cfg.max_steps`` (nothing else changed): block seeds depend only on
    (seed, k, orbit), so the first ``cfg.max_steps`` steps of that set are
    the blocks this run would build.
    """
    seconds: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        seconds[stage] = now - clock
        clock = now

    if counts is None:
        counts = count_edge_orbits(g)
    lap("count")
    # each orbit's weight matrix is built once, by the first stage that reads it
    weights = attributes = None
    if cfg.diffusion is not None:
        weights = orbit_weights(g, counts, cfg)
        attributes = diffuse_attributes(g, weights, node_motif_features(g, counts), cfg)
    lap("diffuse")
    if blocks is None:
        blocks = local_embeddings(g, weights or orbit_weights(g, counts, cfg), cfg)
    else:
        blocks = _block_prefix(blocks, cfg)
    conc = concatenate_embeddings(blocks, attributes)
    del blocks, attributes  # conc holds the only copy the global step needs
    lap("local")
    emb = global_embedding(conc, cfg.global_rank, ccd=cfg.ccd)
    lap("global")
    return PipelineResult(embedding=emb, concatenated=conc, counts=counts, config=cfg, seconds=seconds)
