"""End-to-end embedding pipeline.

For every (step k, orbit t) pair: threshold the orbit's counts into a weight
matrix, wrap the implicit k-step operator for the configured matrix kind,
factorize it at the local rank, and column-normalize the left factors. Each
block is written into its own columns of one local-block matrix, in k-major
order (all orbits for k=1, then k=2, ...), so the blocks of the first s steps
are a column prefix. That prefix, optionally followed by diffused node
features, is factorized once more at the global rank, by the exact minimizer
of the regularized fusion objective. Rows of the global left factor are the
node embeddings.

The raw weights, kind w, keep one block set B: the k=1 blocks. W is
symmetric, so W^k = VΛ^kVᵀ has the singular vectors of W, and the block of
step k would be B with column signs. K such copies have the Gram matrix
K·BBᵀ, so K steps of w fuse √K·B, which has the same node factors (up to
column sign), singular values and fusion optimum.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product
from typing import NamedTuple

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
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class Block(NamedTuple):
    """One column range of a local-block matrix: the factor of ``orbit`` at
    step ``k``, or the diffused attributes when both are None. ``support``
    is how many nodes the orbit's weight matrix touches, its rows that
    can be nonzero; None for the attributes."""

    k: int | None
    orbit: int | None
    columns: slice
    is_zero: bool = False
    support: int | None = None


@dataclass(frozen=True)
class ConcatenatedEmbeddings:
    """A local-block matrix and the records of its blocks, in column order;
    iterating yields the records."""

    matrix: np.ndarray
    blocks: tuple[Block, ...]

    def __post_init__(self):
        pos = 0
        for block in self.blocks:
            if block.columns.start != pos or block.columns.stop < pos:
                raise ValueError("blocks must tile the columns exactly")
            pos = block.columns.stop
        if pos != self.matrix.shape[1]:
            raise ValueError("blocks must tile the columns exactly")

    def __iter__(self):
        return iter(self.blocks)


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


def _block_steps(cfg: PipelineConfig) -> int:
    """How many steps get blocks of their own: all of them, but only k=1
    for kind w, whose K steps fuse the one block set (see the module)."""
    return 1 if cfg.kind is MotifMatrixKind.WEIGHTED_GRAPH else cfg.max_steps


def local_embeddings(
    g: Graph, weights: dict[int, MotifWeightedGraph], cfg: PipelineConfig
) -> ConcatenatedEmbeddings:
    """The read-only local-block matrix of ``g``, from its :func:`orbit_weights`.

    The matrix is Fortran-ordered and starts at zero; each block's
    column-normalized factor is written into its own ``cfg.local_rank``
    columns, k-major: every orbit at k=1, then every orbit at k=2, and so
    on up to ``cfg.max_steps``, except for kind w, which has only the k=1
    blocks at every step count. Orbits whose weight matrix is empty at the
    configured delta keep all-zero blocks, and a rank shortfall leaves the
    trailing columns of a block zero, so the layout never varies. Each
    block is a randomized factorization of its k-step matrix and depends
    only on (seed, k, orbit).

    A block is factorized on its support S, the nodes the orbit's weight
    matrix touches (:meth:`~motifembed.matrices.MotifWeightedGraph.on_support`):
    every kind gives the nodes outside S all-zero rows and columns, so the
    k-step matrix is K[S, S] padded with zeros, and the factorization of
    K[S, S] from rows S of the block's unchanged test draw fills rows S of
    the block (see :func:`randomized_low_rank`). A support of every node is
    the whole matrix, whose factorization is the unrestricted one.
    """
    r, n = cfg.local_rank, g.num_nodes
    pairs = list(product(range(1, _block_steps(cfg) + 1), cfg.orbits))
    matrix = np.zeros((n, len(pairs) * r), order="F")
    restricted = {orbit: weights[orbit].on_support() for orbit in cfg.orbits}
    blocks = []
    for i, (k, orbit) in enumerate(pairs):
        columns = slice(i * r, (i + 1) * r)
        nodes, wg = restricted[orbit]
        log.info("orbit %d at k=%d: support of %d of %d nodes%s", orbit, k, len(nodes), n,
                 f"; no edges at delta={cfg.delta}, zero block" if wg.is_empty else "")
        if not wg.is_empty:
            op = KStepOperator(wg, cfg.kind, k)
            fac_cfg = FactorizeConfig(
                rank=cfg.local_rank,
                oversample=OVERSAMPLE,
                power_iters=POWER_ITERS,
                seed=_block_seed(cfg.seed, k, orbit),
            )
            factors = randomized_low_rank(op, fac_cfg, support=(n, nodes))
            matrix[:, columns] = normalize_columns(factors.U)
        blocks.append(Block(k, orbit, columns, wg.is_empty, len(nodes)))
    matrix.flags.writeable = False
    return ConcatenatedEmbeddings(matrix, tuple(blocks))


def global_embedding(
    conc: ConcatenatedEmbeddings,
    rank: int,
    ccd: CcdOptions | None = None,
) -> GlobalEmbedding:
    """Factorize the concatenated matrix at the global rank.

    The factors are the exact minimizer of the regularized fusion objective
    (regularizer ``ccd.reg``), with ``rank`` components; those past what the
    matrix supports are zero (see :func:`exact_factorize`).
    """
    cfg = FactorizeConfig(rank=rank, ccd=ccd if ccd is not None else CcdOptions())
    factors = exact_factorize(conc.matrix, cfg)
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
    concatenated: ConcatenatedEmbeddings  # the matrix that was fused
    # the unscaled local blocks of this run's steps, which a later run can
    # borrow as its prior: a read-only view of the fused matrix's prefix,
    # except for kind w at max_steps >= 2, which fuses them scaled
    local: ConcatenatedEmbeddings
    counts: EdgeOrbitCounts
    config: PipelineConfig
    # wall seconds per stage: count (0 with a prior), diffuse (0 without
    # diffusion), local (the local blocks, unless a prior lent them) and
    # global
    seconds: dict[str, float] = field(default_factory=dict)


def _fusion_input(
    local: ConcatenatedEmbeddings, cfg: PipelineConfig, attributes: np.ndarray | None
) -> tuple[ConcatenatedEmbeddings, ConcatenatedEmbeddings]:
    """The fusion input of ``cfg``, and the local blocks of its steps, from
    a local set built at a step count of at least cfg.max_steps.

    Those blocks are a column prefix of the local set: its first
    cfg.max_steps × len(cfg.orbits) blocks, or for kind w its k=1 blocks B.
    The fusion input is that prefix, scaled to √K·B for kind w at
    K = cfg.max_steps >= 2, followed by the attributes when given. When
    neither applies it is a view of the local set; otherwise it is a fresh
    read-only matrix, and the returned blocks are a view of its prefix
    unless that prefix is scaled.
    """
    steps = _block_steps(cfg)
    blocks = local.blocks[: steps * len(cfg.orbits)]
    width = blocks[-1].columns.stop
    prefix = local.matrix[:, :width]
    scale = np.sqrt(cfg.max_steps) if steps < cfg.max_steps else 1.0
    if attributes is None and scale == 1.0:
        own = ConcatenatedEmbeddings(prefix, blocks)
        return own, own
    fused_blocks = blocks
    if attributes is not None:
        fused_blocks = (*blocks, Block(None, None, slice(width, width + attributes.shape[1])))
    matrix = np.empty((len(prefix), fused_blocks[-1].columns.stop), order="F")
    np.multiply(prefix, scale, out=matrix[:, :width])
    if attributes is not None:
        matrix[:, width:] = attributes
    matrix.flags.writeable = False
    own = prefix if scale != 1.0 else matrix[:, :width]
    return ConcatenatedEmbeddings(matrix, fused_blocks), ConcatenatedEmbeddings(own, blocks)


def embed_graph(g: Graph, cfg: PipelineConfig, prior: PipelineResult | None = None) -> PipelineResult:
    """Run the whole pipeline: counts, diffusion, local blocks, global factors.

    ``prior``, an earlier result on ``g``, lends this run its orbit counts
    and, through ``prior.local``, its local blocks. Block seeds depend only
    on (seed, k, orbit), so a prior run at a step count of at least
    ``cfg.max_steps``, its config otherwise differing at most in global
    rank, diffusion and fusion options, holds this run's blocks as a column
    prefix (for kind w, the same k=1 blocks at every step count), and the
    result equals a run from scratch; any other prior raises ValueError.
    Without diffusion, and unless kind w scales them, the fused matrix is a
    view of those blocks.
    """
    if prior is not None:
        shared = replace(prior.config, max_steps=cfg.max_steps, global_rank=cfg.global_rank,
                         diffusion=cfg.diffusion, ccd=cfg.ccd)
        if prior.config.max_steps < cfg.max_steps or shared != cfg or prior.counts.graph != g:
            raise ValueError(
                f"the prior does not hold the blocks of max_steps={cfg.max_steps}: it must come from"
                " the same graph, at least that many steps, and the same orbits, local_rank, kind,"
                " delta and seed"
            )
    seconds: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        seconds[stage] = now - clock
        clock = now

    counts = count_edge_orbits(g) if prior is None else prior.counts
    lap("count")
    # each orbit's weight matrix is built once, by the first stage that reads it
    weights = attributes = None
    if cfg.diffusion is not None:
        weights = orbit_weights(g, counts, cfg)
        attributes = diffuse_attributes(g, weights, node_motif_features(g, counts), cfg)
    lap("diffuse")
    if prior is None:
        local = local_embeddings(g, weights or orbit_weights(g, counts, cfg), cfg)
    else:
        local = prior.local
    # local now holds only this run's blocks, as a view of conc where it can
    conc, local = _fusion_input(local, cfg, attributes)
    del attributes
    lap("local")
    emb = global_embedding(conc, cfg.global_rank, ccd=cfg.ccd)
    lap("global")
    return PipelineResult(embedding=emb, concatenated=conc, local=local, counts=counts, config=cfg,
                          seconds=seconds)
