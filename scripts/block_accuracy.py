#!/usr/bin/env python3
"""Print how much of its k-step matrix each local block captures.

    PYTHONPATH=src python scripts/block_accuracy.py EDGES [--kind w] [--k 2] [--delta 1] [--seed 0]

Builds the pipeline's local blocks of the edge list EDGES (``u v`` per
line, at most 5000 nodes) as ``embed`` does, and prints one line per
(k, orbit) block: its support (the nodes its weight matrix touches), its
achieved rank (its nonzero columns) and its captured energy

    ‖A Q‖²_F / (σ₁² + … + σ_r²),

where A is the dense k-step matrix, Q the block's normalized columns and
σ₁ ≥ σ₂ ≥ … the singular values of A from numpy's ``eigvalsh``, r the local
rank. Captured energy is 1 for an exact top-r subspace, and unlike the
principal angles to one, it does not depend on which basis of a tie at the
rank boundary either side picked. The last line is the minimum and mean
over the nonzero blocks.
"""

import argparse

import numpy as np

from motifembed.graph import load_edge_list
from motifembed.matrices import MotifMatrixKind
from motifembed.operators import dense_kstep
from motifembed.orbits import count_edge_orbits
from motifembed.pipeline import PipelineConfig, local_embeddings, orbit_weights

MAX_NODES = 5000  # a dense k-step matrix of n nodes takes 8n² bytes
SYMMETRIC_KINDS = {MotifMatrixKind.WEIGHTED_GRAPH, MotifMatrixKind.LAPLACIAN,
                   MotifMatrixKind.NORMALIZED_LAPLACIAN}


def squared_singular_values(a: np.ndarray, kind: MotifMatrixKind) -> np.ndarray:
    """σᵢ² of a, largest first."""
    if kind in SYMMETRIC_KINDS:
        squared = np.linalg.eigvalsh(a) ** 2
    else:
        squared = np.maximum(np.linalg.eigvalsh(a.T @ a), 0.0)
    return np.sort(squared)[::-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("edges")
    parser.add_argument("--kind", choices=[k.value for k in MotifMatrixKind], default=PipelineConfig.kind.value)
    parser.add_argument("--k", type=int, default=PipelineConfig.max_steps)
    parser.add_argument("--delta", type=int, default=PipelineConfig.delta)
    parser.add_argument("--seed", type=int, default=PipelineConfig.seed)
    args = parser.parse_args()

    g = load_edge_list(args.edges)
    if g.num_nodes > MAX_NODES:
        parser.error(f"{g.num_nodes} nodes: the dense reference takes at most {MAX_NODES}")
    cfg = PipelineConfig(kind=MotifMatrixKind(args.kind), max_steps=args.k, delta=args.delta, seed=args.seed)
    weights = orbit_weights(g, count_edge_orbits(g), cfg)
    local = local_embeddings(g, weights, cfg)
    print(f"{g.num_nodes} nodes, kind {args.kind}, k up to {args.k}, delta {args.delta}, seed {args.seed}")
    print("   k  orbit  support  rank  captured")
    captured = []
    for block in local:
        q = local.matrix[:, block.columns]
        rank = int(np.count_nonzero(np.abs(q).max(axis=0)))
        line = f"{block.k:4d}  {block.orbit:5d}  {block.support:7d}  {rank:4d}"
        if block.is_zero:
            print(line + "  zero block")
            continue
        nodes, wg = weights[block.orbit].on_support()
        a = dense_kstep(wg, cfg.kind, block.k)
        top = squared_singular_values(a, cfg.kind)[: cfg.local_rank].sum()
        captured.append(float(np.sum((a @ q[nodes]) ** 2) / top))
        print(line + f"  {captured[-1]:.4f}")
    if captured:
        print(f"captured energy over {len(captured)} blocks: min {min(captured):.4f}  mean {np.mean(captured):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
