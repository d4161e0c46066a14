"""Random graph generators for tests and benchmarks.

Both generators sample each candidate pair independently with its own
probability, using geometric gap skipping so cost scales with the expected
edge count, not the number of candidate pairs.
"""

from __future__ import annotations

import numpy as np

from motifembed.graph import Graph


def _sample_pair_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, total) hit by independent Bernoulli(p) draws."""
    if total <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    out = []
    pos = -1
    batch = max(int(total * p * 1.2) + 16, 1024)
    while True:
        gaps = rng.geometric(p, size=batch)
        hits = pos + np.cumsum(gaps)
        if hits[-1] >= total:
            out.append(hits[hits < total])
            break
        out.append(hits)
        pos = int(hits[-1])
    return np.concatenate(out)


def _triangular_to_pair(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (u, v), u < v < n, whose
    row r starts at index r(2n − r − 1)/2."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(starts, index, side="right") - 1
    return u, index - starts[u] + u + 1


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): every pair independently an edge with probability p."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    hit = _sample_pair_indices(total, p, rng)
    u, v = _triangular_to_pair(hit, n)
    return Graph(n, u, v)


def erdos_renyi_average_degree(n: int, avg_degree: float, seed: int) -> Graph:
    """G(n, p) with p chosen so the expected degree is ``avg_degree``, which
    must not exceed n − 1 (the complete graph)."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes for an average degree, got {n}")
    if avg_degree > n - 1:
        raise ValueError(f"average degree {avg_degree:g} exceeds n - 1 = {n - 1}")
    return erdos_renyi(n, avg_degree / (n - 1), seed)


def two_block_sbm(
    n: int, p_in: float, p_out: float, seed: int
) -> tuple[Graph, np.ndarray]:
    """Two equal blocks: within-block pairs at p_in, cross pairs at p_out.

    Returns the graph and the 0/1 block assignment per node.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    blocks = np.zeros(n, dtype=np.int64)
    blocks[half:] = 1

    parts_u: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    for base in (0, half):
        size = half if base == 0 else n - half
        hit = _sample_pair_indices(size * (size - 1) // 2, p_in, rng)
        u, v = _triangular_to_pair(hit, size)
        parts_u.append(u + base)
        parts_v.append(v + base)

    cross_total = half * (n - half)
    hit = _sample_pair_indices(cross_total, p_out, rng)
    parts_u.append(hit // (n - half))
    parts_v.append(hit % (n - half) + half)

    u = np.concatenate(parts_u)
    v = np.concatenate(parts_v)
    return Graph.from_edges(n, np.stack([u, v], axis=1)), blocks


# fixed small fixtures used across the test-suite


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)
