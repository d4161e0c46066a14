"""Exact per-edge counts of the 13 connected edge orbits on 2-4 vertices.

Orbit taxonomy (1-based ids, fixed):
  O1  the edge itself
  O2  wedge edge
  O3  triangle edge
  O4  4-path end edge
  O5  4-path middle edge
  O6  4-star edge
  O7  4-cycle edge
  O8  tailed-triangle tail edge
  O9  tailed-triangle triangle edge incident to the attachment node
  O10 tailed-triangle triangle edge opposite the attachment node
  O11 diamond cycle edge
  O12 diamond chord edge
  O13 4-clique edge

All counts are induced: a subgraph on a vertex subset contains every edge
between those vertices.

The counter works on the int64 sparse adjacency A, so every count is exact.
For edge e = (i, j) let Ri = A[i], Rj = A[j] and C = Ri∘Rj (common
neighbours). Per edge it takes

  T  = rowsum C                      triangles through e
  Q  = rowsum((Ri·A)∘Rj) = (A³)ij    3-walks from i to j
  P  = C·A,  S = rowsum P            degree sum over the common neighbours
  D  = rowsum(P∘(Ri + Rj))
  2K = rowsum(P∘C)                   K: 4-cliques through e

and, with node triangles t (half the sum of T over incident edges),
degrees d, si = di − 1 − T and NS = A·d (neighbour-degree sums), the
relations of PGD (Ahmed, Neville, Rossi, Duffield, ICDM 2015) give

  O1 = 1,  O2 = si + sj,  O3 = T,  O13 = K,  O12 = T(T−1)/2 − K
  O11 = D − 2T − 4K
  O10 = S − O11 − 2K − 2T
  O9  = T·O2 − O11
  O8  = ti + tj − 2T − 2K − O11
  O6  = C(si, 2) + C(sj, 2) − O8
  O7  = Q − di − dj + 1 − O11 − 2K
  O5  = si·sj − O7
  O4  = NSi + NSj − di − dj − 2S − 2·O8 − 2·O7 − O11 − O2

The brute-force oracle enumerates vertex subsets and classifies the
induced subgraph by its degree sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from motifembed.factorize import normalize_columns
from motifembed.graph import Graph

NUM_ORBITS = 13

# wedges (neighbour-degree sums over both endpoints) per chunk of edges; it
# bounds the size of the chunk's sparse products, not the edge count
_CHUNK_WORK = 1 << 19


@dataclass(frozen=True)
class EdgeOrbitCounts:
    """M x 13 table of per-edge orbit counts, bound to a graph by fingerprint."""

    counts: np.ndarray
    graph_fingerprint: str

    def __post_init__(self):
        c = self.counts
        if c.ndim != 2 or c.shape[1] != NUM_ORBITS:
            raise ValueError(f"counts must be M x {NUM_ORBITS}")
        c.flags.writeable = False

    def orbit_column(self, orbit: int) -> np.ndarray:
        """Counts for one orbit id in 1..13, a length-M vector."""
        if not 1 <= orbit <= NUM_ORBITS:
            raise ValueError(f"orbit id must be in 1..{NUM_ORBITS}, got {orbit}")
        return self.counts[:, orbit - 1]


def _row_sums(x: sp.csr_matrix) -> np.ndarray:
    return np.asarray(x.sum(axis=1), dtype=np.int64).ravel()


def count_edge_orbits(g: Graph) -> EdgeOrbitCounts:
    """Exact induced orbit counts for every edge.

    Rows follow the graph's canonical edge order. Edges go through the
    sparse products in chunks of at most ``_CHUNK_WORK`` wedges (a single
    edge above the bound gets a chunk of its own); the arithmetic is int64
    throughout, so the counts do not depend on the chunking.
    """
    n, m = g.num_nodes, g.num_edges
    eu, ev = g.edge_u, g.edge_v
    ones = np.ones(2 * m, dtype=np.int64)
    a = sp.csr_matrix((ones, (np.concatenate([eu, ev]), np.concatenate([ev, eu]))), shape=(n, n))
    deg = g.degrees.astype(np.int64)
    nbr_deg = a @ deg  # NS: neighbour-degree sum per node
    work = np.cumsum(nbr_deg[eu] + nbr_deg[ev])  # wedges up to and including each edge

    # every per-edge quantity lives in a column of the final table: the loop
    # writes T, K and the raw Q, S and D, and the relations below turn Q, S
    # and D into O7, O10 and O11 in place
    table = np.empty((m, NUM_ORBITS), dtype=np.int64)
    o1, o2, tri, o4, o5, o6, o7, o8, o9, o10, o11, o12, k = table.T
    lo = 0
    while lo < m:
        base = work[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(work, base + _CHUNK_WORK, side="right")))
        ri, rj = a[eu[lo:hi]], a[ev[lo:hi]]
        common = ri.multiply(rj)
        p = common @ a
        tri[lo:hi] = _row_sums(common)
        o7[lo:hi] = _row_sums((ri @ a).multiply(rj))  # Q
        o10[lo:hi] = _row_sums(p)  # S
        o11[lo:hi] = _row_sums(p.multiply(ri + rj))  # D
        k[lo:hi] = _row_sums(p.multiply(common)) // 2
        lo = hi

    node_tri = np.zeros(n, dtype=np.int64)
    np.add.at(node_tri, eu, tri)
    np.add.at(node_tri, ev, tri)
    node_tri //= 2
    si, sj = deg[eu] - 1 - tri, deg[ev] - 1 - tri

    o1[:] = 1
    np.add(si, sj, out=o2)
    o11 -= 2 * tri + 4 * k
    o8[:] = node_tri[eu] + node_tri[ev] - 2 * tri - 2 * k - o11
    o7 -= deg[eu] + deg[ev] - 1 + o11 + 2 * k
    o4[:] = nbr_deg[eu] + nbr_deg[ev] - deg[eu] - deg[ev] - 2 * o10 - 2 * o8 - 2 * o7 - o11 - o2
    o10 -= o11 + 2 * k + 2 * tri
    o9[:] = tri * o2 - o11
    o6[:] = si * (si - 1) // 2 + sj * (sj - 1) // 2 - o8
    o5[:] = si * sj - o7
    o12[:] = tri * (tri - 1) // 2 - k
    return EdgeOrbitCounts(table, g.fingerprint())


def brute_force_orbit_counts(g: Graph, node_cap: int = 64) -> EdgeOrbitCounts:
    """Oracle: enumerate all 2-4 vertex subsets and classify induced subgraphs.

    Deliberately independent of the closed-form counter; the only shared code
    is the Graph itself. Refuses graphs above ``node_cap`` nodes.
    """
    if g.num_nodes > node_cap:
        raise ValueError(f"oracle refuses graphs above {node_cap} nodes, got {g.num_nodes}")
    adj = g.adjacency_sets()
    counts = np.zeros((g.num_edges, NUM_ORBITS), dtype=np.int64)
    counts[:, 0] = 1  # every edge is the 2-vertex graphlet once

    for a, b, c in combinations(range(g.num_nodes), 3):
        present = [(a, b, b in adj[a]), (a, c, c in adj[a]), (b, c, c in adj[b])]
        ne = sum(p for _, _, p in present)
        if ne == 3:
            for x, y, _ in present:
                counts[g.edge_id(x, y), 2] += 1
        elif ne == 2:
            for x, y, p in present:
                if p:
                    counts[g.edge_id(x, y), 1] += 1

    for quad in combinations(range(g.num_nodes), 4):
        pairs = list(combinations(quad, 2))
        present = [v in adj[u] for u, v in pairs]
        ne = sum(present)
        if ne < 3:
            continue
        deg = dict.fromkeys(quad, 0)
        for (u, v), p in zip(pairs, present):
            if p:
                deg[u] += 1
                deg[v] += 1
        if min(deg.values()) == 0:
            continue
        live = [uv for uv, p in zip(pairs, present) if p]
        if ne == 3:
            if max(deg.values()) == 3:
                orbit_ix = [5] * 3  # star
            else:
                orbit_ix = [4 if deg[u] == 2 and deg[v] == 2 else 3 for u, v in live]
        elif ne == 4:
            if max(deg.values()) == 3:  # tailed triangle
                orbit_ix = []
                for u, v in live:
                    du, dv = deg[u], deg[v]
                    if 1 in (du, dv):
                        orbit_ix.append(7)
                    elif 3 in (du, dv):
                        orbit_ix.append(8)
                    else:
                        orbit_ix.append(9)
            else:
                orbit_ix = [6] * 4  # 4-cycle
        elif ne == 5:
            orbit_ix = [11 if deg[u] == 3 and deg[v] == 3 else 10 for u, v in live]
        else:
            orbit_ix = [12] * 6  # 4-clique
        for (u, v), ix in zip(live, orbit_ix):
            counts[g.edge_id(u, v), ix] += 1

    return EdgeOrbitCounts(counts, g.fingerprint())


def node_motif_features(g: Graph, counts: EdgeOrbitCounts) -> np.ndarray:
    """N x 52 node feature matrix from per-edge orbit counts.

    Base block: per-orbit sums over incident edges (the per-orbit motif
    degree). Then sum, mean, and max of neighbors' base features. Columns are
    unit-Euclidean-normalized; degree-0 nodes get zero aggregates.
    """
    if counts.graph_fingerprint != g.fingerprint():
        raise ValueError("orbit counts were computed for a different graph")
    n = g.num_nodes
    table = counts.counts.astype(np.float64)
    base = np.zeros((n, NUM_ORBITS))
    np.add.at(base, g.edge_u, table)
    np.add.at(base, g.edge_v, table)

    nbr_sum = np.zeros_like(base)
    np.add.at(nbr_sum, g.edge_u, base[g.edge_v])
    np.add.at(nbr_sum, g.edge_v, base[g.edge_u])

    deg = g.degrees.astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    nbr_mean = nbr_sum * inv_deg[:, None]

    nbr_max = np.zeros_like(base)
    np.maximum.at(nbr_max, g.edge_u, base[g.edge_v])
    np.maximum.at(nbr_max, g.edge_v, base[g.edge_u])

    return normalize_columns(np.hstack([base, nbr_sum, nbr_mean, nbr_max]))
