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

For edge e = (i, j) with common neighbours C = N(i) ∩ N(j) the counter
takes five raw terms:

  T  = |C|                           triangles through e
  Q  = (A³)ij                        3-walks from i to j
  S  = Σ_{k∈C} d_k                   degree sum over the common neighbours
  D  = Σ_{k∈C} T(ik) + T(jk)
  K  = edges among C                 4-cliques through e

It gets them from listings over the degree order: nodes ranked by
(degree, id), and one CSR over both edge directions whose rows are sorted
by neighbour rank, every slot carrying its edge id. An oriented wedge
(v; u; w) is a path v-u-w in which v outranks both u and w; it comes from
a slot u→v and one of the slots before it in u's row.

  4-cycles  Wedges grouped by the endpoint pair (v, w): a group of c
            wedges closes c(c−1)/2 4-cycles, each counted exactly once,
            at its top-ranked vertex v. Every wedge adds c − 1 to both of
            its edges, which gives C4, the (not necessarily induced)
            4-cycles through each edge. Q = C4 + di + dj − 1, since a
            3-walk i-a-b-j not round a 4-cycle has a = j (dj walks) or
            b = i (di walks), and i-j-i-j has both.
  triangles The wedges whose centre u is their lowest vertex are the
            candidates x = u < y = w < z = v; those with y–z an edge list
            each triangle once, with its three edge ids. T counts them per
            edge, S adds the third vertex's degree, D adds T(ik) + T(jk).
  4-cliques For each triangle x < y < z, every w ranked above z in z's
            row that is adjacent to x and y closes a 4-clique, listed once;
            it adds 1 to all six of its edges.

Every adjacency test is also the edge-id lookup: one ``searchsorted`` over
the oriented keys v·n + rank(u) of the edges, v the higher-ranked end,
which the rank-sorted CSR yields in ascending order. The wedge groups come
out of their sort with keys of the same form, so their lookups run over
ascending queries.

Under the degree order the wedges number at most Σₑ min(dᵢ, dⱼ) = O(α·M),
α the arboricity (Chiba & Nishizeki, SIAM J. Comput. 1985): a hub's
wedges are paid for by its lower-degree neighbours, never by walking its
2-hop row. Each triangle's 4-clique candidates, the higher-ranked
neighbours of its top vertex, are at most √(2M). The wedges go through
in chunks of at most ``_CHUNK_WEDGES`` (a chunk holds all wedges of its
top vertices, so one vertex above the bound gets a chunk of its own), and
the 4-clique candidates in chunks of triangles under the same bound.
Every sum is int64, so the counts are exact and do not depend on the
chunking.

With node triangles t (half the sum of T over incident edges), degrees
d, si = di − 1 − T and NS = A·d (neighbour-degree sums), the relations of
PGD (Ahmed, Neville, Rossi, Duffield, ICDM 2015) give

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

Counts keep the Graph they were counted on, and every table derived from
them accepts only a graph equal to it (``Graph.__eq__``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from motifembed.factorize import normalize_columns
from motifembed.graph import Graph

NUM_ORBITS = 13

# oriented wedges per chunk of top vertices, and 4-clique candidates per
# chunk of triangles; the bound caps the chunk's working arrays
_CHUNK_WEDGES = 1 << 18


@dataclass(frozen=True)
class EdgeOrbitCounts:
    """M x 13 table of per-edge orbit counts, which keeps the Graph it was
    counted on."""

    counts: np.ndarray
    graph: Graph

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


def _expand(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [start, start + length) laid end to end: for every
    position, the index of its range and the position itself."""
    which = np.repeat(np.arange(lengths.size), lengths)
    shift = starts - (np.cumsum(lengths) - lengths)
    return which, np.arange(which.size) + shift[which]


def _chunks(cum: np.ndarray, bound: int) -> list[tuple[int, int]]:
    """Consecutive runs [lo, hi) of units whose work, read off the running
    total ``cum`` (cum[0] = 0, one entry per unit after it), stays within
    ``bound``; a unit above the bound is a run of its own."""
    runs, lo, end = [], 0, cum.size - 1
    while lo < end:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] + bound, side="right")) - 1)
        runs.append((lo, hi))
        lo = hi
    return runs


def _raw_terms(g: Graph) -> tuple[np.ndarray, ...]:
    """The per-edge raw terms T, Q, S, D and K of the module docstring,
    int64 in canonical edge order."""
    n, m = g.num_nodes, g.num_edges
    deg = g.degrees.astype(np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    # the rank-sorted CSR over both directions: slot s leads from src[s] to
    # nbr[s] along edge[s], and is direction order[s] of the unsorted
    # concatenation, in which direction i's reverse is i ± m
    src = np.concatenate([g.edge_u, g.edge_v])
    nbr = np.concatenate([g.edge_v, g.edge_u])
    order = np.argsort(src * n + rank[nbr])
    src, nbr, edge = src[order], nbr[order], order % m
    off = g.adjacency.indptr.astype(np.int64)

    # one entry per edge, from its top (higher-ranked) end v, grouped by v:
    # the low end u, and the slots before u→v in u's row, which hold the
    # partners w of u's wedges under v. Each row lists its lower-ranked
    # neighbours first, so up_start[x] is where x's higher-ranked ones begin.
    down = np.flatnonzero(rank[nbr] < rank[src])
    top, low, low_edge = src[down], nbr[down], edge[down]
    del src
    slot_of = np.empty(2 * m, dtype=np.int64)
    slot_of[order] = np.arange(2 * m)
    wedge_count = slot_of[(order[down] + m) % (2 * m)] - off[low]
    del order, slot_of, down  # free the 2M-slot temporaries before the wedge loop
    top_end = np.concatenate([[0], np.cumsum(np.bincount(top, minlength=n))])
    up_start = off[:-1] + np.diff(top_end)
    cum = np.concatenate([[0], np.cumsum(wedge_count)])[top_end]
    # the entries' keys v·n + rank(u) ascend, since every row is sorted
    pair_keys = top * n + rank[low]

    def edge_ids(keys):
        """The edge id of each key v·n + rank(u), v above u, or -1 where
        u–v is not an edge."""
        ix = np.minimum(np.searchsorted(pair_keys, keys), m - 1)
        return np.where(pair_keys[ix] == keys, low_edge[ix], -1)

    c4 = np.zeros(m, dtype=np.int64)
    triangles = []
    for lo, hi in _chunks(cum, _CHUNK_WEDGES):
        a, b = top_end[lo], top_end[hi]
        which, pos = _expand(off[low[a:b]], wedge_count[a:b])
        which += a
        pairs, group, size = np.unique(
            top[which] * n + rank[nbr[pos]], return_inverse=True, return_counts=True
        )
        closes = size[group] - 1
        shared = closes > 0
        np.add.at(c4, low_edge[which[shared]], closes[shared])
        np.add.at(c4, edge[pos[shared]], closes[shared])
        # a wedge whose centre u ranks below w (w sits among u's
        # higher-ranked neighbours) is a triangle when v–w is an edge
        e_vw = edge_ids(pairs)[group]
        keep = (e_vw >= 0) & (pos >= up_start[low[which]])
        which, pos = which[keep], pos[keep]
        triangles.append(
            np.stack([low[which], nbr[pos], top[which], edge[pos], low_edge[which], e_vw[keep]])
        )
    # one column per triangle x < y < z (by rank): x, y, z, e_xy, e_xz, e_yz
    tri_list = np.concatenate(triangles, axis=1)
    corners, sides = tri_list[:3], tri_list[3:]

    tri = np.bincount(sides.ravel(), minlength=m)
    q = c4 + deg[g.edge_u] + deg[g.edge_v] - 1
    s = np.zeros(m, dtype=np.int64)
    np.add.at(s, sides.ravel(), deg[corners[::-1]].ravel())  # each side's opposite corner
    side_tri = tri[sides]
    d = np.zeros(m, dtype=np.int64)
    np.add.at(d, sides.ravel(), (side_tri.sum(axis=0) - side_tri).ravel())

    k = np.zeros(m, dtype=np.int64)
    z = corners[2]
    above = off[z + 1] - up_start[z]
    for lo, hi in _chunks(np.concatenate([[0], np.cumsum(above)]), _CHUNK_WEDGES):
        which, pos = _expand(up_start[z[lo:hi]], above[lo:hi])
        which += lo
        e_xw = edge_ids(nbr[pos] * n + rank[corners[0, which]])
        hit = e_xw >= 0
        which, pos, e_xw = which[hit], pos[hit], e_xw[hit]
        e_yw = edge_ids(nbr[pos] * n + rank[corners[1, which]])
        hit = e_yw >= 0
        clique_edges = [sides[:, which[hit]].ravel(), e_xw[hit], e_yw[hit], edge[pos[hit]]]
        k += np.bincount(np.concatenate(clique_edges), minlength=m)
    return tri, q, s, d, k


def count_edge_orbits(g: Graph) -> EdgeOrbitCounts:
    """Exact induced orbit counts for every edge.

    Rows follow the graph's canonical edge order. The raw terms come from
    the degree-ordered listings of the module docstring, and the PGD
    relations turn them into the 13 orbits; all arithmetic is int64.
    """
    n = g.num_nodes
    eu, ev = g.edge_u, g.edge_v
    deg = g.degrees.astype(np.int64)
    # NS: neighbour-degree sum per node
    nbr_deg = np.zeros(n, dtype=np.int64)
    np.add.at(nbr_deg, eu, deg[ev])
    np.add.at(nbr_deg, ev, deg[eu])

    # every per-edge quantity lives in a column of the final table: the raw
    # Q, S and D land in the O7, O10 and O11 columns, and the relations
    # below turn them into those orbits in place; column order keeps each
    # column contiguous for them
    table = np.empty((g.num_edges, NUM_ORBITS), dtype=np.int64, order="F")
    o1, o2, tri, o4, o5, o6, o7, o8, o9, o10, o11, o12, k = table.T
    tri[:], o7[:], o10[:], o11[:], k[:] = _raw_terms(g)

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
    return EdgeOrbitCounts(table, g)


def brute_force_orbit_counts(g: Graph, node_cap: int = 64) -> EdgeOrbitCounts:
    """Oracle: enumerate all 2-4 vertex subsets and classify induced subgraphs.

    Deliberately independent of the closed-form counter; the only shared code
    is the Graph itself. Refuses graphs above ``node_cap`` nodes.
    """
    if g.num_nodes > node_cap:
        raise ValueError(f"oracle refuses graphs above {node_cap} nodes, got {g.num_nodes}")
    # a dense edge-id table, -1 off the edges: the oracle's own lookup
    table = np.full((g.num_nodes, g.num_nodes), -1, dtype=np.int64)
    table[g.edge_u, g.edge_v] = table[g.edge_v, g.edge_u] = np.arange(g.num_edges)
    eid = table.tolist()
    counts = np.zeros((g.num_edges, NUM_ORBITS), dtype=np.int64)
    counts[:, 0] = 1  # every edge is the 2-vertex graphlet once

    for a, b, c in combinations(range(g.num_nodes), 3):
        present = [(a, b, eid[a][b] >= 0), (a, c, eid[a][c] >= 0), (b, c, eid[b][c] >= 0)]
        ne = sum(p for _, _, p in present)
        if ne == 3:
            for x, y, _ in present:
                counts[eid[x][y], 2] += 1
        elif ne == 2:
            for x, y, p in present:
                if p:
                    counts[eid[x][y], 1] += 1

    for quad in combinations(range(g.num_nodes), 4):
        pairs = list(combinations(quad, 2))
        present = [eid[u][v] >= 0 for u, v in pairs]
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
            counts[eid[u][v], ix] += 1

    return EdgeOrbitCounts(counts, g)


def node_motif_features(g: Graph, counts: EdgeOrbitCounts) -> np.ndarray:
    """N x 52 node feature matrix from per-edge orbit counts.

    Base block: per-orbit sums over incident edges (the per-orbit motif
    degree). Then sum, mean, and max of neighbors' base features. Columns are
    unit-Euclidean-normalized; degree-0 nodes get zero aggregates.
    """
    if counts.graph != g:
        raise ValueError("orbit counts were computed for a different graph")
    n, m = g.num_nodes, g.num_edges
    adj = g.adjacency
    incidence = sp.csr_matrix((np.ones(2 * m), g.slot_edge, adj.indptr), shape=(n, m))
    # every summand is an integer count, so these float sums are exact
    base = incidence @ counts.counts.astype(np.float64)
    nbr_sum = adj @ base

    deg = g.degrees.astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    nbr_mean = nbr_sum * inv_deg[:, None]

    nbr_max = np.zeros_like(base)  # degree-0 rows keep a zero max
    rows = np.flatnonzero(np.diff(adj.indptr))
    nbr_max[rows] = np.maximum.reduceat(base[adj.indices], adj.indptr[rows], axis=0)

    return normalize_columns(np.hstack([base, nbr_sum, nbr_mean, nbr_max]))
