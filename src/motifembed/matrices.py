"""Motif-weighted matrices: build a sparse weight matrix from per-edge orbit
counts and apply the five matrix kinds (weighted graph, transition,
Laplacian and its two normalized forms), all defined by one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from motifembed.graph import Graph
from motifembed.orbits import EdgeOrbitCounts


class MotifMatrixKind(Enum):
    """The five matrix functions applied to a motif weight matrix W.

    Values are the CLI tokens: plain weights, row-stochastic transition
    D^-1 W, combinatorial Laplacian D - W, symmetric normalized Laplacian
    I - D^-1/2 W D^-1/2, and random-walk Laplacian I - D^-1 W.
    """

    WEIGHTED_GRAPH = "w"
    TRANSITION = "p"
    LAPLACIAN = "l"
    NORMALIZED_LAPLACIAN = "lnorm"
    RANDOM_WALK_LAPLACIAN = "lrw"


@dataclass(frozen=True)
class MotifWeightedGraph:
    """Sparse symmetric non-negative weight matrix for one orbit.

    An entry (i, j) is present iff the orbit count on edge (i, j) is at least
    ``delta``, and then equals that count. ``is_empty`` flags the all-zero
    case (no edge met the threshold); downstream keeps such blocks as zeros.
    """

    matrix: sp.csr_matrix
    is_empty: bool

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def on_support(self) -> tuple[np.ndarray, MotifWeightedGraph]:
        """The support S, the sorted nodes with a nonempty row, and the
        graph W[S, S] on it; this graph itself when S is every node.

        W is symmetric, so its rows and columns outside S are zero. W[S, S]
        keeps the data and the row order of W, its row pointers are those
        of S, and each column index is mapped to its rank in S.
        """
        m = self.matrix
        nonempty = np.diff(m.indptr) > 0
        nodes = np.flatnonzero(nonempty)
        if len(nodes) == self.num_nodes:
            return nodes, self
        rank = np.cumsum(nonempty, dtype=m.indices.dtype) - 1
        block = sp.csr_matrix((m.data, rank[m.indices], m.indptr[np.append(nodes, self.num_nodes)]),
                              shape=(len(nodes), len(nodes)))
        return nodes, MotifWeightedGraph(matrix=block, is_empty=self.is_empty)


def build_motif_weight_matrix(
    g: Graph, counts: EdgeOrbitCounts, orbit: int, delta: int = 1
) -> MotifWeightedGraph:
    """Threshold one orbit's per-edge counts into a weight matrix."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if counts.graph != g:
        raise ValueError("orbit counts were computed for a different graph")
    col = counts.orbit_column(orbit)
    # the counts placed on the graph's own pattern, minus the entries
    # below delta; the copy keeps the graph's frozen index arrays out of
    # eliminate_zeros
    adj = g.adjacency
    w = col[g.slot_edge].astype(np.float64)
    w[w < delta] = 0.0
    mat = sp.csr_matrix((w, adj.indices, adj.indptr), shape=adj.shape, copy=True)
    mat.eliminate_zeros()
    return MotifWeightedGraph(matrix=mat, is_empty=mat.nnz == 0)


def motif_degrees(wg: MotifWeightedGraph) -> np.ndarray:
    """Row sums of the weight matrix (total motif mass incident per node)."""
    return np.asarray(wg.matrix.sum(axis=1)).ravel()


def kind_form(deg: np.ndarray, kind: MotifMatrixKind):
    """The one table of matrix kinds, as vectors over the row sums ``deg`` of
    a symmetric weight matrix M.

    Returns ``(c, a, b)``: kind(M) is diag(c) - diag(a)·M·diag(b) for the
    three Laplacians and diag(a)·M·diag(b) for w and p, so ``c`` is None
    exactly for w and p. A scaling that would be all ones is None too, so no
    kind multiplies by ones. Nodes with zero row sum get an all-zero row for
    every kind, including a zero diagonal entry in both normalized
    Laplacians.
    """
    if kind is MotifMatrixKind.WEIGHTED_GRAPH:
        return None, None, None
    if kind is MotifMatrixKind.LAPLACIAN:
        return deg, None, None
    nz = deg > 0
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=nz)
    if kind is MotifMatrixKind.TRANSITION:
        return None, inv, None
    if kind is MotifMatrixKind.NORMALIZED_LAPLACIAN:
        half = np.sqrt(inv)
        return nz.astype(np.float64), half, half
    if kind is MotifMatrixKind.RANDOM_WALK_LAPLACIAN:
        return nz.astype(np.float64), inv, None
    raise ValueError(f"unknown kind {kind!r}")


def apply_matrix_kind(wg: MotifWeightedGraph, kind: MotifMatrixKind) -> sp.csr_matrix:
    """Turn a motif weight matrix into the requested matrix kind."""
    c, a, b = kind_form(motif_degrees(wg), kind)
    mat = wg.matrix
    if a is not None:
        mat = sp.diags(a) @ mat
    if b is not None:
        mat = mat @ sp.diags(b)
    if c is not None:
        mat = sp.diags(c) - mat
    return sp.csr_matrix(mat, copy=True)
