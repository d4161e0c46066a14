"""Implicit k-step operators over motif weight matrices.

The k-step matrix of a kind is kind(W^k), with degrees rebuilt from the row
sums of W^k, for w, l, lnorm and lrw, and P^k (k steps of the one-step
transition matrix) for p, so every step stays row-stochastic. Neither form
is materialized: one matvec costs k sparse base matvecs plus O(N) vector
work.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from motifembed.matrices import MotifMatrixKind, MotifWeightedGraph, kind_form


class KStepOperator:
    """Matrix-free k-step motif operator: products with blocks and vectors,
    and with its transpose.

    It applies :func:`~motifembed.matrices.kind_form` of M = W^k once, or for
    the transition kind that of M = W, k times. W^k is symmetric, so the
    transpose only swaps the two scalings. It is a plain object, not a scipy
    ``LinearOperator``: ``shape``, ``matmat``/``rmatmat`` on N×c blocks and
    ``matvec``/``rmatvec`` on length-N vectors are all it offers.
    """

    def __init__(self, wg: MotifWeightedGraph, kind: MotifMatrixKind, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.weights: sp.csr_matrix = wg.matrix
        self.kind = kind
        self.k = k
        walk = kind is MotifMatrixKind.TRANSITION
        self._repeats, self._power = (k, 1) if walk else (1, k)
        # row sums of W^power via matvecs against the all-ones vector
        deg = np.ones(wg.num_nodes)
        for _ in range(self._power):
            deg = self.weights @ deg
        self._c, self._a, self._b = kind_form(deg, kind)
        self.shape: tuple[int, int] = self.weights.shape

    def _apply(self, x: np.ndarray, left, right) -> np.ndarray:
        y = np.asarray(x, dtype=np.float64)
        if y.ndim != 2 or y.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: operator {self.shape}, block {y.shape}")
        for _ in range(self._repeats):
            z = y if right is None else right[:, None] * y
            for _ in range(self._power):
                z = self.weights @ z
            if left is not None:
                z = left[:, None] * z
            y = z if self._c is None else self._c[:, None] * y - z
        return y

    def matmat(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self._a, self._b)

    def rmatmat(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self._b, self._a)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matmat(np.reshape(x, (-1, 1))).ravel()

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self.rmatmat(np.reshape(x, (-1, 1))).ravel()


def matvec_kstep(op: KStepOperator, x: np.ndarray) -> np.ndarray:
    """Apply the k-step operator to a vector."""
    return op.matvec(np.asarray(x, dtype=np.float64))


def _dense_kind(mat: np.ndarray, kind: MotifMatrixKind) -> np.ndarray:
    """Textbook dense form of one matrix kind, independent of the kind table."""
    if kind is MotifMatrixKind.WEIGHTED_GRAPH:
        return mat.copy()
    deg = mat.sum(axis=1)
    nz = deg > 0
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=nz)
    if kind is MotifMatrixKind.TRANSITION:
        return inv[:, None] * mat
    if kind is MotifMatrixKind.LAPLACIAN:
        return np.diag(deg) - mat
    if kind is MotifMatrixKind.NORMALIZED_LAPLACIAN:
        half = np.sqrt(inv)
        return np.diag(nz.astype(np.float64)) - half[:, None] * mat * half[None, :]
    if kind is MotifMatrixKind.RANDOM_WALK_LAPLACIAN:
        return np.diag(nz.astype(np.float64)) - inv[:, None] * mat
    raise ValueError(f"unknown kind {kind!r}")


def dense_kstep(wg: MotifWeightedGraph, kind: MotifMatrixKind, k: int) -> np.ndarray:
    """Dense reference for the same k-step matrix, built by explicit powers."""
    w = wg.matrix.toarray()
    if kind is MotifMatrixKind.TRANSITION:
        return np.linalg.matrix_power(_dense_kind(w, kind), k)
    return _dense_kind(np.linalg.matrix_power(w, k), kind)
