"""Low-rank factorization kernels: randomized subspace iteration, the exact
closed-form solver of the regularized fusion objective, and cyclic
coordinate descent on the same objective (kept as a reference solver), plus
the column normalizer shared by the embedding pipeline."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

log = logging.getLogger("motifembed.factorize")


def normalize_columns(m: np.ndarray) -> np.ndarray:
    """Scale every nonzero column to unit Euclidean norm; zero columns stay zero."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=0)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return m * scale


class FactorizeMethod(Enum):
    RANDOMIZED_SVD = "rsvd"
    CCD = "ccd"
    EXACT = "exact"


@dataclass(frozen=True)
class CcdOptions:
    reg: float = 1e-4
    max_sweeps: int = 50
    tol: float = 1e-5

    def __post_init__(self):
        if self.reg < 0:
            raise ValueError("reg must be >= 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class FactorizeConfig:
    rank: int = 16
    oversample: int = 10
    power_iters: int = 2
    method: FactorizeMethod = FactorizeMethod.RANDOMIZED_SVD
    ccd: CcdOptions = field(default_factory=CcdOptions)
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.oversample < 0:
            raise ValueError("oversample must be >= 0")
        if self.power_iters < 0:
            raise ValueError("power_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LowRankFactors:
    """Rank-limited approximation ``matrix ~= U @ V``.

    U carries the singular-value scaling (its columns are not unit norm);
    callers that want unit columns apply :func:`normalize_columns`.
    ``residual`` is the relative Frobenius reconstruction error, set by the
    solvers of the regularized objective. ``objective_path`` holds the per-sweep
    regularized objective for the coordinate-descent method and the single
    optimal value for the exact method. ``converged`` is set by the solvers
    of the regularized objective: False when coordinate descent stopped at
    its sweep cap.
    """

    U: np.ndarray
    V: np.ndarray
    achieved_rank: int
    residual: float | None = None
    objective_path: tuple[float, ...] | None = None
    converged: bool | None = None


# One CholeskyQR pass leaves an error of about eps·cond(a)² in QᵀQ − I.
# Past this entry of it, cond(a) nears 1/√eps and Cholesky loses the small
# directions, so the panel goes to Householder QR instead.
_MAX_GRAM_DRIFT = 0.5


def _orthonormalize(a: np.ndarray, passes: int) -> tuple[np.ndarray, np.ndarray]:
    """``a = q @ r`` with orthonormal q and upper-triangular r, by CholeskyQR.

    Each pass factors the Gram matrix of the current panel by Cholesky and
    multiplies the panel by the inverse of the triangle; two passes are
    CholeskyQR2 (Fukaya et al. 2014). Falls back to Householder QR when
    Cholesky fails (a rank-deficient panel) or when the second pass's Gram
    matrix is more than ``_MAX_GRAM_DRIFT`` off the identity in some entry.
    Every call is numpy's, so the Gram product, the panel product and the
    small factorizations share one BLAS/LAPACK library and its one thread
    pool (see ``exact_factorize`` for the cost of two pools). Cholesky is
    LAPACK's ``dpotrf``. ``np.linalg.inv`` of the triangle is an LU without
    row exchanges (every entry below the diagonal is zero), so it reduces
    to the back substitution of a triangular inverse; on a 26×26 triangle
    it takes about 45 µs more than ``dtrtri`` with one BLAS thread.
    """
    q, r = a, None
    for step in range(passes):
        gram = q.T @ q
        if step and np.abs(gram - np.eye(len(gram))).max() > _MAX_GRAM_DRIFT:
            return np.linalg.qr(a)
        try:
            tri = np.linalg.cholesky(gram, upper=True)
        except np.linalg.LinAlgError:
            return np.linalg.qr(a)
        q = q @ np.linalg.inv(tri)
        r = tri if r is None else tri @ r
    return q, r


def _at_rank(u: np.ndarray, v: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """u and v at exactly ``rank`` components: each flipped so that the
    largest-|entry| of its row of v is positive, then zero components
    appended past those the input supports."""
    pivot = v[np.arange(v.shape[0]), np.argmax(np.abs(v), axis=1)]
    sign = np.where(pivot < 0, -1.0, 1.0)
    u *= sign
    v *= sign[:, None]
    short = rank - len(v)
    if short > 0:
        u = np.hstack([u, np.zeros((len(u), short))])
        v = np.vstack([v, np.zeros((short, v.shape[1]))])
    return u, v


def randomized_low_rank(
    operator, cfg: FactorizeConfig, support: tuple[int, np.ndarray] | None = None
) -> LowRankFactors:
    """Randomized subspace iteration at rank ``cfg.rank``.

    ``operator`` may be a dense array or a sparse matrix, whose products are
    ``A @ x`` and ``A.T @ x``, or any object with ``shape``, ``matmat`` and
    ``rmatmat`` (such as :class:`~motifembed.operators.KStepOperator`).
    Draws a test block of ``rank + oversample`` columns from ``cfg.seed``,
    uniform on [−1, 1): any such sub-Gaussian block finds the range as a
    Gaussian one does (Martinsson & Tropp, Acta Numerica 2020), and the
    draw costs a quarter as much. It must be continuous: a ±1 block is
    singular often enough at small sizes to lose a direction. Each of
    ``power_iters`` power iterations applies Aᵀ and then A to a panel
    orthonormalized by one CholeskyQR pass; a pass between the two products
    would leave the range unchanged. The range basis q and the projected
    panel b = Aᵀq are orthonormalized by CholeskyQR2; any of these falls
    back to Householder QR when the panel is too ill-conditioned for
    Cholesky. With b = Q_b R_b, the SVD of the small draw×draw matrix R_bᵀ
    gives the factors (Halko, Martinsson, Tropp 2011, §5.1). Each
    component's sign makes the largest-|entry| of its row of V positive.
    The draw is capped at min(shape), the most directions a range finder
    can return; components past it or below the rank
    tolerance are zero, so U and V always have ``cfg.rank`` of them.

    ``support=(n, S)`` says that ``operator`` is the S×S block A[S, S] of an
    n×n matrix A whose rows and columns outside the sorted node indices S
    are zero, and returns the factors of A itself: U is n×rank and V is
    rank×n, both zero outside S. The test block is rows S of the one n×draw
    block the unrestricted call would draw from ``cfg.seed``, with the draw
    capped at |S|, and the rank tolerance is A's. Every panel has |S| rows;
    only the draw and the returned factors are n long. With S every node,
    the result is bit-identical to the call without ``support``.
    """
    if sp.issparse(operator) or isinstance(operator, np.ndarray):
        matmat, rmatmat = operator.__matmul__, operator.T.__matmul__
    else:
        matmat, rmatmat = operator.matmat, operator.rmatmat
    n_rows, n_cols = operator.shape
    draw = min(cfg.rank + cfg.oversample, n_rows, n_cols)

    rng = np.random.default_rng(cfg.seed)
    if support is None:
        size = max(n_rows, n_cols)
        test = rng.random((n_cols, draw))
    else:
        size, rows = support
        if operator.shape != (len(rows), len(rows)):
            raise ValueError(f"operator {operator.shape} is not the block of {len(rows)} support nodes")
        test = rng.random((size, min(cfg.rank + cfg.oversample, size)))[rows, :draw]
    sample = matmat(test * 2.0 - 1.0)  # uniform on [−1, 1)
    for _ in range(cfg.power_iters):
        q, _ = _orthonormalize(sample, passes=1)
        sample = matmat(rmatmat(q))
    q, _ = _orthonormalize(sample, passes=2)

    qb, rb = _orthonormalize(rmatmat(q), passes=2)  # Aᵀq = Q_b R_b, n_cols x draw
    ub, sigma, wt = np.linalg.svd(rb.T)
    u = q @ (ub[:, : cfg.rank] * sigma[: cfg.rank])
    v = wt[: cfg.rank] @ qb.T

    tol = size * np.finfo(np.float64).eps * (sigma[0] if sigma.size else 0.0)
    achieved = int(np.sum(sigma[: cfg.rank] > tol))
    u[:, achieved:] = 0.0
    v[achieved:, :] = 0.0
    u, v = _at_rank(u, v, cfg.rank)
    if support is not None:
        u_full, v_full = np.zeros((size, cfg.rank)), np.zeros((cfg.rank, size))
        u_full[rows], v_full[:, rows] = u, v
        u, v = u_full, v_full
    return LowRankFactors(U=u, V=v, achieved_rank=achieved)


def exact_factorize(matrix, cfg: FactorizeConfig) -> LowRankFactors:
    """Exact minimizer of ½‖S − UV‖² + reg·(‖U‖² + ‖V‖²) at rank ``cfg.rank``.

    The optimum is the thin SVD of S with singular values soft-thresholded
    at 2·reg and split √ across U and V (Srebro, Rennie, Jaakkola 2004). The
    top-r singular pairs, r = min(rank, size), come from an eigensolve of the
    size×size Gram matrix on the smaller side of S. When 4r > size it takes
    the whole spectrum from numpy's ``eigh`` (LAPACK divide and conquer) and
    keeps the top r; otherwise it asks scipy's ``evr`` driver for the index
    subset only, which LAPACK serves by bisection and inverse iteration
    (dsyevr keeps its faster MRRR path for the whole spectrum). At r = 128
    with one BLAS thread the two tie at size 600 (66 ms), and the subset is
    ahead from 700 on (87 vs 95 ms; 181 vs 254 ms at 1000). Only the subset
    branch imports ``scipy.linalg``, at its first call, so a run that never
    takes it loads no more than numpy and ``scipy.sparse``. Each component's
    sign makes the largest-|entry| of its row of V positive. Components
    beyond min(shape) and components thresholded away are zero, so U and V
    always have ``cfg.rank`` columns and rows. The objective and residual
    are computed from the spectrum.
    """
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = dense.shape
    reg = cfg.ccd.reg
    tall = n_cols <= n_rows
    gram = dense.T @ dense if tall else dense @ dense.T
    size = gram.shape[0]
    r = min(cfg.rank, size)
    sq_norm = float(np.trace(gram))
    if 4 * r > size:
        # numpy's LAPACK, as for the Newton solve in evaluation.fit_logreg: the
        # Gram product runs in numpy's BLAS, and scipy's BLAS has its own
        # thread pool; with unpinned threads, alternating the two pools made
        # the protocol 1.8x slower than with one thread on a 2-vCPU machine
        lam, vec = np.linalg.eigh(gram)
        lam, vec = lam[size - r:], vec[:, size - r:]
    else:
        # numpy has no subset eigensolver, so this branch alone pairs numpy's
        # Gram product with scipy's LAPACK and its thread pool; imported here,
        # so that runs that never reach it do not load scipy.linalg
        from scipy.linalg import eigh

        # the transpose of the symmetric Gram is itself, Fortran-ordered: no copy
        lam, vec = eigh(gram.T, subset_by_index=(size - r, size - 1), driver="evr",
                        overwrite_a=True, check_finite=False)
    lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1]
    s = np.sqrt(lam)
    t = np.maximum(s - 2.0 * reg, 0.0)
    root = np.sqrt(t)
    shrink = np.divide(root, s, out=np.zeros_like(s), where=t > 0)
    if tall:
        u, v = dense @ (vec * shrink), root[:, None] * vec.T
    else:
        u, v = vec * root, shrink[:, None] * (vec.T @ dense)
    u, v = _at_rank(u, v, cfg.rank)

    tail = sq_norm - float(lam.sum()) if r < size else 0.0
    fit = max(tail, 0.0) + float(np.sum((s - t) ** 2))
    objective = 0.5 * fit + 2.0 * reg * float(t.sum())
    residual = float(np.sqrt(fit / sq_norm)) if sq_norm > 0 else 0.0
    return LowRankFactors(
        U=u,
        V=v,
        achieved_rank=int(np.count_nonzero(t)),
        residual=residual,
        objective_path=(objective,),
        converged=True,
    )


def ccd_factorize(matrix, cfg: FactorizeConfig) -> LowRankFactors:
    """Cyclic coordinate descent on ½‖S − UV‖² + reg·(‖U‖² + ‖V‖²).

    Each coordinate row/column update is the exact single-block minimizer, so
    the recorded objective is non-increasing sweep over sweep. U starts
    uniform in ±0.5/sqrt(rank) from the seed; V starts at zero and is updated
    first. Stops when the relative objective decrease falls below
    ``cfg.ccd.tol`` or after ``cfg.ccd.max_sweeps``; stopping at the cap is
    logged as a warning and reported as ``converged=False``.
    """
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = dense.shape
    rank = cfg.rank
    reg = cfg.ccd.reg

    rng = np.random.default_rng(cfg.seed)
    half_width = 0.5 / np.sqrt(rank)
    u = rng.uniform(-half_width, half_width, size=(n_rows, rank))
    v = np.zeros((rank, n_cols))

    sq_norm = float(np.einsum("ij,ij->", dense, dense))
    gram_u = u.T @ u
    proj = u.T @ dense
    objectives: list[float] = []
    prev = None
    fit = sq_norm
    converged = False
    for _ in range(cfg.ccd.max_sweeps):
        for d in range(rank):
            denom = gram_u[d, d] + reg
            if denom > 0:
                v[d] = (proj[d] - gram_u[d] @ v + gram_u[d, d] * v[d]) / denom
            else:
                v[d] = 0.0
        gram_v = v @ v.T
        right = dense @ v.T
        for d in range(rank):
            denom = gram_v[d, d] + reg
            if denom > 0:
                u[:, d] = (right[:, d] - u @ gram_v[:, d] + gram_v[d, d] * u[:, d]) / denom
            else:
                u[:, d] = 0.0
        # refresh the U-side caches: reused by the objective and the next sweep
        gram_u = u.T @ u
        proj = u.T @ dense
        fit = sq_norm - 2.0 * np.einsum("ij,ij->", proj, v) + np.einsum("ij,ij->", gram_u @ v, v)
        fit = max(fit, 0.0)
        obj = 0.5 * fit + reg * (float(np.einsum("ij,ij->", u, u)) + float(np.einsum("ij,ij->", v, v)))
        objectives.append(obj)
        if prev is not None and prev - obj <= cfg.ccd.tol * max(prev, 1e-30):
            converged = True
            break
        prev = obj
    if not converged:
        log.warning(
            "coordinate descent stopped at its %d-sweep cap above tol=%g",
            cfg.ccd.max_sweeps,
            cfg.ccd.tol,
        )

    achieved = int(
        np.sum((np.linalg.norm(u, axis=0) > 0) & (np.linalg.norm(v, axis=1) > 0))
    )
    residual = float(np.sqrt(fit) / np.sqrt(sq_norm)) if sq_norm > 0 else 0.0
    return LowRankFactors(
        U=u,
        V=v,
        achieved_rank=achieved,
        residual=residual,
        objective_path=tuple(objectives),
        converged=converged,
    )
