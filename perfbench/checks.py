"""Correctness checks on what the CLI wrote and on the results it computed.

Each check returns a list of failure messages; an empty list is a pass.
None of this runs inside a timed region.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

AUC_FLOOR = 0.49  # acceptance criterion 7's floor on the SBM mean AUC


def _split_header(text: str) -> tuple[dict, list[str]]:
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line and not rows:
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            rows.append(line)
    return header, rows


def check_header(header: dict, expected: dict) -> list[str]:
    if header != expected:
        return [f"header {header} does not echo the config {expected}"]
    return []


def check_embed_tsv(text: str, expected_header: dict, n: int, nodes: np.ndarray | None) -> list[str]:
    """n rows of label + 128 finite values, labels 0..n-1 in order, equal to
    the embedding the pipeline returned (when it was captured)."""
    header, rows = _split_header(text)
    failures = check_header(header, expected_header)
    width = int(expected_header["d"]) + 1
    if len(rows) != n:
        return failures + [f"{len(rows)} rows, expected {n}"]
    values = np.array([row.split("\t") for row in rows], dtype=np.float64)
    if values.shape != (n, width):
        return failures + [f"table shape {values.shape}, expected {(n, width)}"]
    if not np.array_equal(values[:, 0], np.arange(n)):
        failures.append("row labels are not 0..n-1 in order")
    if not np.isfinite(values[:, 1:]).all():
        failures.append("non-finite embedding values")
    if nodes is not None and not np.array_equal(values[:, 1:], nodes):
        failures.append("TSV values differ from the pipeline's embedding")
    return failures


def check_linkpred_tsv(text: str, expected_header: dict, n_seeds: int) -> tuple[list[str], float]:
    """One row per protocol seed plus the mean row; AUCs in [0, 1] and the
    mean at or above the criterion-7 floor. Returns (failures, mean AUC)."""
    header, rows = _split_header(text)
    failures = check_header(header, expected_header)
    body = [row.split("\t") for row in rows if not row.startswith("#")]
    if len(body) != n_seeds + 2 or body[0] != ["seed", "k", "auc"] or body[-1][:2] != ["mean", "-"]:
        return failures + [f"unexpected report layout: {body}"], float("nan")
    aucs = np.array([float(row[2]) for row in body[1:-1]])
    mean = float(body[-1][2])
    if [int(row[0]) for row in body[1:-1]] != list(range(n_seeds)):
        failures.append("report seeds are not 0..seeds-1")
    if not all(1 <= int(row[1]) <= 4 for row in body[1:-1]):
        failures.append("chosen step count outside 1..4")
    if not ((aucs >= 0.0) & (aucs <= 1.0)).all():
        failures.append(f"AUC outside [0, 1]: {aucs.tolist()}")
    if not np.isclose(mean, aucs.mean(), rtol=0, atol=1e-12):
        failures.append(f"mean row {mean} is not the mean of {aucs.tolist()}")
    if not mean >= AUC_FLOOR:
        failures.append(f"mean AUC {mean} below the floor {AUC_FLOOR}")
    return failures, mean


def check_counts(graph, counts) -> list[str]:
    """Orbit O3 equals an independent sparse (A*A)∘A triangle count, and
    every edge counts itself once (sum of O1 = M)."""
    table = counts.counts
    m, n = graph.num_edges, graph.num_nodes
    adj = sp.coo_matrix(
        (np.ones(2 * m), (np.r_[graph.edge_u, graph.edge_v], np.r_[graph.edge_v, graph.edge_u])),
        shape=(n, n),
    ).tocsr()
    triangles = np.asarray((adj @ adj).multiply(adj).tocsr()[graph.edge_u, graph.edge_v]).ravel()
    failures = []
    if not np.array_equal(table[:, 2], triangles):
        failures.append("orbit O3 differs from the sparse (A*A)∘A triangle count")
    if int(table[:, 0].sum()) != m:
        failures.append(f"sum of O1 is {int(table[:, 0].sum())}, expected M={m}")
    return failures


def fusion_objective(y: np.ndarray, u: np.ndarray, v: np.ndarray, reg: float) -> float:
    """½‖Y − UV‖² + reg(‖U‖² + ‖V‖²), the global fusion's objective."""
    r = y - u @ v
    return float(0.5 * np.einsum("ij,ij->", r, r) + reg * (np.einsum("ij,ij->", u, u) + np.einsum("ij,ij->", v, v)))


def fusion_optimum(y: np.ndarray, rank: int, reg: float) -> float:
    """The objective's minimum over rank-``rank`` factors: a thin SVD of Y
    with the singular values soft-thresholded at 2·reg, split √ across U and V."""
    a, s, bt = np.linalg.svd(y, full_matrices=False)
    root = np.sqrt(np.maximum(s[:rank] - 2.0 * reg, 0.0))
    return fusion_objective(y, a[:, :rank] * root, root[:, None] * bt[:rank], reg)


def fusion_ratio(result) -> tuple[float, list[str]]:
    """Achieved fusion objective over the closed-form optimum (>= 1)."""
    emb = result.embedding
    y = result.concatenated.matrix
    reg = result.config.ccd.reg
    achieved = fusion_objective(y, emb.nodes, emb.basis, reg)
    optimum = fusion_optimum(y, emb.nodes.shape[1], reg)
    ratio = achieved / optimum
    if not ratio >= 1.0 - 1e-9:
        return ratio, [f"fusion objective {achieved} is below the closed-form optimum {optimum}"]
    return ratio, []
