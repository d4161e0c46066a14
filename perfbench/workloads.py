"""Benchmark inputs: the graph generators and the three workloads.

Every graph is drawn by this file's own numpy code from the workload seed,
so a change to ``motifembed.generators`` never changes a benchmark input.
Graphs are written as whitespace edge lists with labels 0..n-1; a node
without edges is written as a self-loop line, which the loader keeps as a
node, so the embedding always has exactly n rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> np.ndarray:
    """G(n, M) with M = round(n * avg_degree / 2) distinct uniform pairs."""
    m = int(round(n * avg_degree / 2))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = rng.integers(0, n, size=(2 * (m - keys.size), 2))
        lo, hi = draw.min(axis=1), draw.max(axis=1)
        keys = np.concatenate([keys, (lo * n + hi)[lo != hi]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)][:m]  # keep draw order so truncation is unbiased
    return np.stack([keys // n, keys % n], axis=1)


def chung_lu(n: int, mean_degree: float, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Chung-Lu graph on the fixed power-law weights w_i ~ i^(-1/(exponent-1)).

    Pair (i, j) is an edge with probability min(1, w_i w_j / sum(w)); the
    weights are scaled to the requested mean, so only the Bernoulli draws
    (and the label shuffle) depend on the seed.
    """
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    w *= mean_degree * n / w.sum()
    total = w.sum()
    parts = []
    for i in range(n - 1):
        p = np.minimum(1.0, w[i] * w[i + 1 :] / total)
        hit = np.flatnonzero(rng.random(n - i - 1) < p) + i + 1
        parts.append(np.stack([np.full(hit.size, i), hit], axis=1))
    labels = rng.permutation(n)  # node ids carry no degree rank
    return labels[np.concatenate(parts)]


def two_block_sbm(n: int, p_in: float, p_out: float, rng: np.random.Generator) -> np.ndarray:
    """Two equal blocks: within-block pairs at p_in, cross pairs at p_out."""
    block = np.arange(n) >= n // 2
    iu, iv = np.triu_indices(n, 1)
    p = np.where(block[iu] == block[iv], p_in, p_out)
    hit = rng.random(iu.size) < p
    return np.stack([iu[hit], iv[hit]], axis=1)


def write_edge_list(path, n: int, edges: np.ndarray) -> None:
    isolated = np.setdiff1d(np.arange(n), edges.ravel())
    rows = np.vstack([edges, np.stack([isolated, isolated], axis=1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in rows.tolist()))


def graph_stats(n: int, edges: np.ndarray) -> dict:
    deg = np.bincount(edges.ravel(), minlength=n)
    return {
        "n": n,
        "M": int(edges.shape[0]),
        "max_degree": int(deg.max()),
        "sum_degree_sq": int((deg.astype(np.int64) ** 2).sum()),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    flags: tuple[str, ...]  # CLI flags besides --input and --out
    n: int
    draw: object  # (n, rng) -> edge array (M x 2, labels 0..n-1)
    echo: dict  # header lines the output must carry, besides input/seed
    predicted_dominant: str  # per-layer time metric expected to be largest
    graph_seed: int | None = None  # a fixed graph; None draws it from the workload seed

    def make_graph(self, seed: int) -> np.ndarray:
        return self.draw(self.n, np.random.default_rng(seed if self.graph_seed is None else self.graph_seed))


_EMBED_ECHO = {"one_indexed": "false", "skip_header": "false", "delta": "1", "dl": "16",
               "d": "128", "k": "2", "workers": "1"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-er",
            subcommand="embed",
            flags=(),
            n=2_000,
            draw=lambda n, rng: erdos_renyi(n, 10.0, rng),
            echo={**_EMBED_ECHO, "kind": "w", "diffusion": "none"},
            predicted_dominant="factorize.ccd_s",
        ),
        Workload(
            name="embed-skewed",
            subcommand="embed",
            flags=("--kind", "lnorm", "--diffusion", "linear"),
            n=1_000,
            draw=lambda n, rng: chung_lu(n, 16.0, 2.5, rng),
            echo={**_EMBED_ECHO, "kind": "lnorm", "diffusion": "linear"},
            predicted_dominant="orbits.count_s",
        ),
        Workload(
            name="linkpred-sbm",
            subcommand="linkpred",
            flags=("--k", "auto", "--seeds", "1"),
            n=200,
            draw=lambda n, rng: two_block_sbm(n, 0.15, 0.01, rng),
            echo={"one_indexed": "false", "skip_header": "false", "kind": "w", "delta": "1",
                  "dl": "16", "d": "128", "diffusion": "none", "k": "auto", "seeds": "1"},
            predicted_dominant="evaluation.logreg_s",
            # criterion 7's graph seed for every workload seed: the protocol's
            # logistic-regression work changes by ~20% from graph to graph
            graph_seed=1,
        ),
    )
}
