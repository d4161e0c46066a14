"""A fixed kernel that measures how fast the machine runs right now.

On a shared virtual machine the same computation can run 1.5x slower for
minutes at a time. Timing this kernel between CLI calls lets the benchmark
report each call's time relative to the machine's speed at that moment. The
kernel mixes the kinds of work motifembed does (Python set algebra, sparse
and dense matrix products, many small numpy calls) on fixed inputs, and
never calls motifembed, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from workloads import erdos_renyi


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 3000
        self.edges = erdos_renyi(n, 12.0, rng).tolist()
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        upper = sp.coo_matrix((np.ones(len(self.edges)), tuple(np.array(self.edges).T)), shape=(n, n))
        self.sparse = (upper + upper.T).tocsr()
        self.block = rng.standard_normal((n, 32))
        self.dense = rng.standard_normal((400, 400))
        self.small = rng.standard_normal(200)

    def seconds(self) -> float:
        """Wall seconds of one pass of the kernel (a few tenths of a second)."""
        start = time.perf_counter()
        adj = self.adj
        for _ in range(5):
            for u, v in self.edges:
                len(adj[u] & adj[v])
        y = self.block
        for _ in range(100):
            y = self.sparse @ y
            y /= np.linalg.norm(y)
        z = self.dense
        for _ in range(50):
            z = self.dense @ z
            z /= np.linalg.norm(z)
        s = self.small
        for _ in range(3500):
            s = np.tanh(s) + 0.5 * s.mean()
        return time.perf_counter() - start
