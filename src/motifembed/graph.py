"""Immutable undirected simple graphs with one sparse adjacency, and the
edge-list parser.

Nodes carry dense zero-based ids internally; the labels seen in the input
edge list are kept in a side table so output can use them again.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterable, Iterator

import numpy as np
import scipy.sparse as sp


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class EdgeListParseError(ValueError):
    """A line of an edge-list input could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyGraphError(ValueError):
    """The input contains no edges after cleanup."""


class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges.

    Each edge is stored once with ``u < v``, and the edges are distinct and
    in ascending (u, v) order, so edge id i is the position of key u·n + v in
    the ascending ``edge_keys``. ``adjacency`` is the one CSR of ones over
    both directions, with strictly ascending rows, and ``slot_edge`` holds
    the edge id of each of its stored entries. Instances are immutable after
    construction: every array, the adjacency's own included, is read-only.
    """

    def __init__(
        self,
        num_nodes: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        labels: np.ndarray | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        if edge_u.shape != edge_v.shape or edge_u.ndim != 1:
            raise ValueError("edge endpoint arrays must be 1-D and equal length")
        if edge_u.size == 0:
            raise EmptyGraphError("graph has no edges (M=0)")
        if edge_u.min() < 0 or max(edge_u.max(), edge_v.max()) >= num_nodes:
            raise ValueError("edge endpoint outside [0, num_nodes)")
        if np.any(edge_u >= edge_v):
            raise ValueError("edges must be canonical with u < v")
        keys = edge_u * np.int64(num_nodes) + edge_v
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edges must be distinct and in ascending (u, v) order")

        self.num_nodes = int(num_nodes)
        self.num_edges = m = int(edge_u.size)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_keys = keys

        if labels is None:
            labels = np.arange(num_nodes, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (num_nodes,):
            raise ValueError("labels must have one entry per node")

        # Row x lists the edges (w, x), w < x, in edge order, then the edges
        # (x, w), w > x, in edge order: both runs ascend in w. scipy's
        # linear-time COO→CSR keeps each row's entries in input order, so
        # given the directions v→u, then u→v, its rows need no sort, and
        # the edge ids, as its values, become each entry's edge id.
        ids = np.arange(m)
        rows, cols = np.concatenate([edge_v, edge_u]), np.concatenate([edge_u, edge_v])
        by_id = sp.coo_matrix((np.concatenate([ids, ids]), (rows, cols)), shape=(num_nodes, num_nodes)).tocsr()
        self.slot_edge = by_id.data
        self.adjacency = sp.csr_matrix((np.ones(2 * m), by_id.indices, by_id.indptr), shape=by_id.shape)

        # scipy may keep the index arrays as int32 copies of its own; a
        # matrix built on them would share them, so they are frozen too
        adj = self.adjacency
        for arr in (self.edge_u, self.edge_v, self.edge_keys, self.labels, self.slot_edge,
                    adj.data, adj.indices, adj.indptr):
            arr.flags.writeable = False

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from (possibly messy) edge pairs with dense ids.

        Self-loops are dropped, duplicate and reversed-duplicate edges are
        collapsed, and edges are put in canonical sorted order. Node ids must
        already lie in ``[0, num_nodes)``; isolated nodes are retained.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            raise EmptyGraphError("graph has no edges (M=0)")
        arr = arr.reshape(-1, 2)
        if arr.min() < 0 or arr.max() >= num_nodes:
            raise ValueError("edge endpoint outside [0, num_nodes)")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        # sorted keys u·n + v are canonical (u, v) order; a repeat of the
        # key before it is a duplicate edge
        key = np.sort((u * np.int64(num_nodes) + v)[u != v])
        if key.size == 0:
            raise EmptyGraphError("graph has no edges after dropping self-loops (M=0)")
        key = key[np.append(True, key[1:] != key[:-1])]
        return cls(num_nodes, *np.divmod(key, num_nodes), labels=labels)

    # -- queries ----------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(np.int64)

    def edge_ids(self, u, v) -> np.ndarray:
        """The edge id of each pair {u[i], v[i]} in either orientation, or -1
        where the pair is not an edge."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        # an id out of range could alias another pair's key
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= self.num_nodes):
            raise ValueError("node id outside [0, num_nodes)")
        keys = np.minimum(u, v) * self.num_nodes + np.maximum(u, v)
        ix = np.minimum(np.searchsorted(self.edge_keys, keys), self.num_edges - 1)
        return np.where(self.edge_keys[ix] == keys, ix, -1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, v in zip(self.edge_u, self.edge_v):
            yield int(u), int(v)

    def __eq__(self, other: object) -> bool:
        """Same nodes, edges and labels: the one test of whether tables
        derived on one graph belong to another."""
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def load_edge_list(
    source: str | os.PathLike | IO[str] | Iterable[str],
    *,
    one_indexed: bool = False,
    skip_header: bool = False,
) -> Graph:
    """Parse a whitespace edge list into a canonical :class:`Graph`.

    Lines hold at least two integer tokens ``u v``; extra tokens (weights)
    are ignored. Comment lines start with ``%`` or ``#``. With
    ``skip_header`` the first non-comment line (a MatrixMarket size line) is
    skipped. Self-loops are dropped but their node is kept; duplicate and
    reversed edges collapse to one. Node labels are compacted to ``[0, N)``
    with the original labels retained.

    A file of plain ``u v`` lines is parsed in bulk; any other input goes
    line by line, which names the first line it cannot take.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()  # once: a pipe's path cannot be read again
        graph = _load_plain_bytes(data, one_indexed, skip_header)
        if graph is not None:
            return graph
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")  # -sig: drop a leading BOM

    raw_u: list[int] = []
    raw_v: list[int] = []
    header_pending = skip_header
    low = 1 if one_indexed else _INT64_MIN
    for line_no, line in enumerate(source, start=1):
        tokens = line.split(None, 2)  # u, v, and the ignored rest
        if not tokens or tokens[0][0] in "%#":
            continue
        if header_pending:
            header_pending = False
            continue
        if len(tokens) < 2:
            raise EdgeListParseError(line_no, f"expected at least 2 tokens, got {len(tokens)}")
        try:
            a = int(tokens[0])
            b = int(tokens[1])
        except ValueError as exc:
            raise EdgeListParseError(line_no, f"malformed integer token: {exc}") from None
        if not low <= a <= _INT64_MAX >= b >= low:
            for label in (a, b):
                if not _INT64_MIN <= label <= _INT64_MAX:
                    raise EdgeListParseError(line_no, f"node label {label} is outside the int64 range")
            raise EdgeListParseError(line_no, f"node id {min(a, b)} invalid in one-indexed input")
        raw_u.append(a)
        raw_v.append(b)

    if not raw_u:
        raise EmptyGraphError("input contains no edges (M=0)")

    return _graph_of_labels(np.asarray(raw_u, dtype=np.int64), np.asarray(raw_v, dtype=np.int64))


def _graph_of_labels(ua: np.ndarray, va: np.ndarray) -> Graph:
    """The graph of labelled edges (ua[i], va[i]), labels compacted in order."""
    labels, ids = np.unique(np.concatenate([ua, va]), return_inverse=True)
    return Graph.from_edges(labels.size, ids.reshape(2, -1).T, labels=labels)


def _load_plain_bytes(data: bytes, one_indexed: bool, skip_header: bool) -> Graph | None:
    """The graph of a file whose every line is ``u v``, parsed in bulk, or
    None for any other file, left to the line loop."""
    pairs = _plain_pairs(data.removeprefix(b"\xef\xbb\xbf"))
    if pairs is None:
        return None
    if skip_header:
        pairs = pairs[1:]
    if len(pairs) == 0 or (one_indexed and pairs.min() < 1):
        return None
    return _graph_of_labels(pairs[:, 0], pairs[:, 1])


def _plain_pairs(data: bytes) -> np.ndarray | None:
    """The (M, 2) labels of a text whose every line holds two integers of at
    most 18 digits, each with an optional leading '-', among spaces and
    tabs; None for any other text."""
    kind = np.zeros(256, np.uint8)  # 0: a byte no plain line holds
    kind[np.frombuffer(b"0123456789-", np.uint8)] = (1,) * 10 + (2,)
    kind[np.frombuffer(b" \t\n", np.uint8)] = (3, 3, 4)
    byte_kind = kind[np.frombuffer(data, np.uint8)]
    if not byte_kind.size or not byte_kind.all():
        return None
    edges = np.diff((byte_kind <= 2).view(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    line_ends = np.flatnonzero(byte_kind == 4)
    if byte_kind[-1] != 4:
        line_ends = np.append(line_ends, len(byte_kind))
    # two tokens per line: the second starts before the line's end, and the
    # next line's first after it
    if len(starts) != 2 * len(line_ends) or (starts[1::2] > line_ends).any() or (
        starts[2::2] < line_ends[:-1]
    ).any():
        return None
    signed = byte_kind[starts] == 2
    digits = ends - starts - signed
    if signed.sum() != (byte_kind == 2).sum() or digits.min() < 1 or digits.max() > 18:
        return None
    labels = np.fromstring(data, dtype=np.int64, sep=" ")
    return labels.reshape(-1, 2) if len(labels) == len(starts) else None
