"""Compact directed graph: CSR adjacency backed by numpy arrays.

This is the static-data substrate for the graph workloads (SSSP and
PageRank).  Adjacency is stored contiguously (``indptr``/``targets``/
optional ``weights``) so generation and statistics stay vectorised; the
engines consume it as per-node adjacency *records* via
:meth:`Digraph.static_records`, which is exactly the static data of §3.2.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Digraph"]


class Digraph:
    """Immutable directed graph in CSR form."""

    def __init__(
        self,
        indptr: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if indptr.ndim != 1 or len(indptr) < 1 or indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != len(targets):
            raise ValueError("indptr[-1] must equal len(targets)")
        n = len(indptr) - 1
        if len(targets) and (targets.min() < 0 or targets.max() >= n):
            raise ValueError("target node id out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != targets.shape:
                raise ValueError("weights must align with targets")
        self.indptr = indptr
        self.targets = targets
        self.weights = weights

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "Digraph":
        """Build from an edge list (sources need not be sorted)."""
        edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = edge_arr[:, 0], edge_arr[:, 1]
        if len(src) and (src.min() < 0 or src.max() >= num_nodes):
            raise ValueError("source node id out of range")
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        targets = dst[order]
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)[order]
        return cls(indptr, targets, w)

    # -- basic properties ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, u: int | None = None) -> int | np.ndarray:
        degrees = np.diff(self.indptr)
        return degrees if u is None else int(degrees[u])

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.indptr[u] : self.indptr[u + 1]]

    def out_weights(self, u: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    # -- record views ----------------------------------------------------------
    def static_records(self) -> Iterator[tuple[int, tuple]]:
        """Yield per-node adjacency records — the iMapReduce static data.

        Weighted graphs yield ``(u, ((v, w), ...))``; unweighted yield
        ``(u, (v, ...))``.  Every node appears, including sinks (empty
        adjacency) — the join in §3.2.2 needs a static record per key.
        """
        # One ``tolist`` per column makes every target a Python int and
        # every weight a Python float (numpy scalars would pickle larger);
        # a record is then a slice.
        bounds = self.indptr.tolist()
        row = self.targets.tolist()
        if self.weights is not None:
            row = list(zip(row, self.weights.tolist()))
        for u in range(self.num_nodes):
            yield u, tuple(row[bounds[u] : bounds[u + 1]])

    def edge_list(self) -> list[tuple[int, int]]:
        sources = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        return list(zip(sources.tolist(), self.targets.tolist()))

    # -- interop -----------------------------------------------------------------
    def to_networkx(self):
        """Export to a networkx DiGraph (collapses duplicate edges)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        if self.weights is None:
            g.add_edges_from(self.edge_list())
        else:
            sources = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
            g.add_weighted_edges_from(
                zip(sources.tolist(), self.targets.tolist(), self.weights.tolist())
            )
        return g

    def to_scipy_csr(self):
        """Export to a scipy sparse adjacency matrix (weights or 1s)."""
        from scipy.sparse import csr_matrix

        data = self.weights if self.weights is not None else np.ones(self.num_edges)
        return csr_matrix(
            (data, self.targets, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "weighted" if self.weighted else "unweighted"
        return f"<Digraph n={self.num_nodes} m={self.num_edges} {kind}>"
