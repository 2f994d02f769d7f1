"""Connected components by label propagation.

One of the "large class of graph-based iterative algorithms" the paper
targets (§2.2): every node repeatedly adopts the minimum label among its
own and its neighbours'; at convergence each weakly-connected component
carries its smallest member id.  Structurally identical to SSSP (min
fold, one-to-one mapping), so it runs unchanged on both engines.

For *weakly* connected components on a directed graph the static data is
the symmetrised adjacency (labels must flow both ways); the helper
:func:`static_records` builds it.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from ..common.config import IterKeys, JobConf
from ..common.partition import ModPartitioner
from ..graph import Digraph
from ..imapreduce import MIN, AccumJob, AccumKernel, IterativeJob, Kernel
from ..imapreduce.accum import TOP_FRACTION_KEY

__all__ = [
    "initial_state",
    "static_records",
    "imr_map",
    "imr_reduce",
    "change_distance",
    "ComponentsKernel",
    "build_imr_job",
    "accum_update",
    "ComponentsAccumKernel",
    "accum_initial_deltas",
    "build_accum_job",
    "reference_components",
    "reference_iterations",
]


# ----------------------------------------------------------------- data --
def initial_state(graph: Digraph) -> list[tuple[int, int]]:
    """Every node starts labelled with its own id."""
    return [(u, u) for u in range(graph.num_nodes)]


def static_records(graph: Digraph) -> list[tuple[int, tuple]]:
    """Symmetrised adjacency: ``(u, (neighbours in either direction))``."""
    neighbors: list[set[int]] = [set() for _ in range(graph.num_nodes)]
    sources = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    for u, v in zip(sources.tolist(), graph.targets.tolist()):
        neighbors[u].add(v)
        neighbors[v].add(u)
    return [(u, tuple(sorted(neighbors[u]))) for u in range(graph.num_nodes)]


# ---------------------------------------------------------- iMapReduce --
def imr_map(key: int, label: int, neighbors: tuple | None, ctx) -> None:
    ctx.emit(key, label)
    if neighbors:
        for v in neighbors:
            ctx.emit(v, label)


def imr_reduce(key: int, values: list, ctx) -> None:
    ctx.emit(key, min(values))


def change_distance(key: Any, prev: int | None, curr: int) -> float:
    """Count of nodes whose label changed — 0 means converged."""
    if prev is None:
        return 1.0
    return 0.0 if prev == curr else 1.0


class ComponentsKernel(Kernel):
    """Vectorized label propagation over the symmetrised adjacency.

    Labels are integers and the ``min`` merge is order-independent, so
    the kernel is **bit-exact** against the record path, including the
    label-change count driving the ``threshold == 0`` termination.
    """

    __slots__ = ()

    merge = "min"
    state_dtype = "int64"

    def prepare(self, pair, owned_keys, static_table):
        neigh = [static_table.get(k) or () for k in owned_keys.tolist()]
        counts = np.array([len(t) for t in neigh], dtype=np.int64)
        total = int(counts.sum())
        targets = np.fromiter(chain.from_iterable(neigh), dtype=np.int64, count=total)
        src_local = np.repeat(np.arange(owned_keys.size), counts)
        # The emission keys never change: the *same* array is returned
        # every iteration, so the shuffle plan is reused on an ``is``.
        return np.concatenate([owned_keys, targets]), src_local

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        out_keys, src_local = prepared
        return out_keys, np.concatenate([values, values[src_local]])

    def distance_partial(self, keys, prev, curr):
        # Exact integer count of changed labels — safe to compare to the
        # ``threshold == 0.0`` convergence rule bit-for-bit.
        return float(np.count_nonzero(prev != curr))


def build_imr_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int | None = None,
    converge: bool = True,
    num_pairs: int | None = None,
    use_kernel: bool = False,
) -> IterativeJob:
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, state_path)
    conf.set(IterKeys.STATIC_PATH, static_path)
    if max_iterations is not None:
        conf.set_int(IterKeys.MAX_ITER, max_iterations)
    if converge:
        conf.set_float(IterKeys.DIST_THRESH, 0.0)  # stop when no label moves
    return IterativeJob.single_phase(
        "components",
        imr_map,
        imr_reduce,
        conf=conf,
        output_path=output_path,
        distance_fn=change_distance if converge else None,
        partitioner=ModPartitioner(),
        combiner=imr_reduce,  # min is associative: always exact
        num_pairs=num_pairs,
        kernel=ComponentsKernel() if use_kernel else None,
    )


# ------------------------------------------------- accumulative (Maiter) --
def accum_update(key, delta, state, neighbors, emit) -> None:
    """Accumulative label flood: labels fold under ``min`` from the ∞
    identity; a node whose label improved offers the new label to its
    symmetrised neighbours.  Integer labels and a unique fixpoint make
    every schedule bit-identical."""
    if neighbors:
        for v in neighbors:
            emit(v, state)


class ComponentsAccumKernel(AccumKernel):
    """Columnar twin of :func:`accum_update`: int64 labels with the
    int64-max sentinel standing in for the record path's ∞ identity."""

    __slots__ = ()

    merge = "min"
    state_dtype = "int64"
    identity = np.iinfo(np.int64).max

    def prepare(self, pair, owned_keys, static_table):
        neigh = [static_table.get(k) or () for k in owned_keys.tolist()]
        counts = np.array([len(t) for t in neigh], dtype=np.int64)
        total = int(counts.sum())
        targets = np.fromiter(chain.from_iterable(neigh), dtype=np.int64, count=total)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return counts, indptr, targets

    def emit_deltas(self, pair, owned_keys, idx, deltas, states, prepared):
        counts, indptr, targets = prepared
        c = counts[idx]
        total = int(c.sum())
        if total == 0:
            return targets[:0], states[:0]
        reps = np.repeat(np.arange(idx.size), c)
        within = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        flat = indptr[idx][reps] + within
        return targets[flat], states[reps]


def accum_initial_deltas(graph_nodes: int) -> list[tuple[int, int]]:
    """Initial deltas: every node proposes its own id as its label."""
    return [(u, u) for u in range(graph_nodes)]


def build_accum_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_rounds: int | None = None,
    num_pairs: int | None = None,
    top_fraction: float | None = None,
    use_kernel: bool = False,
) -> AccumJob:
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, state_path)
    conf.set(IterKeys.STATIC_PATH, static_path)
    if max_rounds is not None:
        conf.set_int(IterKeys.MAX_ITER, max_rounds)
    conf.set_float(IterKeys.DIST_THRESH, 0.0)  # min deltas drain exactly
    if top_fraction is not None:
        conf.set_float(TOP_FRACTION_KEY, top_fraction)
    return AccumJob(
        name="components-accum",
        accumulator=MIN,
        update_fn=accum_update,
        output_path=output_path,
        conf=conf,
        partitioner=ModPartitioner(),
        num_pairs=num_pairs,
        kernel=ComponentsAccumKernel() if use_kernel else None,
    )


# ------------------------------------------------------------ references --
def reference_components(graph: Digraph) -> np.ndarray:
    """Min-member label per weakly connected component (scipy)."""
    from scipy.sparse.csgraph import connected_components

    _n, labels = connected_components(graph.to_scipy_csr(), directed=True,
                                      connection="weak")
    out = np.empty(graph.num_nodes, dtype=np.int64)
    for comp in range(labels.max() + 1):
        members = np.where(labels == comp)[0]
        out[members] = members.min()
    return out


def reference_iterations(graph: Digraph, iterations: int) -> np.ndarray:
    """Exactly ``iterations`` synchronous label-propagation rounds."""
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    sources = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    targets = graph.targets
    for _ in range(iterations):
        new = labels.copy()
        np.minimum.at(new, targets, labels[sources])
        np.minimum.at(new, sources, labels[targets])
        labels = new
    return labels
