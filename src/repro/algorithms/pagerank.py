"""PageRank (paper §2.1.2, Eq. 1).

Per iteration every node keeps ``(1−d)/|V|`` and distributes
``d·R(u)/|N⁺(u)|`` to each out-neighbour — exactly the paper's update,
including its rank leak at dangling nodes (the evaluation graphs have
none; the generators default to min out-degree 1).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any

import numpy as np

from ..common.config import iter_conf
from ..common.partition import ModPartitioner
from ..graph import Digraph
from ..imapreduce import AccumJob, AccumKernel, IterativeJob, Kernel
from ..imapreduce.columnar import adjacency_csr, csr_rows
from ..mapreduce.driver import IterativeSpec, job_chain

__all__ = [
    "DAMPING",
    "initial_state",
    "static_records",
    "PageRankMap",
    "imr_reduce",
    "manhattan_distance",
    "PageRankKernel",
    "build_imr_job",
    "PageRankAccumUpdate",
    "PageRankAccumKernel",
    "accum_initial_deltas",
    "build_accum_job",
    "mr_initial_records",
    "make_mr_mapper",
    "mr_reducer",
    "mr_combiner",
    "build_mr_spec",
    "reference_iterations",
    "reference_networkx",
]

#: The customary damping factor the paper's example code uses.
DAMPING = 0.8


# ----------------------------------------------------------------- data --
def initial_state(graph: Digraph) -> list[tuple[int, float]]:
    """R⁽⁰⁾(v) = 1/|V| for every node."""
    n = graph.num_nodes
    return [(u, 1.0 / n) for u in range(n)]


def static_records(graph: Digraph) -> list[tuple[int, tuple]]:
    """Static records: each node's out-neighbour set ``(v, …)``."""
    if graph.weighted:
        raise ValueError("PageRank uses an unweighted graph")
    return list(graph.static_records())


# ---------------------------------------------------------- iMapReduce --
class PageRankMap:
    """The paper's Fig. 3 map: retain (1−d)/N, share d·R(u)/|N⁺(u)|.

    A module-level callable (not a closure) so a built job pickles and
    can ship to the multiprocess backend's worker processes.
    """

    __slots__ = ("num_nodes", "damping")

    def __init__(self, num_nodes: int, damping: float = DAMPING):
        self.num_nodes = num_nodes
        self.damping = damping

    def __call__(self, key: int, rank: float, neighbors: tuple | None, ctx) -> None:
        ctx.emit(key, (1.0 - self.damping) / self.num_nodes)
        if neighbors:
            share = self.damping * rank / len(neighbors)
            for v in neighbors:
                ctx.emit(v, share)


def imr_reduce(key: int, values: list, ctx) -> None:
    """Sum is associative, so this is also the exact map-side combiner.
    A left fold, ``((0+a₀)+a₁)+…`` on every Python (``sum`` compensates
    floats from 3.12 on): the ``sum`` fold the job declares."""
    ctx.emit(key, reduce(add, values, 0))


def manhattan_distance(key: Any, prev: float | None, curr: float) -> float:
    """The paper's Fig. 3 distance: Manhattan between iterations."""
    if prev is None:
        return abs(curr)
    return abs(prev - curr)


class PageRankKernel(Kernel):
    """Vectorized PageRank: one array expression per pair per iteration.

    ``prepare`` builds the pair's CSR-style out-adjacency once at
    partition load (§3.2: static data is resident, never re-shuffled);
    ``map_kernel`` evaluates every retain and share emission at once.
    The share values are bitwise-equal to :class:`PageRankMap`'s
    (``d·R(u)/|N⁺(u)|`` elementwise), but the ``sum`` merge reorders the
    float additions, so the record path is a tolerance reference.
    """

    __slots__ = ("num_nodes", "damping")

    merge = "sum"
    static_csr = "csr"

    def __init__(self, num_nodes: int, damping: float = DAMPING):
        self.num_nodes = num_nodes
        self.damping = damping

    def prepare(self, pair, owned_keys, static_table):
        counts, _, targets, _ = adjacency_csr(owned_keys, static_table)
        src_local = np.repeat(np.arange(owned_keys.size), counts)
        # The emission keys and the retain column never change: built
        # once, and the *same* key array is returned every iteration, so
        # the executor's shuffle plan is reused on an identity test.
        out_keys = np.concatenate([owned_keys, targets])
        retain = np.full(owned_keys.size, (1.0 - self.damping) / self.num_nodes)
        return counts[src_local], src_local, out_keys, retain

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        out_degree, src_local, out_keys, retain = prepared
        shares = self.damping * values[src_local] / out_degree
        return out_keys, np.concatenate([retain, shares])

    def distance_partial(self, keys, prev, curr):
        return float(np.abs(prev - curr).sum())


def build_imr_job(
    graph_nodes: int,
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int | None = None,
    threshold: float | None = None,
    num_pairs: int | None = None,
    sync: bool = False,
    damping: float = DAMPING,
    combiner: bool = False,
    checkpoint_interval: int | None = None,
    buffer_records: int | None = None,
    use_kernel: bool = False,
) -> IterativeJob:
    conf = iter_conf(
        state_path=state_path, static_path=static_path, max_iterations=max_iterations,
        threshold=threshold, sync=sync, checkpoint_interval=checkpoint_interval,
        buffer_records=buffer_records,
    )
    return IterativeJob.single_phase(
        "pagerank",
        PageRankMap(graph_nodes, damping),
        imr_reduce,
        conf=conf,
        output_path=output_path,
        distance_fn=manhattan_distance if threshold is not None else None,
        partitioner=ModPartitioner(),
        combiner=imr_reduce if combiner else None,
        num_pairs=num_pairs,
        fold="sum",
        kernel=PageRankKernel(graph_nodes, damping) if use_kernel else None,
    )


# ------------------------------------------------- accumulative (Maiter) --
class PageRankAccumUpdate:
    """Maiter §3's accumulative PageRank update.

    State starts at 0 and accumulates under ``+``: the initial delta is
    every node's retained ``(1−d)/N``, and applying a delta ``Δ`` at
    ``u`` forwards ``d·Δ/|N⁺(u)|`` to each out-neighbour.  The fixpoint
    ``Σₖ (dM)ᵏ·b`` is exactly Eq. 1's, including the dangling-node rank
    leak (no out-neighbours → nothing forwarded).  Module-level class so
    built jobs pickle to the worker processes.
    """

    __slots__ = ("damping",)

    def __init__(self, damping: float = DAMPING):
        self.damping = damping

    def __call__(self, key, delta, state, neighbors, emit) -> None:
        if neighbors:
            share = self.damping * delta / len(neighbors)
            for v in neighbors:
                emit(v, share)


class PageRankAccumKernel(AccumKernel):
    """Columnar twin of :class:`PageRankAccumUpdate`: the applied
    deltas' shares are expanded through the pair's CSR out-adjacency in
    one gather (bitwise-equal share values; the pending ``+`` coalesce
    reorders float additions, so the record path is a tolerance
    reference, same as the synchronous kernels)."""

    __slots__ = ("damping",)

    state_dtype = "float64"

    def __init__(self, damping: float = DAMPING):
        self.damping = damping

    def prepare(self, pair, owned_keys, static_table):
        return adjacency_csr(owned_keys, static_table)[:3]

    def emit_deltas(self, pair, owned_keys, idx, deltas, states, prepared):
        counts, indptr, targets = prepared
        # Edge rows of the applied sources, in application order
        # (matching the record update's emit order).
        reps, flat = csr_rows(counts, indptr, idx)
        # A row without edges gathers no share: max(·, 1) only spares it
        # a division by zero.
        shares = self.damping * deltas / np.maximum(counts[idx], 1)
        return targets[flat], shares[reps]


def accum_initial_deltas(
    graph_nodes: int, damping: float = DAMPING
) -> list[tuple[int, float]]:
    """Initial deltas: every node's retained rank ``(1−d)/N``."""
    return [(u, (1.0 - damping) / graph_nodes) for u in range(graph_nodes)]


def build_accum_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    threshold: float | None = None,
    max_rounds: int | None = None,
    num_pairs: int | None = None,
    damping: float = DAMPING,
    top_fraction: float | None = None,
    use_kernel: bool = False,
) -> AccumJob:
    conf = iter_conf(
        state_path=state_path, static_path=static_path, max_iterations=max_rounds,
        threshold=threshold, top_fraction=top_fraction,
    )
    return AccumJob(
        name="pagerank-accum",
        fold="sum",
        update_fn=PageRankAccumUpdate(damping),
        output_path=output_path,
        conf=conf,
        partitioner=ModPartitioner(),
        num_pairs=num_pairs,
        kernel=PageRankAccumKernel(damping) if use_kernel else None,
    )


# ------------------------------------------------------------ MapReduce --
def mr_initial_records(graph: Digraph) -> list[tuple[int, tuple]]:
    """Baseline records: ``(u, (R(u), N⁺(u)))`` — rank plus adjacency."""
    n = graph.num_nodes
    adjacency = dict(static_records(graph))
    return [(u, (1.0 / n, adjacency[u])) for u in range(n)]


def make_mr_mapper(num_nodes: int, damping: float = DAMPING):
    def mr_mapper(key: int, value: tuple, ctx) -> None:
        rank, neighbors = value
        ctx.emit(key, ("node", (1.0 - damping) / num_nodes, neighbors))
        if neighbors:
            share = damping * rank / len(neighbors)
            for v in neighbors:
                ctx.emit(v, ("share", share))

    return mr_mapper


def mr_reducer(key: int, values: list, ctx) -> None:
    rank = 0.0
    neighbors: tuple = ()
    for value in values:
        rank += value[1]
        if value[0] == "node":
            neighbors = value[2]
    ctx.emit(key, (rank, neighbors))


def mr_combiner(key: int, values: list, ctx) -> None:
    """Map-side aggregation for the baseline: partial rank sums are
    exact; the (single) node record passes through with its own share."""
    partial = 0.0
    for value in values:
        if value[0] == "node":
            ctx.emit(key, value)
        else:
            partial += value[1]
    if partial:
        ctx.emit(key, ("share", partial))


def build_mr_spec(
    graph_nodes: int,
    *,
    output_prefix: str,
    max_iterations: int,
    threshold: float | None = None,
    num_reduces: int = 4,
    damping: float = DAMPING,
    combiner: bool = False,
) -> IterativeSpec:
    return job_chain(
        "pagerank", make_mr_mapper(graph_nodes, damping), mr_reducer,
        output_prefix=output_prefix, max_iterations=max_iterations, threshold=threshold,
        num_reduces=num_reduces, combiner=mr_combiner if combiner else None,
        distance_fn=manhattan_distance,
    )


# ------------------------------------------------------------ references --
def reference_iterations(
    graph: Digraph, iterations: int, damping: float = DAMPING
) -> np.ndarray:
    """Exactly ``iterations`` applications of Eq. 1 (numpy)."""
    n = graph.num_nodes
    rank = np.full(n, 1.0 / n)
    degrees = np.maximum(graph.out_degree(), 1)
    sources = np.repeat(np.arange(n), np.diff(graph.indptr))
    targets = graph.targets
    for _ in range(iterations):
        shares = damping * rank[sources] / degrees[sources]
        new = np.full(n, (1.0 - damping) / n)
        np.add.at(new, targets, shares)
        # Dangling nodes emit no shares (Eq. 1 leaks their rank),
        # mirroring the engine implementations exactly.
        rank = new
    return rank


def reference_networkx(graph: Digraph, damping: float = DAMPING) -> np.ndarray:
    """Converged PageRank via networkx (no dangling nodes assumed)."""
    import networkx as nx

    result = nx.pagerank(graph.to_networkx(), alpha=damping, tol=1e-12, max_iter=500)
    return np.array([result[u] for u in range(graph.num_nodes)])
