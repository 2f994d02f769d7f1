"""Single-Source Shortest Path (paper §2.1.1).

The iterative scheme is synchronous Bellman–Ford / breadth-first
relaxation: each iteration every node offers ``d(u) + W(u, v)`` to each
out-neighbour and keeps the minimum of the offers and its own distance.

Three implementations, all with identical per-iteration semantics:

* :func:`build_imr_job` — iMapReduce (state = distances, static =
  weighted adjacency, the paper's formulation);
* :func:`build_mr_spec` — the Hadoop-style job chain where each record
  carries *both* the distance and the adjacency list (static data
  re-shuffled every iteration — the paper's baseline);
* :func:`reference_iterations` / :func:`reference_exact` — vectorised
  numpy / scipy oracles.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Any

import numpy as np

from ..common.config import IterKeys, JobConf
from ..common.partition import ModPartitioner
from ..graph import Digraph
from ..imapreduce import MIN, AccumJob, AccumKernel, IterativeJob, Kernel
from ..imapreduce.accum import TOP_FRACTION_KEY
from ..mapreduce import Job
from ..mapreduce.driver import IterativeSpec

__all__ = [
    "INFINITY",
    "initial_state",
    "static_records",
    "imr_map",
    "imr_reduce",
    "manhattan_distance",
    "SsspKernel",
    "build_imr_job",
    "accum_update",
    "SsspAccumKernel",
    "accum_initial_deltas",
    "build_accum_job",
    "mr_initial_records",
    "mr_mapper",
    "mr_reducer",
    "mr_combiner",
    "build_mr_spec",
    "reference_iterations",
    "reference_exact",
]

INFINITY = math.inf


# ----------------------------------------------------------------- data --
def initial_state(graph: Digraph, source: int) -> list[tuple[int, float]]:
    """State records: the source at distance 0, everyone else at ∞."""
    return [(u, 0.0 if u == source else INFINITY) for u in range(graph.num_nodes)]


def static_records(graph: Digraph) -> list[tuple[int, tuple]]:
    """Static records: each node's weighted out-adjacency ``((v, w), …)``."""
    if not graph.weighted:
        raise ValueError("SSSP needs a weighted graph")
    return list(graph.static_records())


# ---------------------------------------------------------- iMapReduce --
def imr_map(key: int, distance: float, adjacency: tuple | None, ctx) -> None:
    """Offer ``d(u) + W(u, v)`` to each neighbour; keep own distance."""
    ctx.emit(key, distance)
    if adjacency and distance != INFINITY:
        for v, w in adjacency:
            ctx.emit(v, distance + w)


def imr_reduce(key: int, values: list, ctx) -> None:
    ctx.emit(key, min(values))


def imr_combine(key: int, values: list, ctx) -> None:
    """Min is associative, so a map-side combiner is exact."""
    ctx.emit(key, min(values))


def manhattan_distance(key: Any, prev: float | None, curr: float) -> float:
    """|prev − curr| with ∞-aware semantics (unreached stays unreached)."""
    if prev is None:
        return 0.0 if curr == INFINITY else abs(curr)
    if prev == INFINITY and curr == INFINITY:
        return 0.0
    if prev == INFINITY or curr == INFINITY:
        return INFINITY
    return abs(prev - curr)


class SsspKernel(Kernel):
    """Vectorized Bellman–Ford relaxation.

    Offers ``d(u) + W(u, v)`` are the identical float additions the
    record path performs, and the ``min`` merge is order-independent, so
    this kernel is **bit-exact** against the record path — the
    differential tests assert record-for-record equality.
    """

    __slots__ = ()

    merge = "min"

    def prepare(self, pair, owned_keys, static_table):
        adj = [static_table.get(k) or () for k in owned_keys.tolist()]
        counts = np.array([len(t) for t in adj], dtype=np.int64)
        total = int(counts.sum())
        targets = np.fromiter(
            map(itemgetter(0), chain.from_iterable(adj)), dtype=np.int64, count=total
        )
        weights = np.fromiter(
            map(itemgetter(1), chain.from_iterable(adj)), dtype=np.float64, count=total
        )
        src_local = np.repeat(np.arange(owned_keys.size), counts)
        return targets, weights, src_local

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        targets, weights, src_local = prepared
        # Only reached nodes make offers (the record map's ∞ guard).
        reachable = np.isfinite(values[src_local])
        offers = values[src_local][reachable] + weights[reachable]
        return (
            np.concatenate([keys, targets[reachable]]),
            np.concatenate([values, offers]),
        )

    def distance_partial(self, keys, prev, curr):
        # ∞-aware Manhattan: both ∞ → 0, one ∞ → ∞, else |prev − curr|
        # (matches :func:`manhattan_distance`; ∞−∞ would be NaN).
        both_inf = np.isinf(prev) & np.isinf(curr)
        with np.errstate(invalid="ignore"):  # ∞−∞ lanes are masked out
            diff = np.where(both_inf, 0.0, np.abs(prev - curr))
        return float(diff.sum())


def build_imr_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int | None = None,
    threshold: float | None = None,
    num_pairs: int | None = None,
    sync: bool = False,
    combiner: bool = False,
    checkpoint_interval: int | None = None,
    buffer_records: int | None = None,
    use_kernel: bool = False,
) -> IterativeJob:
    """The paper's SSSP job on the iMapReduce engine."""
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, state_path)
    conf.set(IterKeys.STATIC_PATH, static_path)
    if max_iterations is not None:
        conf.set_int(IterKeys.MAX_ITER, max_iterations)
    if threshold is not None:
        conf.set_float(IterKeys.DIST_THRESH, threshold)
    if sync:
        conf.set_boolean(IterKeys.SYNC, True)
    if checkpoint_interval is not None:
        conf.set_int(IterKeys.CHECKPOINT_INTERVAL, checkpoint_interval)
    if buffer_records is not None:
        conf.set_int(IterKeys.BUFFER_RECORDS, buffer_records)
    return IterativeJob.single_phase(
        "sssp",
        imr_map,
        imr_reduce,
        conf=conf,
        output_path=output_path,
        distance_fn=manhattan_distance if threshold is not None else None,
        partitioner=ModPartitioner(),
        combiner=imr_combine if combiner else None,
        num_pairs=num_pairs,
        kernel=SsspKernel() if use_kernel else None,
    )


# ------------------------------------------------- accumulative (Maiter) --
def accum_update(key, delta, state, adjacency, emit) -> None:
    """Maiter-mode SSSP: distances accumulate under ``min`` from the ∞
    identity; an improved distance re-offers ``d(u) + W(u, v)`` to each
    out-neighbour.  The engine only calls this when the merge *changed*
    the state, so converged nodes never re-offer — asynchronous
    Bellman–Ford with the label-correcting work saving."""
    if adjacency:
        for v, w in adjacency:
            emit(v, state + w)


class SsspAccumKernel(AccumKernel):
    """Columnar twin of :func:`accum_update` — offers are the identical
    float additions and ``min`` is order-independent, so the kernel is
    bit-exact against the record-level delta engine."""

    __slots__ = ()

    merge = "min"
    state_dtype = "float64"
    identity = np.inf

    def prepare(self, pair, owned_keys, static_table):
        adj = [static_table.get(k) or () for k in owned_keys.tolist()]
        counts = np.array([len(t) for t in adj], dtype=np.int64)
        total = int(counts.sum())
        targets = np.fromiter(
            map(itemgetter(0), chain.from_iterable(adj)), dtype=np.int64, count=total
        )
        weights = np.fromiter(
            map(itemgetter(1), chain.from_iterable(adj)), dtype=np.float64, count=total
        )
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return counts, indptr, targets, weights

    def emit_deltas(self, pair, owned_keys, idx, deltas, states, prepared):
        counts, indptr, targets, weights = prepared
        c = counts[idx]
        total = int(c.sum())
        if total == 0:
            return targets[:0], weights[:0]
        reps = np.repeat(np.arange(idx.size), c)
        within = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        flat = indptr[idx][reps] + within
        return targets[flat], states[reps] + weights[flat]


def accum_initial_deltas(source: int) -> list[tuple[int, float]]:
    """One initial delta: the source at distance 0 (everything else
    starts at the ``min`` identity, ∞)."""
    return [(source, 0.0)]


def build_accum_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    threshold: float = 0.0,
    max_rounds: int | None = None,
    num_pairs: int | None = None,
    top_fraction: float | None = None,
    use_kernel: bool = False,
) -> AccumJob:
    """SSSP as an accumulative job.  ``min`` deltas drain completely —
    the default threshold 0.0 stops exactly at the fixpoint, which is
    unique, so every schedule (sync, async, any worker count) produces
    bit-identical distances."""
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, state_path)
    conf.set(IterKeys.STATIC_PATH, static_path)
    if max_rounds is not None:
        conf.set_int(IterKeys.MAX_ITER, max_rounds)
    conf.set_float(IterKeys.DIST_THRESH, threshold)
    if top_fraction is not None:
        conf.set_float(TOP_FRACTION_KEY, top_fraction)
    return AccumJob(
        name="sssp-accum",
        accumulator=MIN,
        update_fn=accum_update,
        output_path=output_path,
        conf=conf,
        partitioner=ModPartitioner(),
        num_pairs=num_pairs,
        kernel=SsspAccumKernel() if use_kernel else None,
    )


# ------------------------------------------------------------ MapReduce --
def mr_initial_records(graph: Digraph, source: int) -> list[tuple[int, tuple]]:
    """Baseline input records: ``(u, (d(u), adjacency))`` — the distance
    and the static adjacency travel together (§2.1.1)."""
    adjacency = dict(static_records(graph))
    return [
        (u, (0.0 if u == source else INFINITY, adjacency[u]))
        for u in range(graph.num_nodes)
    ]


def mr_mapper(key: int, value: tuple, ctx) -> None:
    distance, adjacency = value
    # Keep the node alive and carry the static adjacency through the
    # shuffle (the overhead iMapReduce eliminates).
    ctx.emit(key, ("node", distance, adjacency))
    if distance != INFINITY:
        for v, w in adjacency:
            ctx.emit(v, ("offer", distance + w))


def mr_reducer(key: int, values: list, ctx) -> None:
    best = INFINITY
    adjacency: tuple = ()
    for value in values:
        if value[0] == "node":
            best = min(best, value[1])
            adjacency = value[2]
        else:
            best = min(best, value[1])
    ctx.emit(key, (best, adjacency))


def mr_combiner(key: int, values: list, ctx) -> None:
    """Map-side aggregation for the baseline: min over the offers is
    exact; the (single) node record passes through unchanged."""
    best_offer = INFINITY
    for value in values:
        if value[0] == "node":
            ctx.emit(key, value)
            best_offer = min(best_offer, value[1])
        else:
            best_offer = min(best_offer, value[1])
    if best_offer != INFINITY:
        ctx.emit(key, ("offer", best_offer))


def _diff_mapper(key, value, ctx):
    distance = value[0] if isinstance(value, tuple) else value
    ctx.emit(key, distance)


def _diff_reducer(key, values, ctx):
    ctx.increment("distance", manhattan_distance(key, values[0], values[-1]))


def build_mr_spec(
    *,
    output_prefix: str,
    max_iterations: int,
    threshold: float | None = None,
    num_reduces: int = 4,
    combiner: bool = False,
) -> IterativeSpec:
    """The Hadoop baseline: one job per iteration (+ optional check job)."""

    def job_factory(iteration: int, input_paths: list[str]) -> Job:
        return Job(
            name=f"sssp-{iteration}",
            mapper=mr_mapper,
            reducer=mr_reducer,
            combiner=mr_combiner if combiner else None,
            input_paths=input_paths,
            output_path=f"{output_prefix}/iter{iteration}",
            num_reduces=num_reduces,
            partitioner=ModPartitioner(),
        )

    def convergence_factory(iteration, prev_paths, curr_paths) -> Job:
        return Job(
            name=f"sssp-check-{iteration}",
            mapper=_diff_mapper,
            reducer=_diff_reducer,
            input_paths=list(prev_paths) + list(curr_paths),
            output_path=f"{output_prefix}/check{iteration}",
            num_reduces=num_reduces,
            partitioner=ModPartitioner(),
        )

    return IterativeSpec(
        name="sssp",
        job_factory=job_factory,
        max_iterations=max_iterations,
        threshold=threshold,
        convergence_factory=convergence_factory if threshold is not None else None,
    )


# ------------------------------------------------------------ references --
def reference_iterations(graph: Digraph, source: int, iterations: int) -> np.ndarray:
    """Exactly ``iterations`` synchronous relaxation rounds (numpy)."""
    if not graph.weighted:
        raise ValueError("SSSP needs a weighted graph")
    n = graph.num_nodes
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    sources = np.repeat(np.arange(n), np.diff(graph.indptr))
    targets = graph.targets
    weights = graph.weights
    for _ in range(iterations):
        offers = dist[sources] + weights
        new = dist.copy()
        np.minimum.at(new, targets, offers)
        dist = new
    return dist


def reference_exact(graph: Digraph, source: int) -> np.ndarray:
    """Converged shortest distances via scipy's Dijkstra."""
    from scipy.sparse.csgraph import dijkstra

    matrix = graph.to_scipy_csr()
    return dijkstra(matrix, directed=True, indices=source)
