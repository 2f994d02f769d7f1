"""The workload table: ``(algorithm, formulation)`` → one builder.

Every caller that runs a shipped algorithm on a real backend — ``repro
run``, the chaos harness — used to carry its own ``if algorithm == ...``
ladder from source data to ``(job, inputs, statics)``.  They differ
only in where the data comes from (a dataset, a seeded generator) and
in a few job options, so the ladder lives here once:
:func:`build_workload` looks the builder up and hands back a
:class:`Workload`.  ``formulation`` is ``"iterative"`` (the paper's
state/static job, :func:`build_imr_job`) or ``"accumulative"`` (the
Maiter delta formulation, :func:`build_accum_job`).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import kmeans, matrixpower, pagerank, sssp

__all__ = [
    "SOURCE",
    "PATHS",
    "SUM_THRESHOLD",
    "MAX_ROUNDS",
    "RUN_KMEANS_K",
    "Workload",
    "WORKLOADS",
    "builder_for",
    "build_workload",
    "load_source",
]

#: The SSSP source node of every shipped workload.
SOURCE = 0
#: Where the real-backend callers park their jobs' conf paths.
PATHS = {"state_path": "/bench/state", "static_path": "/bench/static",
         "output_path": "/bench/out"}
#: Pending-mass threshold at which a ``+``-algebra accumulative job
#: stops (sync and async stop at the same accumulated-progress line,
#: which is what makes their shipped-data comparison fair); ``min``
#: algebras drain exactly at 0 and take no threshold.
SUM_THRESHOLD = 1e-9
#: Round budget no converging accumulative run reaches.
MAX_ROUNDS = 100_000
#: Centroids ``repro run kmeans`` starts from — and so the most task
#: pairs it can host (one2all state is partitioned by centroid id).
RUN_KMEANS_K = 4


class Workload(NamedTuple):
    """What :func:`build_workload` returns.  ``inputs`` is the initial
    state (iterative) or the initial deltas (accumulative); ``planner``
    holds the change-planner keywords a warm start of this workload
    needs (``None``: no incremental support); ``algebra`` is ``"min"``
    / ``"sum"`` for jobs whose fixpoints the oracles compare (min
    bit-exactly, sum within tolerance), else ``""``."""

    job: Any
    inputs: list
    statics: dict
    planner: dict | None = None
    algebra: str = ""


#: algorithm -> (change-planner keywords, algebra), both formulations.
_INCREMENTAL = {
    "sssp": ({"source": SOURCE}, "min"),
    "pagerank": ({"damping": pagerank.DAMPING}, "sum"),
}


# Builders: (source data, paths, steps, **job options) -> (job, inputs,
# static records).
def _sssp(graph, paths, steps, **options):
    job = sssp.build_imr_job(**paths, max_iterations=steps, **options)
    return job, sssp.initial_state(graph, SOURCE), sssp.static_records(graph)


def _sssp_accum(graph, paths, steps, *, sum_threshold=None, **options):
    job = sssp.build_accum_job(**paths, max_rounds=steps, **options)
    return job, sssp.accum_initial_deltas(SOURCE), sssp.static_records(graph)


def _pagerank(graph, paths, steps, **options):
    job = pagerank.build_imr_job(
        graph.num_nodes, **paths, max_iterations=steps, **options
    )
    return job, pagerank.initial_state(graph), pagerank.static_records(graph)


def _pagerank_accum(graph, paths, steps, *, sum_threshold=SUM_THRESHOLD, **options):
    job = pagerank.build_accum_job(
        **paths, threshold=sum_threshold, max_rounds=steps, **options
    )
    deltas = pagerank.accum_initial_deltas(graph.num_nodes, pagerank.DAMPING)
    return job, deltas, pagerank.static_records(graph)


def _kmeans(source, paths, steps, *, use_kernel=False, **options):
    data, k, centroid_seed = source
    job = kmeans.build_imr_job(
        **paths, max_iterations=steps, use_kernel=use_kernel,
        num_artists=data.num_artists if use_kernel else None, **options,
    )
    centroids = kmeans.initial_centroids(data, k, seed=centroid_seed)
    return job, centroids, data.user_records()


def _matrixpower(matrix, paths, steps, *, num_pairs=None):
    job = matrixpower.build_imr_job(
        **paths, max_iterations=steps, num_pairs=num_pairs
    )
    return (job, matrixpower.matrix_to_state_records(matrix),
            matrixpower.matrix_to_column_records(matrix))


#: Source data per row: a ``Digraph`` (sssp, pagerank); ``(LastFmDataset,
#: k, centroid_seed)`` (kmeans); a square matrix (matrixpower).
WORKLOADS = {
    ("sssp", "iterative"): _sssp,
    ("sssp", "accumulative"): _sssp_accum,
    ("pagerank", "iterative"): _pagerank,
    ("pagerank", "accumulative"): _pagerank_accum,
    ("kmeans", "iterative"): _kmeans,
    ("matrixpower", "iterative"): _matrixpower,
}


def builder_for(algorithm: str, formulation: str):
    """The table row, or a ``ValueError`` naming the rows that exist."""
    try:
        return WORKLOADS[algorithm, formulation]
    except KeyError:
        known = sorted(a for a, f in WORKLOADS if f == formulation)
        raise ValueError(
            f"no {formulation} formulation for {algorithm!r} "
            f"(supported: {', '.join(known)})"
        ) from None


def build_workload(
    algorithm: str, formulation: str, source, *,
    paths: dict = PATHS, steps: int | None = None, **options,
) -> Workload:
    """Build one table row's workload from its source data.

    ``paths`` holds ``state_path``/``static_path``/``output_path``;
    ``steps`` is the iteration (or round) budget; ``options`` go to the
    algorithm's job builder unchanged (``num_pairs``, ``combiner``,
    ``use_kernel``, ``threshold``, …), so an option the algorithm does
    not have is a ``TypeError``, not a silent no-op — except
    ``sum_threshold`` (default :data:`SUM_THRESHOLD`), which only the
    ``+``-algebra accumulative rows read.
    """
    job, inputs, static_records = builder_for(algorithm, formulation)(
        source, paths, steps, **options
    )
    return Workload(job, inputs, {paths["static_path"]: static_records},
                    *_INCREMENTAL.get(algorithm, ()))


def load_source(algorithm: str, dataset: str, seed: int = 0):
    """``repro run``'s source data: the registry datasets the simulated
    engine uses (``seed`` salts the synthetic kmeans/matrix inputs; 0
    keeps the historical fixed draws)."""
    from ..common import stable_seed
    from ..data import load_graph, load_lastfm

    def salted(label: str, default: int) -> int:
        return stable_seed(seed, label) % (2**31) if seed else default

    if algorithm == "kmeans":
        data = load_lastfm(num_users=800, num_artists=40,
                           num_tastes=RUN_KMEANS_K, seed=salted("lastfm", 1))
        return data, RUN_KMEANS_K, salted("centroids", 1)
    if algorithm == "matrixpower":
        return matrixpower.dataset_matrix(dataset, seed)
    return load_graph(dataset)
