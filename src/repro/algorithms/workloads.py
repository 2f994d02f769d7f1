"""The workload table: ``(algorithm, formulation)`` → one builder.

Every caller that runs a shipped algorithm builds it here, from source
data to a :class:`Workload`: the figure runner and the simulated ``repro
run`` cell (:func:`repro.experiments.workloads.execute`), ``repro run``
on the serial and parallel backends, and the chaos harness.  They differ
only in where the data comes from (a dataset, a seeded generator) and
in a few job options.  ``formulation`` is ``"iterative"`` (the paper's
state/static job, :func:`build_imr_job`), ``"accumulative"`` (the
Maiter delta formulation, :func:`build_accum_job`) or ``"baseline"``
(the Hadoop job chain the paper compares against, :func:`build_mr_spec`).
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from ..imapreduce.incremental import ChangeModel, change_model
from . import kmeans, matrixpower, pagerank, sssp

__all__ = [
    "SOURCE",
    "PATHS",
    "SUM_THRESHOLD",
    "MAX_ROUNDS",
    "RUN_KMEANS_K",
    "FORMULATIONS",
    "Workload",
    "WORKLOADS",
    "row_for",
    "run_options",
    "build_workload",
    "check_dataset",
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
#: An always-false termination threshold: distances are non-negative, so
#: the computation measures them every iteration but never stops early.
NEVER = -1.0
#: Convergence-detecting kmeans stops when fewer users than this move
#: between clusters (Fig. 20).
MOVE_THRESHOLD = 40
#: Simulated engine (``RunSpec.engine``, ``repro run --engine``) -> the
#: formulation it runs.
FORMULATIONS = {"imapreduce": "iterative", "mapreduce": "baseline"}
#: Run flag (``RunSpec`` field, ``repro run`` option) -> the row option
#: it sets when on.
FLAG_OPTIONS = {"sync": ("sync", True), "combiner": ("combiner", True),
                "measure_distance": ("threshold", NEVER),
                "convergence_detection": ("move_threshold", MOVE_THRESHOLD)}
#: Centroids ``repro run kmeans`` starts from — and so the most task
#: pairs it can host (one2all state is partitioned by centroid id).
RUN_KMEANS_K = 4


class Workload(NamedTuple):
    """What :func:`build_workload` returns.  ``inputs`` is the initial
    state (iterative), the initial deltas (accumulative) or the paths
    the first job reads (baseline); ``statics`` maps each DFS path to
    its records: the static file, or every file a baseline chain reads.
    ``change`` is the algorithm's change model — what a warm start needs,
    and the algebra the oracles compare fixpoints under (min
    bit-exactly, sum within tolerance) — for every algorithm with an
    accumulative formulation, else ``None``."""

    job: Any
    inputs: list
    statics: dict
    change: ChangeModel | None = None


def _parts(prefix: str, records: list, parts: int) -> dict:
    """``records`` as ``parts`` contiguous part files — the shape a
    previous job's output has on the DFS, so the baseline's first
    iteration schedules a full map wave."""
    chunk = -(-len(records) // parts)
    return {f"{prefix}/part-{i:05d}": records[i * chunk:(i + 1) * chunk]
            for i in range(parts)}


# Builders: (source data, paths, steps, **job options) -> (job, inputs,
# static records) — for the baseline, (IterativeSpec, input paths,
# {path: records}).  A baseline's ``num_pairs`` is its reduce count and
# the number of part files its initial records are split into.
def _sssp(graph, paths, steps, **options):
    job = sssp.build_imr_job(**paths, max_iterations=steps, **options)
    return job, sssp.initial_state(graph, SOURCE), sssp.static_records(graph)


def _sssp_accum(graph, paths, steps, *, sum_threshold=None, **options):
    job = sssp.build_accum_job(**paths, max_rounds=steps, **options)
    return job, sssp.accum_initial_deltas(SOURCE), sssp.static_records(graph)


def _sssp_mr(graph, paths, steps, *, num_pairs, **options):
    spec = sssp.build_mr_spec(output_prefix=paths["output_path"],
                              max_iterations=steps, num_reduces=num_pairs, **options)
    files = _parts(paths["state_path"], sssp.mr_initial_records(graph, SOURCE), num_pairs)
    return spec, list(files), files


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


def _pagerank_mr(graph, paths, steps, *, num_pairs, **options):
    spec = pagerank.build_mr_spec(graph.num_nodes, output_prefix=paths["output_path"],
                                  max_iterations=steps, num_reduces=num_pairs, **options)
    files = _parts(paths["state_path"], pagerank.mr_initial_records(graph), num_pairs)
    return spec, list(files), files


def _kmeans(source, paths, steps, *, use_kernel=False, move_threshold=None,
            **options):
    data, k, centroid_seed = source
    detect = move_threshold is not None  # §5.3: stop when few users move
    job = kmeans.build_imr_job(
        **paths, max_iterations=steps, use_kernel=use_kernel,
        num_artists=data.num_artists if use_kernel else None, track_membership=detect,
        aux=kmeans.make_convergence_aux(move_threshold) if detect else None,
        **options,
    )
    centroids = kmeans.initial_centroids(data, k, seed=centroid_seed)
    return job, centroids, data.user_records()


def _kmeans_mr(source, paths, steps, *, num_pairs, **options):
    data, k, centroid_seed = source
    files = _parts(paths["static_path"], data.user_records(), num_pairs)
    spec = kmeans.build_mr_spec(points_path=list(files), output_prefix=paths["output_path"],
                                max_iterations=steps, num_reduces=num_pairs, **options)
    files[paths["state_path"]] = kmeans.initial_centroids(data, k, seed=centroid_seed)
    return spec, [paths["state_path"]], files


def _matrixpower(matrix, paths, steps, *, num_pairs=None):
    job = matrixpower.build_imr_job(
        **paths, max_iterations=steps, num_pairs=num_pairs
    )
    return (job, matrixpower.matrix_to_state_records(matrix),
            matrixpower.matrix_to_column_records(matrix))


def _matrixpower_mr(matrix, paths, steps, *, num_pairs):
    m, n = paths["static_path"], paths["state_path"]
    spec = matrixpower.build_mr_spec(m_path=m, output_prefix=paths["output_path"],
                                     max_iterations=steps, num_reduces=num_pairs)
    return spec, [n], {m: matrixpower.matrix_to_mr_records(matrix, "M"),
                       n: matrixpower.matrix_to_mr_records(matrix, "N")}


#: (algorithm, formulation) -> (builder, the run options it takes).  A
#: run option is one a ``RunSpec`` / ``repro run`` flag sets
#: (:data:`FLAG_OPTIONS`); :func:`run_options` refuses a flag whose
#: option the row does not take, so none is dropped.  Source data per
#: row: a ``Digraph`` (sssp, pagerank); ``(LastFmDataset, k,
#: centroid_seed)`` (kmeans); a square matrix (matrixpower).
WORKLOADS = {
    ("sssp", "iterative"): (_sssp, ("sync", "combiner", "threshold")),
    ("sssp", "accumulative"): (_sssp_accum, ()),
    ("sssp", "baseline"): (_sssp_mr, ("combiner", "threshold")),
    ("pagerank", "iterative"): (_pagerank, ("sync", "combiner", "threshold")),
    ("pagerank", "accumulative"): (_pagerank_accum, ()),
    ("pagerank", "baseline"): (_pagerank_mr, ("combiner", "threshold")),
    ("kmeans", "iterative"): (_kmeans, ("combiner", "move_threshold")),
    ("kmeans", "baseline"): (_kmeans_mr, ("combiner", "move_threshold")),
    ("matrixpower", "iterative"): (_matrixpower, ()),
    ("matrixpower", "baseline"): (_matrixpower_mr, ()),
}


def row_for(algorithm: str, formulation: str):
    """The table row ``(builder, run options)``, or a ``ValueError``
    naming the rows that exist."""
    try:
        return WORKLOADS[algorithm, formulation]
    except KeyError:
        known = sorted(a for a, f in WORKLOADS if f == formulation)
        raise ValueError(
            f"no {formulation} formulation for {algorithm!r} "
            f"(supported: {', '.join(known)})"
        ) from None


def run_options(algorithm: str, formulation: str, flags: dict, spell=str) -> dict:
    """The row options the run flags in ``flags`` (flag -> value) set,
    or a ``ValueError`` naming the first flag that is on but whose
    option the row does not take — ``spell`` writes the flag's name."""
    takes = row_for(algorithm, formulation)[1]
    on = {flag: FLAG_OPTIONS[flag] for flag in FLAG_OPTIONS if flags.get(flag)}
    for flag, (option, _) in on.items():
        if option not in takes:
            raise ValueError(f"{spell(flag)}: {algorithm} has no {option} "
                             f"(its {formulation} formulation)")
    return dict(on.values())


def build_workload(
    algorithm: str, formulation: str, source, *,
    paths: dict = PATHS, steps: int | None = None, **options,
) -> Workload:
    """Build one table row's workload from its source data.

    ``paths`` holds ``state_path``/``static_path``/``output_path`` (a
    baseline splits its initial records into part files under the state
    path — kmeans' points under the static path — and writes its jobs'
    output under the output path); ``steps`` is the iteration (or round)
    budget; ``options`` go to the algorithm's job builder unchanged
    (``num_pairs``, ``combiner``, ``use_kernel``, ``threshold``, …), so
    an option the algorithm does not have is a ``TypeError``, not a
    silent no-op — except ``sum_threshold`` (default
    :data:`SUM_THRESHOLD`), which only the ``+``-algebra accumulative
    rows read.
    """
    job, inputs, statics = row_for(algorithm, formulation)[0](
        source, paths, steps, **options
    )
    if formulation != "baseline":  # one static file
        statics = {paths["static_path"]: statics}
    change = None
    if (algorithm, "accumulative") in WORKLOADS:
        change = change_model(algorithm, damping=pagerank.DAMPING, source=SOURCE)
    return Workload(job, inputs, statics, change)


def check_dataset(algorithm: str, dataset: str) -> None:
    """A ``ValueError`` unless ``dataset`` names source data
    ``algorithm`` runs on: a Table 1 graph (sssp), a Table 2 graph
    (pagerank), ``matrix<N>`` with N >= 1 (matrixpower) or ``lastfm``
    (kmeans, whose data is generated)."""
    from ..data import PAGERANK_DATASETS, SSSP_DATASETS

    if algorithm == "matrixpower":
        if re.fullmatch(r"matrix[0-9]+", dataset) and int(dataset[6:]) >= 1:
            return
        known = "matrix<N>, N >= 1"
    else:
        names = {"sssp": SSSP_DATASETS, "pagerank": PAGERANK_DATASETS,
                 "kmeans": ("lastfm",)}.get(algorithm, ())
        if dataset in names:
            return
        known = ", ".join(names)
    raise ValueError(f"unknown {algorithm} dataset {dataset!r} (known: {known})")


def load_source(algorithm: str, dataset: str, seed: int = 0):
    """``repro run``'s source data: the registry datasets the simulated
    engine uses (``seed`` salts the synthetic kmeans/matrix inputs; 0
    keeps the historical fixed draws)."""
    from ..common import stable_seed
    from ..data import load_graph, load_lastfm

    check_dataset(algorithm, dataset)

    def salted(label: str, default: int) -> int:
        return stable_seed(seed, label) % (2**31) if seed else default

    if algorithm == "kmeans":
        data = load_lastfm(num_users=800, num_artists=40,
                           num_tastes=RUN_KMEANS_K, seed=salted("lastfm", 1))
        return data, RUN_KMEANS_K, salted("centroids", 1)
    if algorithm == "matrixpower":
        return matrixpower.dataset_matrix(dataset, seed)
    return load_graph(dataset)
