"""Workload runner shared by every figure reproduction.

A :class:`RunSpec` names one (algorithm, dataset, engine, cluster,
variant) combination; :func:`execute` builds a fresh simulated cluster,
builds the run through the one workload table
(:func:`repro.algorithms.workloads.build_workload`: the ``iterative``
row for iMapReduce, the ``baseline`` row for its Hadoop twin — the same
table ``repro run`` on the real backends and the chaos harness build
through), ingests its files, runs it and returns its
:class:`~repro.metrics.RunMetrics`.  A ``RunSpec`` flag either sets an
option the row takes or is refused
(:func:`~repro.algorithms.workloads.run_options`).  Results are
cached per spec so figures that share a run (e.g. Figs. 8, 11, 12 all
use SSSP-l on the 20-instance cluster) pay for it once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from ..algorithms.workloads import FORMULATIONS, PATHS, build_workload
from ..algorithms.workloads import check_dataset, load_source, run_options
from ..cluster import Cluster, ec2_cluster, local_cluster
from ..common import stable_seed
from ..data import load_lastfm
from ..dfs import DFS
from ..imapreduce import IMapReduceRuntime
from ..mapreduce import IterativeDriver, MapReduceRuntime
from ..metrics import RunMetrics
from ..simulation import Engine

__all__ = ["RunSpec", "execute", "make_cluster", "set_cost_model", "active_cost_model"]

from ..mapreduce.costmodel import DEFAULT_COST_MODEL, CostModel

_cost_model: CostModel = DEFAULT_COST_MODEL


def set_cost_model(cost: CostModel | None) -> None:
    """Override the cost model used by subsequent :func:`execute` calls
    (ablation studies).  Clears the run cache."""
    global _cost_model
    _cost_model = cost or DEFAULT_COST_MODEL
    execute.cache_clear()


def active_cost_model() -> CostModel:
    return _cost_model


def _cost_for(spec: RunSpec) -> CostModel:
    """The active cost model, noise-salted by the spec's seed (if any)."""
    if not spec.seed:
        return _cost_model
    return _cost_model.with_overrides(noise_seed=spec.seed)


@dataclass(frozen=True)
class RunSpec:
    """One experiment run, hashable for caching."""

    algorithm: str  # "sssp" | "pagerank" | "kmeans" | "matrixpower"
    dataset: str  # registry name, "lastfm", or "matrix<N>"
    engine: str  # "mapreduce" | "imapreduce"
    cluster: str  # "local" | "ec2-<n>" | "single"
    iterations: int
    sync: bool = False  # iMapReduce synchronous-map variant
    combiner: bool = False
    partitions: int | None = None  # task pairs / reduce count
    #: K-means §5.3 convergence detection (aux phase / extra MR job).
    convergence_detection: bool = False
    #: Figs. 4–7 conditions: distance-based termination armed with an
    #: unreachable threshold, so the baseline pays its per-iteration
    #: convergence-check job and iMapReduce its built-in distance()
    #: merge, without stopping early.
    measure_distance: bool = False
    #: Master seed for every stochastic choice in the run (cost-model
    #: noise, centroid initialization, synthetic matrices).  0 keeps the
    #: historical fixed seeds, so all calibrated figures are unchanged.
    seed: int = 0


def make_cluster(engine: Engine, name: str) -> Cluster:
    if name == "local":
        return local_cluster(engine)
    if name == "single":
        return ec2_cluster(engine, 1)
    if name.startswith("ec2-"):
        return ec2_cluster(engine, int(name.split("-", 1)[1]))
    raise ValueError(f"unknown cluster {name!r}")


#: Fig. 16 workload scale (paper: 359,347 users, 48.9 artists/user).
KMEANS_USERS = 4000
KMEANS_ARTISTS = 500
KMEANS_K = 10

#: (algorithm, engine) -> (state, static, output) DFS paths.  Block
#: placement is offset by a path's hash, so these are part of every
#: figure's virtual time.  A baseline splits its initial records into
#: part files under the state path (kmeans' points: the static path).
_PATHS = {
    ("sssp", "imapreduce"): ("/in/state", "/in/static", "/out/sssp"),
    ("sssp", "mapreduce"): ("/in/sssp", None, "/mr/sssp"),
    ("pagerank", "imapreduce"): ("/in/state", "/in/static", "/out/pr"),
    ("pagerank", "mapreduce"): ("/in/pr", None, "/mr/pr"),
    ("kmeans", "imapreduce"): ("/km/centroids", "/km/points", "/out/km"),
    ("kmeans", "mapreduce"): ("/km/centroids", "/km/points", "/mr/km"),
    ("matrixpower", "imapreduce"): ("/mp/state", "/mp/static", "/out/mp"),
    ("matrixpower", "mapreduce"): ("/mp/n", "/mp/m", "/mr/mp"),
}


def _source(spec: RunSpec):
    """The row's source data: registry graphs and matrices as ``repro
    run`` loads them; kmeans at Fig. 16's scale, centroids salted by
    the spec's seed."""
    if spec.algorithm != "kmeans":
        return load_source(spec.algorithm, spec.dataset, spec.seed)
    check_dataset(spec.algorithm, spec.dataset)
    data = load_lastfm(num_users=KMEANS_USERS, num_artists=KMEANS_ARTISTS,
                       num_tastes=KMEANS_K)
    return data, KMEANS_K, stable_seed(spec.seed, "centroids") % (2**31) if spec.seed else 1


@lru_cache(maxsize=None)
def execute(spec: RunSpec) -> RunMetrics:
    """Run one spec on a fresh simulated cluster (cached)."""
    formulation = FORMULATIONS.get(spec.engine)
    if formulation is None:
        raise ValueError(f"unknown engine {spec.engine!r} (one of "
                         f"{', '.join(FORMULATIONS)})")
    options = run_options(spec.algorithm, formulation, vars(spec))
    engine = Engine()
    cluster = make_cluster(engine, spec.cluster)
    # Replication 3 (Hadoop's default): the baseline pays it on every
    # per-iteration output dump; iMapReduce only for checkpoints.
    dfs = DFS(cluster, replication=min(3, len(cluster)))
    paths = dict(zip(PATHS, _PATHS[spec.algorithm, spec.engine]))  # keyed like PATHS
    # One task (pair) per core across the cluster, within the slot limit.
    pairs = spec.partitions or sum(m.cores for m in cluster.workers())
    workload = build_workload(spec.algorithm, formulation, _source(spec), paths=paths,
                              steps=spec.iterations, num_pairs=pairs, **options)
    for path, records in workload.statics.items():
        dfs.ingest(path, records)
    cost = _cost_for(spec)
    if formulation == "iterative":
        dfs.ingest(paths["state_path"], workload.inputs)
        return IMapReduceRuntime(cluster, dfs, cost=cost).submit(workload.job).metrics
    runtime = MapReduceRuntime(cluster, dfs, cost=cost)
    metrics = IterativeDriver(runtime).run(workload.job, workload.inputs).metrics
    if spec.algorithm == "matrixpower":
        # The baseline runs two jobs per logical iteration; merge the
        # per-job iteration entries pairwise so both engines report the
        # same logical iteration count.
        its = metrics.iterations
        metrics.iterations = [
            replace(a, index=i, end=b.end, init_time=a.init_time + b.init_time,
                    shuffle_bytes=a.shuffle_bytes + b.shuffle_bytes,
                    network_bytes=a.network_bytes + b.network_bytes)
            for i, (a, b) in enumerate(zip(its[0::2], its[1::2]))
        ]
    return metrics
