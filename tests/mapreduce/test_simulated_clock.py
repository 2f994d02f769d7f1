"""The Hadoop baseline's clock, pinned.

Virtual time is a pure function of record and byte counts, so a change
to how the baseline's map and reduce tasks compute — not to what they
charge — must leave every iteration's start and end, its init time,
bytes and record counts, and every job's stats and counters exactly
where they were.  Each case below hashes them; a digest that moves
means the baseline's timing moved.

The cases cover every path a task takes: pagerank with and without a
combiner under the convergence-check job, sssp with and without a
combiner, kmeans' side inputs, combiner and membership check job,
matrixpower's two chained jobs, a worker failing mid-map-wave (its
tasks rescheduled) and speculative backups on a heterogeneous cluster.
"""

import hashlib

import pytest

from repro.algorithms import kmeans, matrixpower, pagerank, sssp
from repro.cluster import FaultSchedule, heterogeneous_cluster, local_cluster
from repro.data.lastfm import load_lastfm
from repro.dfs import DFS
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.mapreduce import IterativeDriver, MapReduceRuntime
from repro.simulation import Engine

#: Inside the first job's map wave: after job setup (2 s) and the
#: tasks' launch (1 s), while node1's map task charges its compute —
#: the task is lost after its mapper ran and is rescheduled elsewhere.
FAIL_AT = 3.01


def drive(spec, inputs, input_paths, *, speeds=None, schedule=None, **runtime):
    """Run ``spec`` on a fresh simulated cluster with ``inputs``
    (``path -> records``) ingested; the driver's result."""
    engine = Engine()
    if speeds is not None:
        cluster = heterogeneous_cluster(engine, speeds)
    else:
        cluster = local_cluster(engine, 4)
    dfs = DFS(cluster, block_size=2048, replication=2)
    for path, records in inputs.items():
        dfs.ingest(path, records)
    if schedule is not None:
        schedule.arm(engine, cluster)
    driver = IterativeDriver(MapReduceRuntime(cluster, dfs, **runtime))
    return driver.run(spec, input_paths)


def pagerank_case(combiner=False, threshold=1e-12, iterations=3):
    graph = pagerank_graph(48, seed=1234)
    spec = pagerank.build_mr_spec(
        graph.num_nodes, output_prefix="/pr", max_iterations=iterations,
        threshold=threshold, combiner=combiner,
    )
    return spec, {"/in": pagerank.mr_initial_records(graph)}, ["/in"]


def sssp_case(combiner=False):
    graph = sssp_graph(48, seed=1234)
    spec = sssp.build_mr_spec(output_prefix="/sssp", max_iterations=4,
                              combiner=combiner)
    return spec, {"/in": sssp.mr_initial_records(graph, 0)}, ["/in"]


def kmeans_case():
    data = load_lastfm(num_users=60, num_artists=8, num_tastes=3, seed=5)
    spec = kmeans.build_mr_spec(
        points_path="/km/points", output_prefix="/km", max_iterations=3,
        combiner=True, move_threshold=0,
    )
    inputs = {"/km/centroids": kmeans.initial_centroids(data, 3, seed=5),
              "/km/points": data.user_records()}
    return spec, inputs, ["/km/centroids"]


def matrixpower_case():
    matrix = matrixpower.dataset_matrix("matrix6", seed=3)
    spec = matrixpower.build_mr_spec(m_path="/mp/m", output_prefix="/mp",
                                     max_iterations=2)
    inputs = {"/mp/m": matrixpower.matrix_to_mr_records(matrix, "M"),
              "/mp/n": matrixpower.matrix_to_mr_records(matrix, "N")}
    return spec, inputs, ["/mp/n"]


#: name -> (spec, inputs, input paths), drive() keywords.
CASES = {
    "pagerank-check": (lambda: pagerank_case(), {}),
    "pagerank-check-combiner": (lambda: pagerank_case(combiner=True), {}),
    "sssp": (lambda: sssp_case(), {}),
    "sssp-combiner": (lambda: sssp_case(combiner=True), {}),
    "kmeans-side-combiner-check": (kmeans_case, {}),
    "matrixpower": (matrixpower_case, {}),
    "map-wave-failure": (
        lambda: pagerank_case(threshold=None, iterations=2),
        {"schedule": FaultSchedule().fail_at(FAIL_AT, "node1")},
    ),
    "speculation": (
        lambda: pagerank_case(combiner=True, threshold=None, iterations=2),
        {"speeds": [1.0, 1.0, 1.0, 0.25], "speculative_execution": True},
    ),
}


def clock(result) -> str:
    """sha256 of everything the baseline's clock and byte accounting
    decide: per-iteration rows, the run's traffic, and every job's
    times, stats and counters."""
    metrics = result.metrics
    rows = [
        (it.index, it.start, it.end, it.init_time, it.shuffle_bytes,
         it.network_bytes, it.map_records, it.reduce_records)
        for it in metrics.iterations
    ]
    jobs = [
        (job.job.name, job.start, job.end, job.stats, sorted(job.counters.items()))
        for job in result.job_results
    ]
    blob = (rows, metrics.network_bytes, jobs)
    return hashlib.sha256(repr(blob).encode()).hexdigest()


#: Computed before the baseline's tasks were rebuilt on the engine's
#: per-pair functions (columns, routing, combine, grouping) and before
#: the byte-size memo was removed.
PINS = {
    "kmeans-side-combiner-check": "dfcf370eb0cb240a5916157ee06ddcdcbc7c1302150eda203588d10c11b01f15",
    "map-wave-failure": "b57d5c6aef4518484782e2ac2227fab05adc2a56d6e024a6e5d1cd640aa01266",
    "matrixpower": "62829202e0f43d9563b70ac1011ed38ec8440f47f9714b8c4c9aba15fe33bc63",
    "pagerank-check": "e347f2f96f56899bdb5f5e19fec1aeac0daf192bac8a7171525a947da265717e",
    "pagerank-check-combiner": "bd712f6768aab6f3da044b1df38d76810c174c44c0cd6454555eadeaaf2f5cd9",
    "speculation": "ff73be91dac3c88f2b3851f7a27b885214376ae696bd52dc151c91c6b282f54a",
    "sssp": "accaba94873e45863a8f8ab7aa756fa953630b25a8425ae45f904fbcf8c6a61a",
    "sssp-combiner": "c3811a4e16d7e28950782a9b3f0333f536d666fa9a383a2b61a9380136d9bc23",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_clock_is_pinned(name):
    build, options = CASES[name]
    result = drive(*build(), **options)
    assert clock(result) == PINS[name], name
