"""The simulated cluster's clock, pinned.

Virtual time is a pure function of record and byte counts, so a change
to how the persistent tasks compute — not to what they charge — must
leave every iteration's start and end, the setup time, the traffic and
the run's extras exactly where they were.  Each case below hashes them;
a digest that moves means the simulator's timing moved.

The cases cover every path the tasks take: asynchronous and
synchronous one2one iterations with and without a combiner (distance
measured, state streamed in small buffers), sssp, kmeans' one2all
broadcast with its convergence aux phase, matrixpower's two phases, a
crash seen by the failure detector (localized recovery and replay) and
a load-balancing migration.
"""

import hashlib

import pytest

from repro.algorithms import kmeans, matrixpower, pagerank, sssp
from repro.cluster import FaultSchedule, heterogeneous_cluster, local_cluster
from repro.data.lastfm import load_lastfm
from repro.dfs import DFS
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import FailureDetectorConfig, IMapReduceRuntime, LoadBalanceConfig
from repro.simulation import Engine

#: Mid-run, after checkpoint 2 is durable: the crashed worker's pair
#: resumes from state 2 and is re-fed the logged cross-pair traffic.
CRASH_AT = 5.14
PATHS = {"state_path": "/sim/state", "static_path": "/sim/static",
         "output_path": "/sim/out"}


def simulate(job, state, static, *, speeds=None, schedule=None, **runtime):
    """Run ``job`` on a fresh simulated cluster; ``(result, final state)``
    with the state read straight from the DFS metadata, key-sorted."""
    engine = Engine()
    if speeds is not None:
        cluster = heterogeneous_cluster(engine, speeds)
    else:
        cluster = local_cluster(engine, 4)
    dfs = DFS(cluster, block_size=4096, replication=2)
    dfs.ingest(PATHS["state_path"], state)
    if static is not None:
        dfs.ingest(PATHS["static_path"], static)
    if schedule is not None:
        schedule.arm(engine, cluster, net_seed=7)
    result = IMapReduceRuntime(cluster, dfs, **runtime).submit(job)
    final = [rec for path in result.final_paths
             for rec in dfs.file_info(path).records]
    return result, final


def _pagerank(sync=False, combiner=False, nodes=48, **options):
    graph = pagerank_graph(nodes, seed=1234)
    job = pagerank.build_imr_job(
        graph.num_nodes, **PATHS, sync=sync, combiner=combiner, **options
    )
    return job, pagerank.initial_state(graph), pagerank.static_records(graph)


def pagerank_case(sync=False, combiner=False):
    return _pagerank(sync, combiner, max_iterations=4, threshold=1e-12,
                     num_pairs=4, buffer_records=8)


def sssp_case():
    graph = sssp_graph(48, seed=1234)
    job = sssp.build_imr_job(**PATHS, max_iterations=6, num_pairs=4,
                             buffer_records=8)
    return job, sssp.initial_state(graph, 0), sssp.static_records(graph)


def kmeans_case():
    data = load_lastfm(num_users=60, num_artists=8, num_tastes=3, seed=5)
    job = kmeans.build_imr_job(
        **PATHS, max_iterations=8, num_pairs=3, track_membership=True,
        aux=kmeans.make_convergence_aux(move_threshold=1),
    )
    return job, kmeans.initial_centroids(data, 3, seed=5), data.user_records()


def matrixpower_case():
    matrix = matrixpower.dataset_matrix("matrix6", seed=3)
    job = matrixpower.build_imr_job(**PATHS, max_iterations=3, num_pairs=3)
    return (job, matrixpower.matrix_to_state_records(matrix),
            matrixpower.matrix_to_column_records(matrix))


#: name -> (job, state, static), simulate() keywords.
CASES = {
    "pagerank-async": (lambda: pagerank_case(), {}),
    "pagerank-async-combiner": (lambda: pagerank_case(combiner=True), {}),
    "pagerank-sync": (lambda: pagerank_case(sync=True), {}),
    "pagerank-sync-combiner": (lambda: pagerank_case(True, True), {}),
    "sssp": (sssp_case, {}),
    "kmeans-aux": (kmeans_case, {}),
    "matrixpower": (matrixpower_case, {}),
    "crash-recovery": (
        lambda: _pagerank(max_iterations=8, num_pairs=4, checkpoint_interval=2),
        {"schedule": FaultSchedule().fail_at(CRASH_AT, "node1"),
         "failure_detector": FailureDetectorConfig()},
    ),
    "migration": (
        lambda: _pagerank(max_iterations=8, num_pairs=8, checkpoint_interval=1),
        {"speeds": [1.0, 1.0, 1.0, 0.25],
         "load_balance": LoadBalanceConfig(
             enabled=True, deviation_threshold=0.4, cooldown_iterations=2)},
    ),
}


def clock(result) -> str:
    """sha256 of everything the simulator's clock and byte accounting
    decide — not of any state value or distance."""
    metrics = result.metrics
    rows = [
        (it.index, it.start, it.end, it.init_time, it.shuffle_bytes,
         it.state_bytes, it.map_records, it.reduce_records)
        for it in metrics.iterations
    ]
    blob = (rows, metrics.setup_time, metrics.network_bytes, metrics.extras)
    return hashlib.sha256(repr(blob).encode()).hexdigest()


#: Computed before the persistent tasks were rebuilt on the engine's
#: per-pair functions (map, grouping, distance, aux, termination).
PINS = {
    "crash-recovery": "bb235d91ab9054e814d2e46a11103892b7a925d991ff6c58e789e6b5b8f6e2b5",
    "kmeans-aux": "92bf5db6379ca16b2f6613699f3abd8438be7bd20a54c1d5de807906502eac0e",
    "matrixpower": "969ddeb3a78d68e9d843b35a4dd40a8b947a4cf89f2d1ee49557100d591792ed",
    "migration": "9d834c301b8a2a1e34a342f6221729b49efa698db360de25463bba17468efc40",
    "pagerank-async": "60d3f48742cf1bdf505dae2bd9837bd7d91cb163f4155ce147a10cdb06bb9444",
    "pagerank-async-combiner": "ff23f9c74c4878896a21610256e4102ebcd4e5d029f4c9cc0eb152fe726ae4cf",
    "pagerank-sync": "45cd17baf8326b413091b9f71c9c9a96dde5e7a6b2b41c8db3ea3d94f6d77fda",
    "pagerank-sync-combiner": "01e90251687b7e75b0928b07944f9d063a297c2559ecb3baf0d11a20ecc3e92c",
    "sssp": "0232bc2283c09a47c5cabfb208902dfe8574ac30ee36bc573cabd01806c6deab",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_clock_is_pinned(name):
    build, options = CASES[name]
    result, _state = simulate(*build(), **options)
    assert clock(result) == PINS[name], name
