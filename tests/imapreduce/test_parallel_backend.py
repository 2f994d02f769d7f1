"""Differential tests: the real multiprocess backend vs the serial oracle.

``run_parallel`` promises *record-for-record* equality with
``run_local`` — same final state (bit-identical floats), same iteration
count, same termination reason, same per-iteration distances — across
every job shape the engine supports: free-running maxiter jobs,
threshold termination, one2all broadcast, aux-phase termination,
multi-phase iterations, and combiners.  These tests pin that promise on
all five algorithms plus the worker-count edge cases.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.algorithms import (
    components,
    jacobi,
    kmeans,
    matrixpower,
    pagerank,
    sssp,
)
from repro.common import IterKeys, JobConf
from repro.data.lastfm import load_lastfm
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import (
    IterativeJob,
    ParallelExecutionError,
    ProcFault,
    run_accum_local,
    run_accum_parallel,
    run_local,
    run_parallel,
    select_executor,
)
from repro.testing.oracles import records_identical

STATE = "/t/state"
STATIC = "/t/static"
OUT = "/t/out"


def assert_record_identical(job, state, static_map, *, num_pairs, num_workers,
                            keep_history=False, start_method=None):
    """Run both backends and demand bit-for-bit equal results."""
    ref = run_local(job, state, static_map, num_pairs=num_pairs,
                    keep_history=keep_history)
    par = run_parallel(job, state, static_map, num_pairs=num_pairs,
                       num_workers=num_workers, keep_history=keep_history,
                       start_method=start_method)
    assert records_identical(par.state, ref.state)  # exact, not approximate
    assert par.iterations_run == ref.iterations_run
    assert par.terminated_by == ref.terminated_by
    assert par.converged == ref.converged
    assert par.distances == ref.distances  # bit-identical float folds
    if keep_history:
        assert len(par.history) == len(ref.history)
        for mine, theirs in zip(par.history, ref.history):
            assert records_identical(mine, theirs)
    assert par.num_workers == min(num_workers, num_pairs)
    # §3.2: every worker deserializes its static partitions exactly once.
    assert par.static_loads == par.num_workers
    return par


# ----------------------------------------------------------- five algos --
@pytest.mark.parametrize("combiner", [False, True])
@pytest.mark.parametrize("num_workers", [1, 3])
def test_sssp_free_run(combiner, num_workers):
    graph = sssp_graph(24, seed=11)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=4, num_pairs=5, combiner=combiner,
    )
    assert_record_identical(
        job, sssp.initial_state(graph, source=0),
        {STATIC: sssp.static_records(graph)},
        num_pairs=5, num_workers=num_workers,
    )


def test_pagerank_threshold_termination():
    graph = pagerank_graph(30, seed=3)
    job = pagerank.build_imr_job(
        30, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=60, threshold=1e-3, num_pairs=4, combiner=True,
    )
    par = assert_record_identical(
        job, pagerank.initial_state(graph),
        {STATIC: pagerank.static_records(graph)},
        num_pairs=4, num_workers=2,
    )
    assert par.terminated_by == "threshold"
    assert par.converged


def test_kmeans_one2all_aux_termination():
    data = load_lastfm(num_users=30, num_artists=6, num_tastes=2, seed=5)
    state = kmeans.initial_centroids(data, 3, seed=9)
    job = kmeans.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=25, num_pairs=3, track_membership=True,
        aux=kmeans.make_convergence_aux(move_threshold=1),
    )
    par = assert_record_identical(
        job, state, {STATIC: data.user_records()},
        num_pairs=3, num_workers=2,
    )
    assert par.terminated_by == "aux"


def test_matrixpower_multi_phase():
    import numpy as np

    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, size=(6, 6))
    job = matrixpower.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=4,
    )
    par = assert_record_identical(
        job, matrixpower.matrix_to_state_records(m),
        {STATIC: matrixpower.matrix_to_column_records(m)},
        num_pairs=4, num_workers=3,
    )
    got = matrixpower.records_to_matrix(par.state, (6, 6))
    assert np.allclose(got, np.linalg.matrix_power(m, 4))


def test_jacobi_one2all_threshold():
    import numpy as np

    rng = np.random.default_rng(13)
    n = 10
    a = rng.uniform(-1, 1, size=(n, n)) + np.eye(n) * n  # diag dominant
    b = rng.uniform(-1, 1, size=n)
    job = jacobi.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=50, threshold=1e-8, num_pairs=3,
    )
    par = assert_record_identical(
        job, jacobi.initial_state(n),
        {STATIC: jacobi.system_to_static_records(a, b)},
        num_pairs=3, num_workers=3,
    )
    assert par.terminated_by == "threshold"


def test_components_zero_threshold():
    graph = sssp_graph(20, seed=21)
    job = components.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=30, num_pairs=4,
    )
    par = assert_record_identical(
        job, components.initial_state(graph),
        {STATIC: components.static_records(graph)},
        num_pairs=4, num_workers=2,
    )
    assert par.terminated_by == "threshold"  # stops when no label moves


# ---------------------------------------------------------- start methods --
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sssp_free_run_spawn_matrix(start_method):
    """The differential promise holds under ``spawn`` (pipes, worker
    configs and jobs all travel through the spawn machinery) exactly as
    under ``fork`` (where the configs are inherited, not shipped)."""
    graph = sssp_graph(20, seed=8)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=4, combiner=True,
    )
    assert_record_identical(
        job, sssp.initial_state(graph, source=0),
        {STATIC: sssp.static_records(graph)},
        num_pairs=4, num_workers=2, start_method=start_method,
    )


def test_pagerank_threshold_spawn():
    """Verdict round-trips (lock-step termination) under ``spawn``."""
    graph = pagerank_graph(24, seed=6)
    job = pagerank.build_imr_job(
        24, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=40, threshold=1e-3, num_pairs=3, combiner=True,
    )
    par = assert_record_identical(
        job, pagerank.initial_state(graph),
        {STATIC: pagerank.static_records(graph)},
        num_pairs=3, num_workers=2, start_method="spawn",
    )
    assert par.terminated_by == "threshold"


# ------------------------------------------------- executors × transports --
@pytest.mark.parametrize(
    "executor", ["RecordSync", "ColumnarSync", "RecordAccum", "ColumnarAccum"]
)
def test_loopback_and_mesh_agree_per_executor(executor):
    """One driver, two transports: each of the four pair executors gives
    the identical run on the loopback transport and on a 2-worker pipe
    mesh, and both report in one ``worker_stats`` vocabulary."""
    graph = pagerank_graph(40, seed=5)
    static_map = {STATIC: pagerank.static_records(graph)}
    use_kernel = executor.startswith("Columnar")
    if executor.endswith("Sync"):
        job = pagerank.build_imr_job(
            40, state_path=STATE, static_path=STATIC, output_path=OUT,
            max_iterations=30, threshold=1e-4, num_pairs=4,
            use_kernel=use_kernel,
        )
        assert select_executor(job)[0].__name__ == executor
        par = assert_record_identical(
            job, pagerank.initial_state(graph), static_map,
            num_pairs=4, num_workers=2,
        )
        ref = run_local(job, pagerank.initial_state(graph), static_map, num_pairs=4)
    else:
        job = pagerank.build_accum_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            threshold=1e-9, max_rounds=100_000, use_kernel=use_kernel,
        )
        assert select_executor(job)[0].__name__ == executor
        deltas = pagerank.accum_initial_deltas(40, pagerank.DAMPING)
        ref = run_accum_local(job, deltas, static_map, num_pairs=4)
        par = run_accum_parallel(job, deltas, static_map, num_pairs=4, num_workers=2)
        assert par.state == ref.state  # floats included, no tolerance
        for name in ("rounds", "terminated_by", "pending_mass",
                     "updates_processed", "deltas_emitted", "deltas_shipped"):
            assert getattr(par, name) == getattr(ref, name)
    (serial_stats,) = ref.worker_stats
    for stats in par.worker_stats:
        assert set(stats) == set(serial_stats)
        assert set(stats["phase_seconds"]) == set(serial_stats["phase_seconds"])
    assert par.counter("records_sent") > 0


def test_serial_worker_stats_use_the_mesh_vocabulary():
    """``run_local`` reports like a 1-worker ``run_parallel``: same keys,
    same ``phase_seconds`` phases, transport counters zero."""
    graph = sssp_graph(16, seed=4)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=3,
    )
    args = (job, sssp.initial_state(graph, source=0),
            {STATIC: sssp.static_records(graph)})
    (serial,) = run_local(*args, num_pairs=3).worker_stats
    (mesh,) = run_parallel(*args, num_pairs=3, num_workers=1).worker_stats
    assert set(serial) == set(mesh)
    assert set(serial["phase_seconds"]) == set(mesh["phase_seconds"])
    assert serial["pairs"] == mesh["pairs"] == [0, 1, 2]
    assert serial["static_records"] == mesh["static_records"]
    for name in ("records_sent", "batches_sent", "manifest_frames",
                 "bytes_pickled"):
        assert serial[name] == 0
    assert mesh["batches_sent"] == 0  # a lone worker has no peer to feed
    for phase in ("serialize", "deserialize", "send", "wait"):
        assert serial["phase_seconds"][phase] == 0.0


# -------------------------------------------------------------- shapes --
def test_history_parity():
    graph = pagerank_graph(16, seed=1)
    job = pagerank.build_imr_job(
        16, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=3,
    )
    assert_record_identical(
        job, pagerank.initial_state(graph),
        {STATIC: pagerank.static_records(graph)},
        num_pairs=3, num_workers=2, keep_history=True,
    )


def test_default_worker_count_follows_cpu_affinity():
    """A process pinned to one CPU of a many-CPU host gets one worker,
    not ``os.cpu_count()`` of them."""
    import os

    from repro.imapreduce.parallel import _pick_workers

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity API on this platform")
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
        assert _pick_workers(None, 8) == 1
    finally:
        os.sched_setaffinity(0, allowed)
    assert _pick_workers(None, 64) == len(allowed)


def test_mesh_pipes_are_widened_best_effort(monkeypatch):
    """Data-plane pipes hold a whole step's batch where the OS allows;
    a refusal leaves a working default-size pipe."""
    import fcntl
    import multiprocessing

    from repro.imapreduce import parallel

    ctx = multiprocessing.get_context("fork")
    if hasattr(fcntl, "F_GETPIPE_SZ"):
        recv_end, send_end = parallel._mesh_pipe(ctx)
        assert (
            fcntl.fcntl(send_end.fileno(), fcntl.F_GETPIPE_SZ)
            >= parallel._MESH_PIPE_BYTES
        )
        recv_end.close()
        send_end.close()

    def refuse(*_args):
        raise PermissionError("over the per-user pipe quota")

    monkeypatch.setattr(parallel.fcntl, "fcntl", refuse)
    recv_end, send_end = parallel._mesh_pipe(ctx)
    send_end.send_bytes(b"still a pipe")
    assert recv_end.recv_bytes() == b"still a pipe"
    recv_end.close()
    send_end.close()


def test_more_workers_than_pairs_clamps():
    graph = sssp_graph(12, seed=2)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, num_pairs=2,
    )
    par = assert_record_identical(
        job, sssp.initial_state(graph, source=0),
        {STATIC: sssp.static_records(graph)},
        num_pairs=2, num_workers=8,
    )
    assert par.num_workers == 2


def _boom_map(key, state, static, ctx):
    raise RuntimeError("boom in worker")


def _identity_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def test_worker_error_propagates():
    job = IterativeJob.single_phase(
        "boom", _boom_map, _identity_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 2}),
        output_path=OUT,
    )
    with pytest.raises(ParallelExecutionError, match="boom in worker"):
        run_parallel(job, [(i, 1.0) for i in range(4)],
                     num_pairs=2, num_workers=2)


# ------------------------------------------------------------- pickling --
def _every_job():
    graph = sssp_graph(8, seed=1)
    yield "sssp", sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, combiner=True, threshold=0.5,
    )
    yield "pagerank", pagerank.build_imr_job(
        8, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, combiner=True, threshold=0.5,
    )
    yield "kmeans", kmeans.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, combiner=True, track_membership=True,
        aux=kmeans.make_convergence_aux(move_threshold=1),
    )
    yield "matrixpower", matrixpower.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2,
    )
    yield "jacobi", jacobi.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, threshold=0.5,
    )
    yield "components", components.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2,
    )


@pytest.mark.parametrize("name,job", list(_every_job()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_job_is_picklable(name, job):
    """The parallel backend round-trips the job through pickle once per
    mesh spawn, under every start method: every algorithm's
    ``build_imr_job`` result must survive it."""
    clone = pickle.loads(pickle.dumps(job))
    assert clone.name == job.name
    assert len(clone.phases) == len(job.phases)
    assert (clone.aux is None) == (job.aux is None)


# ----------------------------------------------------------- inheritance --
class _Unshippable:
    """A static value that refuses to cross a process boundary: a mesh
    run that succeeds with it in its static data pickled no input."""

    def __init__(self, weight: float):
        self.weight = weight

    def __reduce__(self):
        raise TypeError("_Unshippable static value was pickled")


def _weigh_map(key, state, static, ctx):
    ctx.emit((key + 1) % 6, state * static.weight)  # read, never emitted


def _sum_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


def _moved(key, prev, cur):
    return abs(cur - prev)


def _inherit_setup(map_fn=_weigh_map):
    # A distance and an unreachable threshold: the run is lock-step, so
    # which checkpoints are committed when the fault fires is exact.
    job = IterativeJob.single_phase(
        "inherit", map_fn, _sum_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.STATIC_PATH: STATIC,
                      IterKeys.MAX_ITER: 8, IterKeys.DIST_THRESH: 0.0}),
        output_path=OUT, distance_fn=_moved,
    )
    state = [(k, 1.0 + k) for k in range(6)]
    static = {STATIC: [(k, _Unshippable(0.5 + k / 8)) for k in range(6)]}
    return job, state, static


def _mesh_leftovers():
    workers = [p for p in multiprocessing.active_children()
               if p.name.startswith("imr-worker")]
    return workers, len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("recover", [False, True], ids=["clean", "respawn"])
def test_forked_workers_inherit_their_inputs(recover):
    """Under ``fork`` a worker reads the coordinator's partitioned
    tables in place — nothing of the inputs is serialised, at the first
    spawn or at a respawn after a kill."""
    job, state, static = _inherit_setup()
    ref = run_local(job, state, static, num_pairs=4)
    armed = dict(
        checkpoint_every=2, faults=[ProcFault(worker=1, iteration=5)],
        heartbeat_interval=0.05,
    ) if recover else {}
    par = run_parallel(job, state, static, num_pairs=4, num_workers=2,
                       start_method="fork", **armed)
    assert records_identical(par.state, ref.state)
    assert par.iterations_run == ref.iterations_run == 8
    assert par.distances == ref.distances
    assert par.recoveries == (1 if recover else 0)
    if recover:
        assert par.recovery_events[0]["restored_checkpoint"] == 3
        assert par.recovery_events[0]["rejected_manifests"] == []


def test_unshippable_input_fails_in_the_coordinator_under_spawn():
    """``spawn`` has to pickle the inputs (``multiprocessing`` does it,
    in ``Process.start``): the value's own error surfaces in the
    coordinator, and no worker or pipe is left behind."""
    job, state, static = _inherit_setup()

    def attempt():
        with pytest.raises(TypeError, match="_Unshippable static value was pickled"):
            run_parallel(job, state, static, num_pairs=4, num_workers=2,
                         start_method="spawn")
        return _mesh_leftovers()

    # A process's first spawn start also launches multiprocessing's own
    # resource tracker (one pipe, kept for good): count after it.
    workers, fds = attempt()
    assert workers == []
    assert attempt() == ([], fds)


def test_unpicklable_job_fails_before_any_process_starts():
    """The job itself still takes an explicit pickle round trip under
    ``fork``, before any pipe or process exists."""
    job, state, static = _inherit_setup(
        map_fn=lambda key, state, static, ctx: ctx.emit(key, state)
    )
    _workers, fds_before = _mesh_leftovers()
    with pytest.raises((pickle.PicklingError, AttributeError), match="lambda"):
        run_parallel(job, state, static, num_pairs=4, num_workers=2,
                     start_method="fork")
    assert _mesh_leftovers() == ([], fds_before)


# ----------------------------------------------------------- campaigns --
@pytest.mark.parametrize("campaign_seed", [97, 4242])
def test_seeded_campaign_parallel_mode(campaign_seed):
    """The chaos harness's ``parallel`` dimension: the same seeded
    workload runs on the multiprocess backend and the
    ``parallel-differential`` oracle demands record equality."""
    from repro.testing import generate_campaign
    from repro.testing.runner import run_campaign

    spec = generate_campaign(campaign_seed).but(net_faults=())
    outcome = run_campaign(spec, parallel=True)
    assert outcome.parallel_error is None
    assert outcome.parallel_result is not None
    parallel_violations = [
        v for v in outcome.violations if v.oracle == "parallel-differential"
    ]
    assert parallel_violations == []


def test_seeded_campaign_parallel_mode_spawn():
    """The parallel-differential oracle stays exact when the campaign's
    multiprocess run uses the ``spawn`` start method."""
    from repro.testing import generate_campaign
    from repro.testing.runner import run_campaign

    spec = generate_campaign(97).but(net_faults=())
    outcome = run_campaign(spec, parallel=True, parallel_start_method="spawn")
    assert outcome.parallel_error is None
    assert [
        v for v in outcome.violations if v.oracle == "parallel-differential"
    ] == []
