"""Multiprocess accumulative runs: the serial/parallel determinism
contract per mode, across start methods and worker counts.

The engine promises more than tolerance-level agreement: for a given
mode the parallel mesh replays the serial run *record for record,
floats included*, at any worker count and start method, because both
drive the one accumulative executor (``ColumnarAccum``) through the
same round sequence and the coordinator folds the pending mass
pair-ascending exactly like the serial loop — and both replay the
serial record oracle (:mod:`tests.imapreduce.oracle`) the same way.
These tests pin that contract — it is what lets the chaos oracle use
the serial run as the reference for parallel runs.
"""

import multiprocessing
import os
import signal

import pytest

from repro.algorithms import pagerank, sssp
from repro.common import ConfigError, IterKeys, JobConf
from repro.common.partition import bind_partitioner
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import (
    AccumJob,
    ExecutionPlan,
    ParallelExecutionError,
    execute,
    run_accum_local,
    run_accum_parallel,
    select_executor,
)
from tests.imapreduce.oracle import run_oracle
from tests.imapreduce.support import assert_mesh_counters, mesh_leftovers

STATE, STATIC, OUT = "/dfs/deltas", "/dfs/static", "/dfs/out"


#: The mesh workloads: the ``-kernel`` ids carry a columnar delta
#: kernel and the ``-adapter`` ids are the kernel-less jobs, which run
#: columnar through their ``update_fn``.
MESH_WORKLOADS = ["sssp-kernel", "pagerank-kernel", "sssp-adapter", "pagerank-adapter"]
#: Plus the bare ids: the kernel-less job's mesh run against the serial
#: record oracle (:func:`~tests.imapreduce.oracle.run_oracle`).
WORKLOADS = ["sssp", "pagerank", *MESH_WORKLOADS]


def _case(workload, n=60, seed=11):
    name, _, executor = workload.partition("-")
    return _build(name, n, seed, executor == "kernel")


def _build(name, n, seed, use_kernel):
    if name == "sssp":
        graph = sssp_graph(n, seed=seed)
        job = sssp.build_accum_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            max_rounds=10_000, use_kernel=use_kernel,
        )
        return job, sssp.accum_initial_deltas(0), {
            STATIC: sssp.static_records(graph)
        }
    graph = pagerank_graph(n, seed=seed)
    job = pagerank.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        threshold=1e-9, max_rounds=100_000, use_kernel=use_kernel,
    )
    return job, pagerank.accum_initial_deltas(n, pagerank.DAMPING), {
        STATIC: pagerank.static_records(graph)
    }


def _ran_columnar(result) -> bool:
    """Only the columnar executors charge the ``kernel`` phase."""
    return all(s["phase_seconds"]["kernel"] > 0 for s in result.worker_stats)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_parallel_replays_serial_bit_for_bit(workload, mode):
    """The columnar delta executor, with a kernel or through the job's
    ``update_fn``, on both transports; and the kernel-less mesh run
    against the serial record oracle."""
    job, deltas, static = _case(workload)
    serial_run = run_accum_local if "-" in workload else run_oracle
    serial = serial_run(job, deltas, static, num_pairs=4, mode=mode, keep_trace=True)
    par = run_accum_parallel(job, deltas, static, num_pairs=4,
                             num_workers=2, mode=mode, keep_trace=True)
    assert par.state == serial.state  # floats included, no tolerance
    assert par.rounds == serial.rounds
    assert par.terminated_by == serial.terminated_by
    assert par.pending_mass == serial.pending_mass
    assert par.deltas_shipped == serial.deltas_shipped
    assert par.updates_processed == serial.updates_processed
    assert par.deltas_emitted == serial.deltas_emitted
    assert [row["pending_mass"] for row in par.trace] == \
        [row["pending_mass"] for row in serial.trace]
    assert select_executor(job)[1] is None and _ran_columnar(par)
    assert _ran_columnar(serial) == (serial_run is run_accum_local)


@pytest.mark.parametrize("num_workers", [1, 3])
def test_worker_count_is_invisible(num_workers):
    job, deltas, static = _case("pagerank")
    serial = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    par = run_accum_parallel(job, deltas, static, num_pairs=4,
                             num_workers=num_workers, mode="async")
    assert par.state == serial.state
    assert par.rounds == serial.rounds


@pytest.mark.parametrize("workload", MESH_WORKLOADS)
def test_spawn_matches_fork(workload):
    """The pinned-seed parity CI leg's contract: both start methods
    produce the identical run (worker configs — inherited under fork,
    pickled by the spawn machinery — jobs and delta frames alike)."""
    job, deltas, static = _case(workload)
    fork = run_accum_parallel(job, deltas, static, num_pairs=4,
                              num_workers=2, mode="async",
                              start_method="fork")
    spawn = run_accum_parallel(job, deltas, static, num_pairs=4,
                               num_workers=2, mode="async",
                               start_method="spawn")
    assert spawn.state == fork.state
    assert spawn.rounds == fork.rounds
    assert spawn.pending_mass == fork.pending_mass
    assert spawn.updates_processed == fork.updates_processed
    assert spawn.deltas_shipped == fork.deltas_shipped
    assert _ran_columnar(spawn) and _ran_columnar(fork)


def test_priority_evals_bounded_by_absorbed_records():
    """The record oracle's scheduler scores a pending delta when
    ``absorb`` changed it, not every round: each ``priority()``
    evaluation is caused by at least one absorbed record, so the count
    cannot exceed the records absorbed.  (The benchmark's ``--quick``
    shape: sssp, 800 nodes, 8 pairs, async: 3,778 evaluations for
    12,718 absorbed records.  Scoring the dead offers too, before
    ``min`` dropped them, took 8,969; re-scoring every pending key twice
    a round, before the cache, 47,656.)  The columnar executor counts
    none."""
    job, deltas, static = _case("sssp", n=800, seed=42)
    oracle = run_oracle(job, deltas, static, num_pairs=8, mode="async")
    evals = oracle.counter("priority_evals")
    assert 0 < evals <= oracle.deltas_emitted + len(deltas)
    assert run_accum_local(job, deltas, static, num_pairs=8).counter("priority_evals") == 0


def test_sparse_async_run_uses_manifests():
    """sssp deltas start at a single source: most peer pairs see no
    traffic most rounds, so the skip-empty exchange must ship
    ``_NO_PAYLOAD`` manifests instead of empty data frames."""
    job, deltas, static = _case("sssp")
    par = run_accum_parallel(job, deltas, static, num_pairs=4,
                             num_workers=2, mode="async")
    assert par.counter("manifest_frames") > 0
    assert par.counter("records_sent") > 0


#: (workload, nodes, seed) -> ``(records_sent, batches_sent,
#: manifest_frames, bytes_pickled)`` of the sync and of the async run
#: at 4 pairs / 2 workers — the kernel-less job, on the columnar
#: executor: the record executor's counts, in columnar frames' bytes.
SYNC_VS_ASYNC = {
    ("pagerank", 200, 11): ((28825, 172, 0, 323227), (13000, 304, 0, 191621)),
    ("sssp", 300, 42): ((4346, 26, 2, 49176), (3189, 78, 2, 47912)),
}


def test_async_ships_fewer_mesh_records_than_sync():
    """Maiter's claim, on the mesh: to the same threshold the
    prioritised schedule ships strictly fewer delta records, mesh
    records and bytes than draining everything every round.  The sssp
    graph is no smaller than 300 nodes on purpose: below that the async
    mode's extra rounds cost more frame overhead than the skipped
    deltas save, and the comparison measures framing, not scheduling.
    (For the ``min`` algebra the relation is this graph's, not every
    graph's — seed 11 at the same size ships more under async — which
    is one more reason its counters are pinned.)"""
    for (name, n, seed), pins in SYNC_VS_ASYNC.items():
        job, deltas, static = _case(name, n=n, seed=seed)
        runs = [
            run_accum_parallel(job, deltas, static, num_pairs=4,
                               num_workers=2, mode=mode)
            for mode in ("sync", "async")
        ]
        for run, pinned in zip(runs, pins):
            assert_mesh_counters(run, pinned, name)
        sync, async_ = runs
        assert async_.deltas_shipped < sync.deltas_shipped
        assert async_.counter("records_sent") < sync.counter("records_sent")
        assert async_.counter("bytes_pickled") < sync.counter("bytes_pickled")


def test_worker_stats_expose_delta_phases():
    job, deltas, static = _case("pagerank")
    par = run_accum_parallel(job, deltas, static, num_pairs=4,
                             num_workers=2, mode="async")
    assert par.num_workers == 2
    for stats in par.worker_stats:
        phases = stats["phase_seconds"]
        assert "schedule" in phases and "delta" in phases
        assert stats["updates_processed"] >= 0
    assert par.counter("updates_processed") == par.updates_processed


def test_bad_mode_rejected_before_spawning():
    job, deltas, static = _case("sssp")
    with pytest.raises(ConfigError, match="mode"):
        run_accum_parallel(job, deltas, static, mode="eventual")


#: The key whose update SIGKILLs the worker process applying it.
VICTIM = 5


def _die_at_victim(key, delta, state, successors, emit):
    """Walk a chain; inside a mesh worker (never in the test process),
    applying ``VICTIM``'s delta kills the worker."""
    if key == VICTIM and multiprocessing.current_process().name.startswith("imr-worker"):
        os.kill(os.getpid(), signal.SIGKILL)
    for dest in successors:
        emit(dest, state + 1.0)


def test_worker_death_is_terminal_and_leaves_nothing_behind():
    """The one mesh supervisor runs accumulative jobs with recovery
    unarmed: a worker killed mid-run fails the run with an error naming
    it, and the fence leaves no worker process or pipe behind (fork)."""
    job = AccumJob("die-at-victim", "min", _die_at_victim, OUT, conf=JobConf(
        {IterKeys.STATIC_PATH: STATIC, IterKeys.MAX_ITER: 100}))
    static = {STATIC: [(k, (k + 1,) if k < 9 else ()) for k in range(10)]}
    victim = bind_partitioner(job.partitioner, 4)(VICTIM) % 2  # round robin
    plan = ExecutionPlan(backend="parallel", num_pairs=4, num_workers=2,
                         start_method="fork")

    def attempt() -> str:
        with pytest.raises(ParallelExecutionError, match="without a final report") as failure:
            execute(job, [(0, 0.0)], static, plan)
        return str(failure.value)  # the traceback holds the Process objects

    _workers, fds_before = mesh_leftovers()
    assert f"worker imr-worker-{victim} exited" in attempt()
    assert mesh_leftovers() == ([], fds_before)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
