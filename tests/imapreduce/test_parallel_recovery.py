"""Fault tolerance of the real multiprocess backend (§3.4/§5).

These tests kill worker *processes* for real — ``SIGKILL`` delivered
mid-run at seeded ``(iteration, phase)`` points, ``SIGSTOP`` freezes
that only the heartbeat suspicion timeout can see — and demand that the
recovered run is **record-for-record identical** to the unfaulted
serial reference: same state bits, same iteration count, same
termination reason, same per-iteration distance folds.  Recovery that
merely "works" is not enough; it must be invisible in the results.
"""

import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import kmeans, pagerank, sssp
from repro.common import IterKeys, JobConf
from repro.data.lastfm import load_lastfm
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import (
    IterativeJob,
    ParallelExecutionError,
    ProcFault,
    run_local,
    run_parallel,
)
from repro.testing.oracles import records_identical
from tests.imapreduce.support import assert_mesh_counters, mesh_counters, undeclared

STATE = "/t/state"
STATIC = "/t/static"
OUT = "/t/out"

# Tight liveness settings so a SIGSTOP is suspected in test time, not
# operational time.
FAST = dict(heartbeat_interval=0.05, suspicion_timeout=8.0)


def _pagerank_setup(n=30, seed=3, use_kernel=False, max_iterations=60,
                    threshold=1e-3, num_pairs=4):
    """Without a kernel, the record executor's pagerank (its fold
    undeclared: these pins are the record path's)."""
    graph = pagerank_graph(n, seed=seed)
    job = pagerank.build_imr_job(
        n, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=max_iterations, threshold=threshold,
        num_pairs=num_pairs, combiner=True, use_kernel=use_kernel,
    )
    job = job if use_kernel else undeclared(job)
    return job, pagerank.initial_state(graph), {STATIC: pagerank.static_records(graph)}


def _sssp_setup():
    graph = sssp_graph(24, seed=11)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=6, num_pairs=5, combiner=True,
    )
    return job, sssp.initial_state(graph, source=0), {STATIC: sssp.static_records(graph)}


def assert_recovered_identical(job, state, static, *, faults, num_pairs,
                               num_workers, checkpoint_every=2, **kwargs):
    ref = run_local(job, state, static, num_pairs=num_pairs)
    par = run_parallel(
        job, state, static, num_pairs=num_pairs, num_workers=num_workers,
        checkpoint_every=checkpoint_every, faults=faults, **{**FAST, **kwargs},
    )
    assert par.recoveries >= 1, "the seeded fault never fired"
    assert records_identical(par.state, ref.state)  # bit-exact
    assert par.iterations_run == ref.iterations_run
    assert par.terminated_by == ref.terminated_by
    assert par.distances == ref.distances
    for event in par.recovery_events:
        assert event["resume_from"] <= faults[0].iteration + 1
        # Every committed checkpoint restores: a fallback to an older
        # one (or to iteration 0) would still be bit-exact, only slower.
        assert event["rejected_manifests"] == []
    return par


# ------------------------------------------------------------ kill -9 --
def test_pagerank_kill_recovery_bit_exact():
    job, state, static = _pagerank_setup()
    par = assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=1, iteration=5, action="kill")],
        num_pairs=4, num_workers=2,
    )
    assert par.terminated_by == "threshold"
    event = par.recovery_events[0]
    assert event["dead_worker"] == 1
    assert "SIGKILL" in event["reason"]
    assert event["restored_checkpoint"] == 3  # newest boundary before 5
    assert event["resume_from"] == 4
    assert par.recoveries == 1
    assert (par.counter("ckpt_writes"), par.counter("ckpt_bytes")) == (16, 4736)


def test_sssp_free_run_kill_recovery():
    """Free-running maxiter jobs (no verdict round-trips) recover too."""
    job, state, static = _sssp_setup()
    assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=0, iteration=3, action="kill")],
        num_pairs=5, num_workers=3,
    )


def test_kmeans_aux_kill_recovery():
    """Aux-phase termination state (the convergence detector's per-task
    dicts) rolls back with the checkpoint barrier."""
    data = load_lastfm(num_users=30, num_artists=6, num_tastes=2, seed=5)
    job = kmeans.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=25, num_pairs=3, track_membership=True,
        aux=kmeans.make_convergence_aux(move_threshold=1),
    )
    par = assert_recovered_identical(
        job, kmeans.initial_centroids(data, 3, seed=9),
        {STATIC: data.user_records()},
        faults=[ProcFault(worker=2, iteration=3, action="kill")],
        num_pairs=3, num_workers=3,
    )
    assert par.terminated_by == "aux"


def test_kernel_path_kill_recovery_bit_exact():
    """The columnar executor restores its encoded value arrays directly
    from the spool, and its keys from the initial partition — no record
    re-encode — and stays equal to the serial reference."""
    job, state, static = _pagerank_setup(n=40, seed=7, use_kernel=True)
    par = assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=0, iteration=4, action="kill")],
        num_pairs=4, num_workers=2, checkpoint_every=3,
    )
    recover = sum(
        s["phase_seconds"]["recover"] for s in par.worker_stats
    )
    assert recover > 0.0  # the respawned generation loaded a checkpoint


def test_kernel_growing_frontier_kill_recovery_bit_exact():
    """The sssp kernel's twin of the test above, killed while its
    frontier — hence every shuffle plan and receiver index — is still
    changing: the respawned generation rebuilds them from the restored
    arrays (keys ride along again) on both sides of the restore."""
    graph = sssp_graph(36, seed=5)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=12, threshold=0.0, num_pairs=4, use_kernel=True,
    )
    state = sssp.initial_state(graph, source=0)
    static = {STATIC: sssp.static_records(graph)}
    history = run_local(job, state, static, num_pairs=4, keep_history=True).history
    reached = [sum(math.isfinite(d) for _k, d in h) for h in history]
    assert reached[1] < reached[2] < reached[3] < reached[4]  # brackets the kill
    par = assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=1, iteration=3, action="kill")],
        num_pairs=4, num_workers=2,
    )
    assert par.terminated_by == "threshold"
    assert par.recovery_events[0]["resume_from"] == 2


class _CanonicalStateKernel(pagerank.PageRankKernel):
    """PageRank that fails the run unless its state carries numpy's
    canonical dtype instance."""

    __slots__ = ()

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        if values.dtype is not np.dtype(self.state_dtype):
            raise AssertionError(f"pair {pair}: state dtype is not canonical")
        return super().map_kernel(pair, keys, values, prepared, broadcast)


def test_kernel_state_keeps_the_canonical_dtype():
    """An array unpickled from a frame carries a fresh dtype instance,
    which keeps ``ufunc.at`` off its fast path.  Values folded in from
    peers and state restored from the spool are viewed with the
    canonical one, so the state never carries a fresh instance."""
    job, state, static = _pagerank_setup(n=40, seed=7, use_kernel=True)
    assert_recovered_identical(
        replace(job, kernel=_CanonicalStateKernel(40)), state, static,
        faults=[ProcFault(worker=0, iteration=4, action="kill")],
        num_pairs=4, num_workers=2, checkpoint_every=3,
    )


def test_spawn_kill_recovery():
    job, state, static = _sssp_setup()
    assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=1, iteration=3, action="kill")],
        num_pairs=5, num_workers=2, start_method="spawn",
        suspicion_timeout=30.0,  # spawn interpreter startup is slow
    )


def test_csr_kernel_spawn_kill_recovery():
    """A graph kernel's pairs start from the coordinator's split — state
    arrays and weighted ``PairCSR`` columns — which ``spawn`` pickles
    to each worker.  Killed after a checkpoint, the respawned
    mesh pairs the restored values with the split keys and still equals
    the serial run bit for bit."""
    graph = sssp_graph(24, seed=11)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=6, num_pairs=4, use_kernel=True,
    )
    par = assert_recovered_identical(
        job, sssp.initial_state(graph, source=0), {STATIC: sssp.static_records(graph)},
        faults=[ProcFault(worker=1, iteration=3, action="kill")],
        num_pairs=4, num_workers=2, start_method="spawn",
        suspicion_timeout=30.0,  # spawn interpreter startup is slow
    )
    assert par.recovery_events[0]["restored_checkpoint"] is not None


# ------------------------------------------------------------- SIGSTOP --
def test_sigstop_detected_by_suspicion_and_recovered():
    """A frozen worker trips no sentinel; only the heartbeat silence
    gives it away."""
    job, state, static = _pagerank_setup()
    par = assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=0, iteration=4, action="stop")],
        num_pairs=4, num_workers=2, suspicion_timeout=1.5,
    )
    assert "no heartbeat" in par.recovery_events[0]["reason"]


def test_writer_stopped_mid_frame_is_suspected_not_awaited():
    """A worker SIGSTOPped between two parts of a frame is alive and
    silent: the coordinator, waiting for the frame's next part, must
    give it up as dead once the suspicion window passes, as it does a
    worker stopped between frames.  No process: a real pipe holding
    only a frame's header, and a stand-in for a stopped worker."""
    import signal

    from repro.imapreduce.parallel import _CoordinatorInbox, _WorkerDeath
    from repro.imapreduce.workerproc import ITER_REPORT, encode_frame

    recv, send = multiprocessing.Pipe(duplex=False)
    never, _keep = multiprocessing.Pipe(duplex=False)

    class Stopped:
        name, exitcode, sentinel = "imr-worker-0", None, never

        def is_alive(self):
            return True

    parts, _nbytes = encode_frame(ITER_REPORT, 3, 0, 0, {"mass": {0: 1.0}})
    assert len(parts) > 1
    send.send_bytes(parts[0])
    inbox = _CoordinatorInbox({0: recv}, [Stopped()], suspicion=0.3)

    def hung(_signum, _frame):
        pytest.fail("the coordinator hung on a stopped writer's half-sent frame")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(_WorkerDeath, match="imr-worker-0 stalled mid-frame"):
            inbox.recv(timeout=None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        for conn in (recv, send, never, _keep):
            conn.close()


# ----------------------------------------------------------- reassign --
def test_reassignment_spreads_pairs_and_stays_exact():
    job, state, static = _sssp_setup()
    par = assert_recovered_identical(
        job, state, static,
        faults=[ProcFault(worker=1, iteration=3, action="kill")],
        num_pairs=5, num_workers=3, reassign_on_failure=True,
    )
    assert par.recovery_events[0]["mode"] == "reassign"
    assert par.num_workers == 2  # survivors absorbed the dead pairs
    hosted = sorted(p for s in par.worker_stats for p in s["pairs"])
    assert hosted == [0, 1, 2, 3, 4]


# ------------------------------------------------------ recovery policy --
def test_fault_without_checkpointing_restarts_from_scratch():
    job, state, static = _sssp_setup()
    ref = run_local(job, state, static, num_pairs=5)
    par = run_parallel(
        job, state, static, num_pairs=5, num_workers=3,
        faults=[ProcFault(worker=0, iteration=2, action="kill")], **FAST,
    )
    assert par.recoveries == 1
    assert par.recovery_events[0]["restored_checkpoint"] is None
    assert par.recovery_events[0]["resume_from"] == 0
    assert par.checkpoints == []
    assert records_identical(par.state, ref.state)


def test_recovery_budget_exhaustion_raises():
    job, state, static = _sssp_setup()
    with pytest.raises(ParallelExecutionError, match="without a final report"):
        run_parallel(
            job, state, static, num_pairs=5, num_workers=2,
            checkpoint_every=2, max_recoveries=0,
            faults=[ProcFault(worker=0, iteration=1, action="kill")], **FAST,
        )


def _boom_map(key, state, static, ctx):
    if key == 0:
        raise RuntimeError("boom in worker")
    ctx.emit(key, state)


def _identity_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def _boom_job():
    return IterativeJob.single_phase(
        "boom", _boom_map, _identity_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 3}),
        output_path=OUT,
    )


def test_deterministic_exception_is_never_recovered():
    """An error frame means replay would die identically: even a fully
    armed run fails fast instead of burning the recovery budget."""
    with pytest.raises(ParallelExecutionError, match="boom in worker"):
        run_parallel(
            _boom_job(), [(i, 1.0) for i in range(4)],
            num_pairs=2, num_workers=2, checkpoint_every=1,
            max_recoveries=5, **FAST,
        )


def test_worker_traceback_propagates_into_error():
    """The coordinator's exception carries the worker's *full* traceback
    — frames, file, line — not just the message."""
    with pytest.raises(ParallelExecutionError) as info:
        run_parallel(
            _boom_job(), [(i, 1.0) for i in range(4)],
            num_pairs=2, num_workers=2,
        )
    text = str(info.value)
    assert "Traceback (most recent call last)" in text
    assert "_boom_map" in text
    assert 'RuntimeError: boom in worker' in text


def test_no_worker_processes_leak_on_error_paths():
    """Every ``ParallelExecutionError`` exit must reap the whole mesh:
    no orphaned children, no zombies."""
    before = {p.pid for p in multiprocessing.active_children()}
    for _ in range(2):
        with pytest.raises(ParallelExecutionError):
            run_parallel(
                _boom_job(), [(i, 1.0) for i in range(4)],
                num_pairs=2, num_workers=2,
            )
    leaked = [
        p for p in multiprocessing.active_children()
        if p.pid not in before and p.is_alive()
    ]
    assert leaked == []


def test_no_worker_processes_leak_after_recovery_run():
    job, state, static = _sssp_setup()
    before = {p.pid for p in multiprocessing.active_children()}
    run_parallel(
        job, state, static, num_pairs=5, num_workers=3,
        checkpoint_every=2,
        faults=[ProcFault(worker=1, iteration=3, action="kill")], **FAST,
    )
    leaked = [
        p for p in multiprocessing.active_children()
        if p.pid not in before and p.is_alive()
    ]
    assert leaked == []


# -------------------------------------------------------- observability --
def test_checkpoint_counters_and_phases_surface():
    job, state, static = _pagerank_setup()
    par = run_parallel(
        job, state, static, num_pairs=4, num_workers=2,
        checkpoint_every=2, **FAST,
    )
    assert par.recoveries == 0
    assert par.counter("ckpt_writes") > 0
    assert par.counter("ckpt_bytes") > 0
    assert par.phase_breakdown()["checkpoint"] > 0.0
    assert par.phase_breakdown()["recover"] == 0.0  # nothing restored
    # Manifests only commit at checkpoint_every boundaries.
    assert par.checkpoints
    assert all((i + 1) % 2 == 0 for i in par.checkpoints)


#: An unfaulted run with durable checkpoints every 5 iterations may
#: spend at most this share of its wall clock on them (§3.4.1:
#: checkpoints are taken in parallel with computation).
CHECKPOINT_OVERHEAD_CEILING = 0.05


def test_unfaulted_checkpoints_are_cheap_and_invisible():
    """The cost of insurance, not of recovery, at the size where it is
    measurable: pagerank on 30k nodes, 8 pairs, 2 workers, 8 iterations,
    one committed checkpoint.  The checkpointed run returns the plain
    run's records and ships the plain run's frames (checkpoint and
    heartbeat frames live outside ``ship()``), and its directly
    attributed bill — the workers' ``checkpoint`` phase (encode + write
    + fsync, summed over workers that overlap: an over-count) plus the
    coordinator's manifest commits — stays under the ceiling *as a
    share of the same run's wall*, so a slow host scales both sides.
    Measures 0.6–1.1 %."""
    job, state, static = _pagerank_setup(
        n=30_000, seed=42, max_iterations=8, threshold=None, num_pairs=8)
    plain = run_parallel(job, state, static, num_pairs=8, num_workers=2)
    ckpt = run_parallel(job, state, static, num_pairs=8, num_workers=2,
                        checkpoint_every=5)
    assert ckpt.checkpoints == [4] and ckpt.recoveries == 0
    assert records_identical(ckpt.state, plain.state)
    assert mesh_counters(ckpt) == mesh_counters(plain)
    assert_mesh_counters(plain, (442_200, 16, 0, 5_308_888))
    attributed = ckpt.phase_breakdown()["checkpoint"] + ckpt.commit_seconds
    assert 0.0 < attributed / ckpt.wall_seconds <= CHECKPOINT_OVERHEAD_CEILING


def test_job_conf_arms_checkpointing():
    """``mapred.iterjob.parallelcheckpoint`` arms the spool without any
    run_parallel argument — the paper's JobConf surface."""
    job, state, static = _pagerank_setup()
    job.conf.set_int(IterKeys.PARALLEL_CHECKPOINT, 3)
    par = run_parallel(job, state, static, num_pairs=4, num_workers=2, **FAST)
    assert par.counter("ckpt_writes") > 0
    assert all((i + 1) % 3 == 0 for i in par.checkpoints)


def test_spool_dir_honored_and_temp_spool_cleaned(tmp_path):
    job, state, static = _sssp_setup()
    spool = tmp_path / "spool"
    par = run_parallel(
        job, state, static, num_pairs=5, num_workers=2,
        checkpoint_every=2, spool_dir=str(spool), **FAST,
    )
    assert par.checkpoints
    names = os.listdir(spool)
    assert any(n.startswith("manifest-") for n in names)
    assert any(n.startswith("ckpt-") for n in names)
