"""Localized per-pair recovery under the heartbeat failure detector.

With the detector armed the master learns about crashes from heartbeat
silence (or a boot-id change), and recovery touches only the task pairs
the dead worker hosted: they are fenced, reassigned to the least-loaded
survivor, and resumed from the last durable checkpoint while every other
pair simply holds at its barrier — no whole-generation rollback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultSchedule, local_cluster
from repro.common import IterKeys, JobConf
from repro.common.errors import SchedulingError
from repro.dfs import DFS
from repro.imapreduce import FailureDetectorConfig, IMapReduceRuntime, IterativeJob
from repro.imapreduce.placement import PAIRS_PER_WORKER, check_slots, reassign
from repro.metrics.trace import Tracer
from repro.simulation import Engine

N_KEYS = 12
MAX_ITER = 8
#: The decay generation runs roughly [4.0, 5.1) virtual; the initial
#: load dominates before that (see test_fault_tolerance.py timings).
MID_GENERATION = 5.03


def decay_map(key, state, static, ctx):
    ctx.emit(key, state * static)


def identity_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def make_job():
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, "/in/state")
    conf.set(IterKeys.STATIC_PATH, "/in/static")
    conf.set_int(IterKeys.MAX_ITER, MAX_ITER)
    conf.set_int(IterKeys.CHECKPOINT_INTERVAL, 2)
    return IterativeJob.single_phase(
        "decay", decay_map, identity_reduce, conf=conf, output_path="/out/decay"
    )


def run_with_detector(schedule=None, net_seed=7):
    engine = Engine()
    cluster = local_cluster(engine, 4)
    dfs = DFS(cluster, block_size=4096, replication=2)
    dfs.ingest("/in/state", [(i, 1024.0) for i in range(N_KEYS)])
    dfs.ingest("/in/static", [(i, 0.5) for i in range(N_KEYS)])
    if schedule is not None:
        schedule.arm(engine, cluster, net_seed=net_seed)
    tracer = Tracer()
    runtime = IMapReduceRuntime(
        cluster, dfs, trace=tracer, failure_detector=FailureDetectorConfig()
    )
    result = runtime.submit(make_job())

    def read():
        acc = []
        for path in result.final_paths:
            acc.extend((yield from dfs.read_all(path, "node0")))
        return acc

    state = dict(engine.run(engine.process(read())))
    return result, state, tracer


EXPECTED = {i: 1024.0 * (0.5**MAX_ITER) for i in range(N_KEYS)}


def test_detector_is_timing_neutral_on_clean_runs():
    result, state, tracer = run_with_detector()
    assert state == EXPECTED
    assert result.recoveries == 0
    assert not tracer.select("suspect")
    assert tracer.check(2) == []


def test_mid_run_crash_recovers_only_the_affected_pairs():
    result, state, tracer = run_with_detector(
        FaultSchedule().fail_at(MID_GENERATION, "node1")
    )
    assert state == EXPECTED
    # Detection was observed, not fiat.
    assert tracer.select("suspect", worker="node1")
    assert tracer.select("confirm-failure", worker="node1")
    # Recovery is localized: only node1's pair rolled back, and there is
    # no whole-generation rollback event at all.
    recoveries = tracer.select("pair-recovery")
    assert recoveries, "expected localized pair recovery"
    assert {e.from_worker for e in recoveries} == {"node1"}
    assert all(e.worker != "node1" for e in recoveries)
    assert not tracer.select("recovery"), "no whole-generation rollback"
    assert result.recoveries == len({e.pair for e in recoveries})
    # Rollback never overshoots the durable checkpoint.
    assert tracer.check(2) == []


def test_fast_crash_restart_is_recovered_via_reboot_detection():
    """A crash healed faster than the suspicion window still loses the
    pair's in-memory state; the boot-id change must trigger the same
    localized recovery."""
    schedule = (
        FaultSchedule()
        .fail_at(MID_GENERATION, "node1")
        .recover_at(MID_GENERATION + 0.6, "node1")
    )
    result, state, tracer = run_with_detector(schedule)
    assert state == EXPECTED
    assert tracer.select("reboot", worker="node1")
    assert not tracer.select("confirm-failure")
    assert tracer.select("pair-recovery")
    assert not tracer.select("recovery")
    assert tracer.check(2) == []


def test_crash_with_loss_and_partition_still_converges_exactly():
    """The acceptance scenario: >= 10% message loss, one mid-run worker
    crash, and a transient partition — the run must still produce the
    exact failure-free answer through retransmission, detection and
    localized recovery alone."""
    schedule = (
        FaultSchedule()
        .fail_at(MID_GENERATION, "node1")
        .lose(1.0, 6.0, 0.15)
        .partition(6.0, 8.2, ("node3",))
    )
    result, state, tracer = run_with_detector(schedule)
    assert state == EXPECTED
    assert result.iterations_run == MAX_ITER
    assert tracer.select("pair-recovery")
    assert not tracer.select("recovery"), "no whole-generation rollback"
    # Every recovered pair belonged to a worker the master had confirmed
    # dead (crashed or cut off) — never an unaffected one.
    accused = {
        e.worker for e in tracer.select("confirm-failure")
    } | {e.worker for e in tracer.select("reboot")}
    assert {e.from_worker for e in tracer.select("pair-recovery")} <= accused
    assert tracer.check(2) == []


def test_false_confirmation_of_partitioned_worker_is_survivable():
    """A partition that outlasts the suspicion budget gets a *live*
    worker confirmed dead.  Its pairs move, the stale incarnation is
    fenced, and when the partition heals the worker rejoins — the answer
    must be exact either way."""
    schedule = FaultSchedule().partition(4.2, 9.0, ("node2",))
    result, state, tracer = run_with_detector(schedule)
    assert state == EXPECTED
    assert tracer.select("confirm-failure", worker="node2")
    recoveries = tracer.select("pair-recovery")
    assert recoveries
    assert {e.from_worker for e in recoveries} == {"node2"}
    assert tracer.select("rejoin", worker="node2")
    assert tracer.check(2) == []


# ------------------------------------------------- least-loaded reassign --
def test_reassign_picks_the_least_loaded_survivor():
    owner = ["node0", "node0", "node1", "node2"]
    # node3 hosts nothing; round-robin order would have favoured node0.
    assert reassign(owner, ["node0", "node2", "node3"]) == [
        "node0", "node0", "node3", "node2"
    ]


def test_reassign_spreads_multiple_orphans():
    owner = reassign(["node1", "node1", "node2", "node3"], ["node0", "node2", "node3"])
    # Both orphans land on distinct least-loaded survivors (node0 first,
    # then the tie among load-1 workers breaks toward cluster order).
    assert owner[0] == "node0"
    assert owner[1] in ("node0", "node2", "node3")
    loads = {}
    for worker in owner:
        loads[worker] = loads.get(worker, 0) + 1
    assert max(loads.values()) <= 2


def test_reassign_refuses_without_capacity():
    with pytest.raises(SchedulingError):
        check_slots(5, ["node0"], "not enough task slots on surviving workers")


def test_reassign_refuses_with_no_survivors():
    with pytest.raises(SchedulingError):
        check_slots(1, [], "not enough task slots on surviving workers")


@st.composite
def _placements(draw):
    workers = list(range(draw(st.integers(1, 5))))
    owner = draw(st.lists(st.sampled_from(workers), min_size=1, max_size=10))
    dead = draw(st.sets(st.sampled_from(workers), max_size=len(workers) - 1))
    return owner, [w for w in workers if w not in dead]


@settings(max_examples=100, deadline=None)
@given(_placements())
def test_reassign_properties(placement):
    owner, alive = placement
    placed = reassign(owner, alive)
    assert placed == reassign(owner, alive)  # deterministic
    assert all(w in alive for w in placed)
    assert all(p == o for p, o in zip(placed, owner) if o in alive)
    try:
        check_slots(len(owner), alive, "")
    except SchedulingError:
        return
    if all(owner.count(w) <= PAIRS_PER_WORKER for w in alive):
        assert all(placed.count(w) <= PAIRS_PER_WORKER for w in alive)
