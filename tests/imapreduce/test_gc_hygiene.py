"""The garbage-collection policy of the superstep loop.

``engine.run_supersteps`` pauses automatic collection for its run and
runs one young-generation collection per step boundary.  Whatever the
exit — a normal return, a user map that raises, a worker traceback — the
caller's setting comes back; a caller that disabled collection gets no
forced collection; and a step's reference cycles are dead by the next
step, not left to pile up for the whole run.
"""

import gc
import weakref
from multiprocessing import Pipe

import pytest

from repro.algorithms import pagerank, sssp
from repro.common import IterKeys, JobConf
from repro.common.partition import ModPartitioner
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import (
    IterativeJob,
    ParallelExecutionError,
    run_accum_local,
    run_local,
    run_parallel,
)
from repro.imapreduce.engine import host_config
from repro.imapreduce.localrun import RecordSync
from repro.imapreduce.workerproc import read_frame, worker_main
from tests.imapreduce.support import split_inputs, undeclared

STATE, STATIC, OUT = "/gc/state", "/gc/static", "/gc/out"
NODES = 40


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The caller's collection setting for the test, restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    gc.collect()  # every generation's count starts at zero
    yield request.param
    (gc.enable if was else gc.disable)()


def _pagerank(iterations=3):
    graph = pagerank_graph(NODES, seed=5)
    job = undeclared(pagerank.build_imr_job(  # the record executor
        NODES, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=iterations, num_pairs=2, combiner=True,
    ))
    return job, pagerank.initial_state(graph), {STATIC: pagerank.static_records(graph)}


def _assert_left_as_found(enabled):
    assert gc.isenabled() is enabled
    if not enabled:
        # No collection of any generation ran: collecting generation g
        # bumps generation g + 1's count.
        assert gc.get_count()[1:] == (0, 0)


def test_serial_runs_leave_gc_as_found(caller_gc):
    job, state, static = _pagerank()
    run_local(job, state, static, num_pairs=2)
    _assert_left_as_found(caller_gc)
    accum = sssp.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT, max_rounds=1_000)
    static = {STATIC: sssp.static_records(sssp_graph(NODES, seed=5))}
    run_accum_local(accum, sssp.accum_initial_deltas(0), static, num_pairs=2)
    _assert_left_as_found(caller_gc)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_parallel_runs_leave_gc_as_found(start_method):
    job, state, static = _pagerank()
    assert gc.isenabled()
    run_parallel(job, state, static, num_pairs=2, num_workers=2,
                 start_method=start_method)
    assert gc.isenabled()


def exploding_map(key, state, static, ctx):
    raise RuntimeError("boom from a user map")


def _exploding_job():
    return IterativeJob.single_phase(
        "explode", exploding_map, pagerank.imr_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 2}),
        output_path=OUT, partitioner=ModPartitioner(),
    )


def test_a_raising_map_leaves_gc_as_found(caller_gc):
    state = [(k, 1.0) for k in range(8)]
    with pytest.raises(RuntimeError, match="boom"):
        run_local(_exploding_job(), state, num_pairs=2)
    _assert_left_as_found(caller_gc)


def test_a_worker_traceback_leaves_gc_as_found(caller_gc):
    """``worker_main`` in this process, one worker over real pipes: the
    map raises inside ``run_supersteps``, the error frame carries the traceback,
    and the worker's setting is back before it is sent."""
    job = _exploding_job()
    state_parts, static_parts = split_inputs(job, [(k, 1.0) for k in range(8)], {}, 2)
    cfg = host_config(
        0, range(2), state_parts, static_parts, num_workers=1, num_pairs=2,
        job=job, send_state=False, wait_verdict=False, owner_of=[0, 0],
    )
    verdict_recv, verdict_send = Pipe(duplex=False)
    report_recv, report_send = Pipe(duplex=False)
    try:
        worker_main(cfg, RecordSync, {}, {}, verdict_recv, report_send)
        _assert_left_as_found(caller_gc)
        kind, *_, payload, _nbytes = read_frame(report_recv)
        assert kind == "error" and "boom from a user map" in payload
    finally:
        for conn in (verdict_recv, verdict_send, report_recv, report_send):
            conn.close()
    with pytest.raises(ParallelExecutionError, match="boom"):
        run_parallel(job, [(k, 1.0) for k in range(8)], num_pairs=2, num_workers=2)
    assert gc.isenabled() is caller_gc


class _Cycle:
    pass


def test_each_steps_cycles_are_collected_at_its_boundary():
    """A map that strands one reference cycle per record: with automatic
    collection paused, the step-boundary collection is all that frees
    them, so no more than one step's worth is ever alive at once."""
    alive = weakref.WeakSet()
    peak = [0]

    def cyclic_map(key, rank, neighbors, ctx):
        node = _Cycle()
        node.me = node
        alive.add(node)
        peak[0] = max(peak[0], len(alive))
        ctx.emit(key, rank)

    job = IterativeJob.single_phase(
        "cycles", cyclic_map, pagerank.imr_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 6}),
        output_path=OUT, partitioner=ModPartitioner(),
    )
    assert gc.isenabled()
    run_local(job, [(k, 1.0) for k in range(NODES)], num_pairs=2)
    assert gc.isenabled()
    assert len(alive) <= NODES
    assert NODES <= peak[0] <= NODES + 1
