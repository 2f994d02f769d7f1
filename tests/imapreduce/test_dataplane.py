"""Unit and protocol tests for the multiprocess backend's data plane.

Covers the wire layer introduced with the fast data plane: protocol-5
frames with out-of-band buffers (numpy state never copied into the
pickle stream, received writable), header-only manifest frames, the
skip-empty contract under a single-hot-pair workload where most workers
feed no peers, route-cache and plan-counter observability, immediate
detection of a worker that dies with exit code 0 before its final
report, and the phase-level profiler's counters.
"""

import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.common import IterKeys, JobConf
from repro.common.partition import ModPartitioner
from repro.graph.generators import sssp_graph
from repro.imapreduce import (
    IterativeJob,
    ParallelExecutionError,
    run_local,
    run_parallel,
)
from repro.imapreduce.workerproc import (
    PHASE_COUNTERS,
    encode_frame,
    read_frame,
)
from repro.testing.oracles import records_identical

STATE = "/dp/state"
OUT = "/dp/out"


# -------------------------------------------------------------- framing --
def _pipe_roundtrip(parts):
    recv_end, send_end = multiprocessing.Pipe(duplex=False)
    try:
        for part in parts:
            send_end.send_bytes(part)
        return read_frame(recv_end)
    finally:
        recv_end.close()
        send_end.close()


def test_frame_roundtrip_plain_payload():
    payload = [(3, 1, [(7, 0.5), (9, 1.25)])]
    parts, nbytes = encode_frame("shuffle", 4, 0, 2, payload)
    assert nbytes == sum(len(p) for p in parts)
    kind, iteration, phase, src, got, read_bytes = _pipe_roundtrip(parts)
    assert (kind, iteration, phase, src) == ("shuffle", 4, 0, 2)
    assert got == payload
    assert read_bytes == nbytes


def test_frame_numpy_state_goes_out_of_band():
    centroid = np.arange(64, dtype=np.float64)
    payload = [(0, 2, [(1, centroid)])]
    parts, _ = encode_frame("shuffle", 0, 0, 1, payload)
    # header + payload pickle + one raw buffer part: the 512 array bytes
    # are written straight from the array memory, not into the pickle.
    assert len(parts) == 3
    assert parts[2].nbytes == centroid.nbytes
    assert len(parts[1]) < centroid.nbytes  # pickle stream stays small
    *_, got, _ = _pipe_roundtrip(parts)
    arr = got[0][2][0][1]
    np.testing.assert_array_equal(arr, centroid)
    # Buffers are received into fresh bytearray storage: still writable.
    assert arr.flags.writeable
    arr[0] = -1.0  # must not raise


@pytest.mark.parametrize("count", [1, 2, 500])
def test_frame_is_three_parts_however_many_arrays(count):
    """All out-of-band buffers leave as one region: the part count does
    not grow with the array count, ``nbytes`` is still header + pickle +
    the buffers' bytes, and the arrays rebuilt over slices of the one
    received region are writable and do not alias each other."""
    dtypes = ["float64", "int32", "uint8", "float32", "int64"]
    arrays = [
        np.arange(7 * i % 13, dtype=dtypes[i % 5])  # lengths 0..12, mixed widths
        for i in range(count - 1)
    ] + [np.linspace(0.0, 1.0, 9)]
    payload = [(1, 0, [(i, ("pt", i, a)) for i, a in enumerate(arrays)])]
    buffers = []
    data = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    assert len(buffers) == count  # every array, empty ones too, is out of band
    parts, nbytes = encode_frame("shuffle", 3, 0, 1, payload)
    assert len(parts) == 3
    assert nbytes == len(parts[0]) + len(data) + sum(a.nbytes for a in arrays)
    assert nbytes == sum(len(p) for p in parts)
    assert pickle.loads(parts[0])[4] == tuple(a.nbytes for a in arrays)

    *_, got, read_bytes = _pipe_roundtrip(parts)
    assert read_bytes == nbytes
    decoded = [value[2] for _key, value in got[0][2]]
    for mine, theirs in zip(decoded, arrays):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)
        assert mine.flags.writeable
    for victim in range(0, count, 61):
        decoded[victim][...] = 99  # one array written ...
        assert all(  # ... every other one untouched
            np.array_equal(mine, theirs)
            for i, (mine, theirs) in enumerate(zip(decoded, arrays)) if i != victim
        )
        decoded[victim][...] = arrays[victim]


def test_manifest_frame_is_header_only():
    from repro.imapreduce.workerproc import _NO_PAYLOAD

    parts, nbytes = encode_frame("shuffle", 2, 1, 0, _NO_PAYLOAD)
    assert len(parts) == 1
    assert nbytes < 100  # tiny: kind + coordinates, no payload pickle
    *_, payload, _ = _pipe_roundtrip(parts)
    assert payload is None


# ---------------------------------------------------- skip-empty routing --
def _hot_map(key, state, static, ctx):
    ctx.emit(0, state)  # every record routes to pair 0


def _sum_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


def dense_batches(job, iterations: int, num_workers: int) -> int:
    """Reference: the batches the first (dense) mesh protocol shipped for
    the same run — every worker messaged every peer on every phase of
    every iteration (shuffle + per-phase repartition + all-gather
    broadcast), empty or not.  The skip-empty plane must never ship
    more data frames than this."""
    if num_workers <= 1:
        return 0
    edges = num_workers * (num_workers - 1)
    per_iter = 0
    last = len(job.phases) - 1
    for index, phase in enumerate(job.phases):
        per_iter += edges  # shuffle
        if index != last:
            per_iter += edges  # repartition
        if phase.mapping == "one2all":
            per_iter += edges  # all-gather broadcast
    return per_iter * iterations


def _hot_pair_job(max_iterations=3):
    return IterativeJob.single_phase(
        "hot-pair", _hot_map, _sum_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE,
                      IterKeys.MAX_ITER: max_iterations}),
        output_path=OUT,
        partitioner=ModPartitioner(),
    )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_single_hot_pair_skips_empty_batches(start_method):
    """After iteration 1 all state lives in pair 0: three of four
    workers feed no peers, so the mesh ships manifests, not batches."""
    job = _hot_pair_job()
    state = [(i, 1.0) for i in range(16)]
    ref = run_local(job, state, num_pairs=4)
    par = run_parallel(job, state, num_pairs=4, num_workers=4,
                       start_method=start_method)
    assert records_identical(par.state, ref.state)
    assert par.iterations_run == ref.iterations_run

    dense = dense_batches(job, par.iterations_run, par.num_workers)
    batches = par.counter("batches_sent")
    manifests = par.counter("manifest_frames")
    # Iteration 0: the initial state is spread over all pairs, so every
    # worker feeds pair 0's owner (3 batches).  Afterwards only
    # manifests cross the mesh.
    assert batches < dense
    assert batches == 3
    assert manifests == dense - batches
    assert par.counter("records_sent") == 12  # iteration 0 only


def test_counters_and_profiler_surface_in_stats():
    graph = sssp_graph(20, seed=3)
    from repro.algorithms import sssp

    job = sssp.build_imr_job(
        state_path=STATE, static_path="/dp/static", output_path=OUT,
        max_iterations=3, num_pairs=4, combiner=True,
    )
    par = run_parallel(
        job, sssp.initial_state(graph, source=0),
        {"/dp/static": sssp.static_records(graph)},
        num_pairs=4, num_workers=2,
    )
    for stats in par.worker_stats:
        assert set(stats["phase_seconds"]) == set(PHASE_COUNTERS)
        assert all(v >= 0.0 for v in stats["phase_seconds"].values())
        # A combiner's output stays in the partition it was grouped for:
        # nothing on this job consults the route cache (no-combiner
        # shuffles and REPART hops do).
        assert stats["route_cache_size"] == 0
    # Three steps on a frontier that grows through step 1: every slot's
    # key sequence first repeats at step 2 — 4 send + 4 receive plans
    # built, and no step left to replay them (test_group_plan.py pins
    # the replays).
    assert (par.counter("plans_built"), par.counter("plan_hits")) == (8, 0)
    assert set(par.phase_breakdown()) == set(PHASE_COUNTERS)
    assert par.counter("bytes_pickled") > 0
    assert par.counter("batches_sent") > 0


def test_dense_batches_formula():
    from repro.algorithms import kmeans

    job = _hot_pair_job(max_iterations=5)  # 1 phase, one2one
    assert dense_batches(job, 5, 1) == 0
    assert dense_batches(job, 5, 4) == 4 * 3 * 5
    kjob = kmeans.build_imr_job(  # 1 phase, one2all: shuffle + bcast
        state_path=STATE, static_path="/dp/static", output_path=OUT,
        max_iterations=2,
    )
    assert dense_batches(kjob, 2, 3) == 2 * (3 * 2 + 3 * 2)


# ------------------------------------------------------------- liveness --
def _exit_zero_map(key, state, static, ctx):
    if key == 0:
        os._exit(0)  # silent clean death: no traceback, no final report
    ctx.emit(key, state)


def test_worker_clean_exit_without_final_detected_immediately():
    """A worker that dies with exit code 0 before its FINAL_REPORT used
    to be invisible to the dead-check and stalled the coordinator until
    the full run timeout; the sentinel wait reports it at once."""
    job = IterativeJob.single_phase(
        "exit-zero", _exit_zero_map, _sum_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 3}),
        output_path=OUT,
        partitioner=ModPartitioner(),
    )
    started = time.perf_counter()
    with pytest.raises(ParallelExecutionError, match="without a final report"):
        run_parallel(job, [(i, 1.0) for i in range(8)],
                     num_pairs=4, num_workers=2, timeout=600.0)
    assert time.perf_counter() - started < 30.0
