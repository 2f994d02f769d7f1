"""Unit and protocol tests for the multiprocess backend's data plane.

Covers the wire layer introduced with the fast data plane: protocol-5
frames with out-of-band buffers (numpy state never copied into the
pickle stream, received writable), header-only manifest frames, the
skip-empty contract under a single-hot-pair workload where most workers
feed no peers, route-cache and plan-counter observability, immediate
detection of a worker that dies with exit code 0 before its final
report, and the phase-level profiler's counters.
"""

import json
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import IterKeys, JobConf
from repro.common.partition import ModPartitioner
from repro.graph.generators import sssp_graph
from repro.imapreduce import (
    IterativeJob,
    ParallelExecutionError,
    run_accum_local,
    run_accum_parallel,
    run_local,
    run_parallel,
)
from repro.imapreduce.columnar import narrow_ints
from repro.imapreduce.workerproc import (
    PHASE_COUNTERS,
    _pack,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.testing.oracles import records_identical
from tests.imapreduce.support import undeclared

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


def _columnar_batch(dtype, lengths):
    """Wire items ``(dest, src, keys | None, values)``: every other item
    ships its keys, the rest ``None`` (a planned step)."""
    rng = np.random.default_rng(len(lengths))
    return [
        (i % 3, i // 3, np.arange(n, dtype=np.int64) * 7 + i if i % 2 else None,
         (rng.random(n) * 100).astype(dtype))
        for i, n in enumerate(lengths)
    ]


@pytest.mark.parametrize("dtype", ["float64", "int64"])
@pytest.mark.parametrize("lengths", [[5], [0, 3, 0, 0, 9, 1], [4] * 16, [0, 0]])
def test_packed_columnar_frame_is_three_parts_and_decodes_independent_arrays(dtype, lengths):
    """The mesh packs a columnar batch (``_pack``) into one region: the
    frame is still at most three pipe messages, and the items decode with
    their keys and values — empty and non-empty, int and float — as
    writable arrays that do not alias each other."""
    from repro.imapreduce.workerproc import _pack

    batch = _columnar_batch(dtype, lengths)
    parts, nbytes = encode_frame("shuffle", 2, 0, 1, _pack(batch))
    assert len(parts) <= 3 and nbytes == sum(len(memoryview(p).cast("B")) for p in parts)
    *_, got, read_bytes = _pipe_roundtrip(parts)
    assert read_bytes == nbytes and len(got) == len(batch)
    arrays = []
    for (dest, src, keys, values), (d, s, k, v) in zip(got, batch):
        assert (dest, src) == (d, s) and (keys is None) == (k is None)
        assert values.dtype == v.dtype and np.array_equal(values, v)
        if k is not None:
            assert keys.dtype == np.int64 and np.array_equal(keys, k)
            arrays.append((keys, k))
        arrays.append((values, v))
    for mine, _theirs in arrays:
        assert mine.flags.writeable
    for victim, (mine, theirs) in enumerate(arrays):
        mine[...] = 99  # one array written ...
        assert all(  # ... every other one untouched
            np.array_equal(a, b) for i, (a, b) in enumerate(arrays) if i != victim)
        mine[...] = theirs


#: Ints on both sides of every narrowing boundary, and the int64 ends.
_EDGES = sorted({0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)} | {
    v for b in (8, 16, 32) for v in (2**(b - 1) - 1, 2**(b - 1), -(2**(b - 1)), -(2**(b - 1)) - 1)})


def _ints(dtype):
    info = np.iinfo(dtype)
    edges = [v for v in _EDGES if info.min <= v <= info.max]
    return st.sampled_from(edges) | st.integers(info.min, info.max)


@st.composite
def _wire_batches(draw):
    """A columnar shuffle batch: keys at every narrowing boundary or
    ``None``, empty items, int64 / float64 / int32 values, scalar or
    ``(2,)`` rows — and now and then int32 keys, which do not pack."""
    dtype = draw(st.sampled_from(["int64", "float64", "int32"]))
    row = draw(st.sampled_from([(), (2,)]))
    key_dtype = draw(st.sampled_from(["int64"] * 5 + ["int32"]))
    scalars = (st.floats(width=64) | st.just(-0.0)) if dtype == "float64" else _ints(dtype)
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        count = draw(st.integers(0, 5))
        keys = None
        if draw(st.booleans()):
            keys = np.array(draw(st.lists(_ints(key_dtype), min_size=count, max_size=count)),
                            key_dtype)
        flat = draw(st.lists(scalars, min_size=count * (row or (1,))[0],
                             max_size=count * (row or (1,))[0]))
        batch.append((draw(st.integers(0, 7)), draw(st.integers(0, 7)), keys,
                      np.array(flat, dtype).reshape((count, *row))))
    return batch


def _parts_taker(parts):
    """``decode_frame``'s ``take`` over an encoded frame's parts."""
    rest = iter(parts)
    return lambda size: bytes(next(rest)) if size is None else bytearray(next(rest))


@settings(max_examples=100, deadline=None)
@given(batch=_wire_batches())
def test_packed_frame_round_trip_keeps_every_dtype_and_bit(batch):
    """``_pack`` → ``encode_frame`` → ``decode_frame`` gives back every
    item — keys, ``None`` keys, empty items — in its original dtype, bit
    for bit; an int values block crosses in its narrowest dtype, and a
    batch with non-int64 keys is shipped as it is."""
    packed = _pack(batch)
    keyed = [k for _d, _s, k, _v in batch if k is not None]
    assert (packed is batch) == any(k.dtype != np.int64 for k in keyed)
    parts, nbytes = encode_frame("shuffle", 3, 0, 1, packed)
    *_, got, read_bytes = decode_frame(_parts_taker(parts))
    assert read_bytes == nbytes and len(got) == len(batch)
    for (d, s, k, v), (gd, gs, gk, gv) in zip(batch, got):
        assert (gd, gs) == (d, s) and (gk is None) == (k is None)
        if k is not None:
            assert gk.dtype == k.dtype and gk.tobytes() == k.tobytes()
        assert gv.dtype == v.dtype and gv.shape == v.shape and gv.tobytes() == v.tobytes()
    if packed is not batch:  # head, keys and values, each narrowed and aligned, then the trailer
        def block(dtype, arrays):
            flat = [a.reshape(-1) for a in arrays]
            return narrow_ints(np.concatenate([np.empty(0, dtype), *flat]))

        head = np.array([x for d, s, k, v in batch for x in (d, s, len(v), k is not None)])
        blocks = [block(np.int64, [head]), block(np.int64, keyed),
                  block(batch[0][3].dtype, [v for *_, v in batch])]
        region = memoryview(parts[2]).cast("B")
        trailer, at = int.from_bytes(region[-2:], "little"), 0
        for block in blocks:
            at += -at % block.itemsize + block.nbytes
        assert len(region) == at + trailer + 2
        assert json.loads(bytes(region[-2 - trailer:-2]))[0] == "".join(
            f"{b.dtype.char}{b.size}" for b in blocks)


def test_record_frames_are_not_packed():
    """A record batch leaves the packer as it came, so its frame is the
    same bytes it always was (digest pinned before packing existed)."""
    import hashlib

    from repro.imapreduce.workerproc import _pack

    batch = [(1, 0, [3, 5, 7], [0.5, 1.25, -0.0]), (3, 2, [9], [2])]
    assert _pack(batch) is batch
    parts, nbytes = encode_frame("shuffle", 4, 0, 1, _pack(batch))
    assert (nbytes, len(parts)) == (113, 2)
    digest = hashlib.sha256(b"".join(bytes(p) for p in parts)).hexdigest()[:16]
    assert digest == "d1eb36b642b861e0"


# ----------------------------------------------- declared record batches --
#: Wire fields a drawn declaration picks from: the two scalars and
#: ragged arrays of four dtypes.
_FIELDS = [int, float, np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.int32),
           np.dtype(np.uint8)]


def _field_values(field):
    if field is int:
        return _ints(np.int64)
    if field is float:
        return st.floats(width=64) | st.just(-0.0)
    elements = _ints(field) if field.kind in "iu" else st.floats(width=64)
    return st.lists(elements, max_size=4).map(lambda xs: np.array(xs, field))


@st.composite
def _declared_batches(draw):
    """A declared wire shape and a record batch that fits it: one to
    three variants of up to three fields, items with zero to five
    records, empty ragged arrays, variants mixed in any order."""
    wire = tuple(
        (f"t{i}", *draw(st.lists(st.sampled_from(_FIELDS), max_size=3)))
        for i in range(draw(st.integers(1, 3))))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        records = []
        for _ in range(draw(st.integers(0, 5))):
            tag, *fields = draw(st.sampled_from(wire))
            records.append((draw(_ints(np.int64)),
                            (tag, *(draw(_field_values(f)) for f in fields))))
        batch.append((draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                      [k for k, _ in records], [v for _, v in records]))
    return wire, batch


def _declared(wire, name="tagged"):
    from repro.imapreduce import Phase

    return Phase(_hot_map, _sum_reduce, name=name, wire=wire)


@settings(max_examples=150, deadline=None)
@given(case=_declared_batches())
def test_declared_record_batch_round_trips_as_columns(case):
    """A record batch of a declared phase crosses as one packed region
    and decodes to the same items in the same order: ``int`` keys and
    scalars (never ``np.int64``), ``float`` scalars, every ragged field
    an array of its declared dtype, writable and independent of every
    other."""
    wire, batch = case
    packed = _pack(batch, _declared(wire))
    assert isinstance(packed, pickle.PickleBuffer)
    parts, nbytes = encode_frame("shuffle", 1, 0, 0, packed)
    assert len(parts) == 3
    *_, got, read_bytes = decode_frame(_parts_taker(parts))
    assert read_bytes == nbytes and len(got) == len(batch)
    arrays = []
    for (d, s, keys, values), (gd, gs, gkeys, gvalues) in zip(batch, got):
        assert (gd, gs, gkeys) == (d, s, keys) and {type(k) for k in gkeys} <= {int}
        assert len(gvalues) == len(values)
        for value, gvalue in zip(values, gvalues):
            assert type(gvalue) is tuple and len(gvalue) == len(value) and gvalue[0] == value[0]
            for x, gx in zip(value[1:], gvalue[1:]):
                assert type(gx) is type(x)
                if isinstance(x, np.ndarray):
                    assert gx.dtype == x.dtype and gx.tobytes() == x.tobytes()
                    assert gx.flags.writeable
                    arrays.append((gx, x))
                else:
                    assert repr(gx) == repr(x)  # -0.0 stays -0.0
    for victim, (mine, theirs) in enumerate(arrays):
        mine[...] = 1  # one array written ...
        assert all(  # ... every other one untouched
            a.tobytes() == b.tobytes() for i, (a, b) in enumerate(arrays) if i != victim)
        mine[...] = theirs


_POINT = ("pt", int, np.int64, np.float64)
_GOOD = ("pt", 7, np.array([1, 2]), np.array([0.5, 1.5]))


@pytest.mark.parametrize("record, says", [
    ((3, ("sum", 7, np.array([1]), np.array([1.0]))), "'sum' is not in list"),
    ((3, ["pt", 7, np.array([1]), np.array([1.0])]), "no tuple that starts with a str tag"),
    ((3, ("pt", 7, np.array([1]))), "a 'pt' value has 3 fields"),
    ((3, ("pt", np.int64(7), np.array([1]), np.array([1.0]))), "field 1 of a 'pt' value is int"),
    ((3, ("pt", 7, np.array([1], np.int32), np.array([1.0]))),
     "field 2 of a 'pt' value is int64 in a 1-D array"),
    ((3, ("pt", 7, np.array([1]), np.ones((1, 1)))),
     "field 3 of a 'pt' value is float64 in a 1-D array"),
    ((np.int64(3), _GOOD), "its key is no int"),
])
def test_declared_batch_refuses_a_record_that_does_not_fit(record, says):
    """No silent fallback: the first record that does not fit the
    declaration is refused, by phase, index and reason."""
    from repro.common.errors import ConfigError

    key, value = record
    batch = [(1, 0, [5, 6], [_GOOD, _GOOD]), (2, 0, [4, key], [_GOOD, value])]
    with pytest.raises(ConfigError) as refused:
        _pack(batch, _declared((_POINT, ("keep", np.float64)), name="points"))
    message = str(refused.value)
    assert message.startswith("phase 'points' declares wire=")
    assert "record 3 (" in message and says in message.split("does not fit: ")[1]


@pytest.mark.parametrize("wire", [
    (("pt", "no-such-dtype"),), (("pt", object),), (("pt", np.dtype(">f8")),),
    (("pt", int), ("pt", float)), ((7, int),), ("pt",), ((),),
])
def test_phase_refuses_a_malformed_wire(wire):
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="phase 'tagged'"):
        _declared(wire)


def _tagged_map(key, state, static, ctx):
    ctx.emit((key + 1) % 8, ("v", state))  # every record crosses a pair


def _tagged_reduce(key, values, ctx):
    ctx.emit(key, sum(v for _tag, v in values))


def test_mesh_run_of_a_wrong_declaration_fails_naming_it():
    """A declaration the map does not keep fails the mesh run: the
    sending worker's refusal is the run's error."""
    job = IterativeJob.single_phase(
        "tagged", _tagged_map, _tagged_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 2}),
        output_path=OUT, partitioner=ModPartitioner(), wire=(("v", int),))
    with pytest.raises(ParallelExecutionError,
                       match=r"phase 'tagged' declares wire=.*field 1 of a 'v' value is int"):
        run_parallel(job, [(i, 1.0) for i in range(8)], num_pairs=4, num_workers=2,
                     start_method="fork")


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

    job = undeclared(sssp.build_imr_job(
        state_path=STATE, static_path="/dp/static", output_path=OUT,
        max_iterations=3, num_pairs=4, combiner=True,
    ))
    par = run_parallel(
        job, sssp.initial_state(graph, source=0),
        {"/dp/static": sssp.static_records(graph)},
        num_pairs=4, num_workers=2,
    )
    for stats in par.worker_stats:
        assert set(stats["phase_seconds"]) == set(PHASE_COUNTERS)
        assert all(v >= 0.0 for v in stats["phase_seconds"].values())
    assert set(par.phase_breakdown()) == set(PHASE_COUNTERS)
    assert par.counter("bytes_pickled") > 0
    assert par.counter("batches_sent") > 0


def test_verdict_wait_has_its_own_phase():
    """An accumulative mesh blocks on the coordinator's verdict every
    round: that time lands in ``verdict``, not in ``wait`` (peer data).
    A loopback run hears its verdict inline: zero."""
    from repro.algorithms import sssp

    job = sssp.build_accum_job(
        state_path=STATE, static_path="/dp/static", output_path=OUT, max_rounds=1_000,
    )
    static = {"/dp/static": sssp.static_records(sssp_graph(40, seed=3))}
    deltas = sssp.accum_initial_deltas(0)
    par = run_accum_parallel(job, deltas, static, num_pairs=4, num_workers=2)
    assert all(s["phase_seconds"]["verdict"] > 0.0 for s in par.worker_stats)
    (serial,) = run_accum_local(job, deltas, static, num_pairs=4).worker_stats
    assert serial["phase_seconds"]["verdict"] == serial["phase_seconds"]["wait"] == 0.0


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
