"""A columnar final state kept as arrays, and the memo that stores it.

A columnar executor's ``join`` hands a run's state over as a
:class:`~repro.imapreduce.columnar.StateColumns` instead of decoding it:
it must behave as the key-sorted record list :func:`decode_columnar`
makes in every way a caller reads a state.  ``MemoStore`` (format 2)
spools each pair's key and value arrays — ints in their narrowest signed
dtype — and loads a ``StateColumns``; a memo in the older record format
is refused.  Columnar checkpoints narrow int state the same way.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import components, pagerank, sssp
from repro.common.partition import ModPartitioner
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import DeltaError, MemoStore, run_accum_local, run_parallel
from repro.imapreduce.checkpoint import CheckpointStore
from repro.imapreduce.columnar import (
    StateColumns,
    decode_columnar,
    encode_columnar,
    narrow_ints,
    widen_ints,
)
from repro.imapreduce.incremental import MEMO_FORMAT
from repro.testing.oracles import records_identical

_values = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=64, max_size=64),
    st.lists(st.one_of(st.floats(allow_nan=False, width=64), st.just(-0.0)),
             min_size=64, max_size=64),
)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(-(2**40), 2**40), unique=True, max_size=64),
       values=_values, index=st.integers(-70, 70),
       cut=st.tuples(st.integers(-70, 70), st.integers(-70, 70), st.sampled_from([1, 2, -1])))
def test_state_columns_is_its_record_list(keys, values, index, cut):
    records = list(zip(keys, values))
    ks, vs = encode_columnar(records, None)
    want = decode_columnar(ks, vs)
    got = StateColumns(ks, vs)
    assert got == want and want == got
    assert not (got != want) and not (want != got)
    assert len(got) == len(want)
    assert list(got) == want
    assert [type(v) for _k, v in got] == [type(v) for _k, v in want]
    if -len(want) <= index < len(want):
        assert got[index] == want[index]
    else:
        with pytest.raises(IndexError):
            got[index]  # noqa: B018
    assert got[slice(*cut)] == want[slice(*cut)]
    assert dict(got) == dict(want)
    assert sorted(got) == sorted(want)
    assert list(zip(got, want)) == list(zip(want, want))
    back = pickle.loads(pickle.dumps(got, protocol=5))
    assert isinstance(back, StateColumns) and back == got == want
    assert records_identical(got, want)
    assert repr(got) == repr(want)
    if want:
        other = want[:-1] + [(want[-1][0], "other")]
        assert got != other and other != got
        assert got != StateColumns(ks[:-1], vs[:-1])


def test_state_columns_iterates_in_chunks():
    ks = np.arange(StateColumns.CHUNK * 2 + 5, dtype=np.int64)
    got = StateColumns(ks, ks * 0.5)
    assert list(got) == decode_columnar(ks, ks * 0.5)
    assert got[-1] == (int(ks[-1]), float(ks[-1]) * 0.5)


@pytest.mark.parametrize("values,spooled", [
    (np.array([0, -1, 127, -128]), np.int8), (np.array([128, -129]), np.int16),
    (np.array([2**31 - 1, -(2**31)]), np.int32), (np.array([2**31, 5]), np.int64),
    (np.array([-(2**63), 2**63 - 1]), np.int64), (np.array([], dtype=np.int64), np.int64),
    (np.array([0.5, -0.0]), np.float64),
])
def test_int_narrowing_round_trips_bit_exactly(values, spooled):
    narrow = narrow_ints(values)
    assert narrow.dtype == spooled
    back = widen_ints(narrow)
    assert back.dtype == values.dtype and np.array_equal(back, values)
    assert np.array_equal(np.signbit(back), np.signbit(values))


# ------------------------------------------------------------------ memo --
def _memo_state(data, num_keys):
    keys = data.draw(st.lists(st.integers(0, 10**6), unique=True,
                              min_size=num_keys, max_size=num_keys))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.integers(-(10**12), 10**12),
                                    min_size=num_keys, max_size=num_keys))
    else:
        values = data.draw(st.lists(st.floats(allow_nan=False, width=64),
                                    min_size=num_keys, max_size=num_keys))
    return sorted(zip(keys, values))


@settings(max_examples=25, deadline=None)
@given(num_pairs=st.integers(1, 8), num_keys=st.integers(0, 12), data=st.data())
def test_memo_round_trip_from_records_and_from_a_view(
        tmp_path_factory, num_pairs, num_keys, data):
    """1–8 pairs, empty ones among them: a memo saved from records and
    one saved from their ``StateColumns`` load the same records, with the
    value types a run's state has."""
    records = _memo_state(data, num_keys)
    for state in (records, StateColumns(*encode_columnar(records, None))):
        store = MemoStore(str(tmp_path_factory.mktemp("memo")))
        store.save(state, job_name="j", num_pairs=num_pairs,
                   partitioner=ModPartitioner(), meta={"deltas": [(1, 2)]})
        got, meta = store.load(job_name="j")
        assert isinstance(got, StateColumns)
        assert records_identical(got, records)
        assert meta["num_pairs"] == num_pairs and meta["deltas"] == [(1, 2)]


def test_memo_spools_arrays_and_narrows_ints(tmp_path):
    records = [(k, k % 100) for k in range(1000)]
    store = MemoStore(str(tmp_path))
    store.save(records, job_name="j", num_pairs=3, partitioner=ModPartitioner())
    manifest = store.store.manifests()[0]
    payloads = [store.store.read_payload(e) for e in manifest["entries"]]
    assert payloads[-1]["memo_meta"]["format"] == MEMO_FORMAT
    for p, payload in enumerate(payloads[:-1]):
        assert payload["pair"] == p
        assert payload["keys"].dtype == np.int16 and payload["values"].dtype == np.int8
        assert (payload["keys"] % 3 == p).all()
    got, _meta = store.load()
    assert got.key_array.dtype == got.value_array.dtype == np.int64
    assert records_identical(got, records)


def test_an_old_format_memo_is_refused(tmp_path):
    """A memo written before format 2 — records per pair, no format in
    its meta — names itself and asks for a cold rerun."""
    store = CheckpointStore(str(tmp_path))
    entries = [store.write(0, 0, 0, {"pair": 0, "state": [(1, 0.5)]}),
               store.write(0, 0, 1, {"memo_meta": {"job": "j", "num_pairs": 1, "meta": {}}})]
    store.commit(0, 0, entries)
    with pytest.raises(DeltaError, match="format 1.*rerun cold"):
        MemoStore(str(tmp_path)).load(job_name="j")


# ---------------------------------------------------------- checkpoints --
def test_int_checkpoints_spool_no_more_than_the_record_path(tmp_path):
    """Sync components on a 2-worker mesh, checkpointed every 2
    iterations: the columnar run spools its int labels narrowed, at most
    the record path's 858,492 bytes (962,784 when they were int64)."""
    graph = sssp_graph(20000, mean_degree=1.5, seed=6)
    job = components.build_imr_job(
        state_path="/c/state", static_path="/c/static", output_path="/c/out")
    result = run_parallel(
        job, components.initial_state(graph), {"/c/static": components.static_records(graph)},
        num_pairs=4, num_workers=2, checkpoint_every=2, start_method="fork")
    assert result.counter("ckpt_writes") > 0
    assert result.counter("ckpt_bytes") <= 858_492


def test_a_columnar_run_hands_over_its_state_as_arrays():
    graph = pagerank_graph(30, seed=3)
    job = pagerank.build_imr_job(
        30, state_path="/p/state", static_path="/p/static", output_path="/p/out",
        max_iterations=3, num_pairs=3, use_kernel=True)
    result = run_parallel(job, pagerank.initial_state(graph),
                          {"/p/static": pagerank.static_records(graph)},
                          num_pairs=3, num_workers=2, start_method="fork")
    assert isinstance(result.state, StateColumns)
    assert [k for k, _v in result.state] == sorted(k for k, _v in result.state)


def test_an_empty_accumulative_job_splits_into_empty_pairs():
    """No static rows, no deltas, no warm state: the columnar split hands
    every pair empty arrays, and the run ends at once with no state."""
    job = sssp.build_accum_job(state_path="/e/state", static_path="/e/static",
                               output_path="/e/out")
    result = run_accum_local(job, [], {"/e/static": []}, num_pairs=2)
    assert result.state == [] and result.rounds == 0
