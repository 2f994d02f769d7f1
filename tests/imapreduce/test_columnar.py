"""Unit and property tests for the columnar layout primitives.

The encode/decode round trip is the load-bearing contract: every state
record that enters the kernel path must come back out with the record
path's value types (Python ints/floats, per-row arrays for vector
state), or the differential oracles would compare unlike things.
Routing and merging carry the rest of the contract — stray keys and
uncovered owned keys must *raise*, never silently corrupt state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import kmeans, pagerank, sssp
from repro.common import ConfigError, HashPartitioner, ModPartitioner, RangePartitioner
from repro.common.records import group_by_key, sort_records
from repro.imapreduce.engine import (
    PHASE_COUNTERS,
    SHUFFLE,
    by_dest,
    host_config,
)
from repro.imapreduce import (
    Kernel,
    KernelContractError,
    select_executor,
)
from repro.imapreduce.columnar import (
    ColumnarSync,
    adjacency_csr,
    concat_broadcast,
    csr_rows,
    decode_columnar,
    encode_columnar,
    merge_columnar,
    route_columnar,
)
from tests.imapreduce.support import RecordOnly, split_inputs, undeclared

STATE = "/t/state"
STATIC = "/t/static"
OUT = "/t/out"


# ------------------------------------------------------- encode/decode --
unique_keys = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40),
    min_size=0, max_size=50, unique=True,
)


@given(unique_keys, st.data())
def test_roundtrip_scalar_float(keys, data):
    vals = data.draw(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = list(zip(keys, vals))
    ks, vs = encode_columnar(records, "float64", 0)
    assert ks.dtype == np.int64 and vs.dtype == np.float64
    assert list(ks) == sorted(keys)  # ascending owned-key contract
    assert decode_columnar(ks, vs) == sorted(records)
    assert all(type(v) is float for _, v in decode_columnar(ks, vs))


@given(unique_keys, st.data())
def test_roundtrip_scalar_int(keys, data):
    vals = data.draw(
        st.lists(
            st.integers(min_value=-(2**31), max_value=2**31),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = list(zip(keys, vals))
    ks, vs = encode_columnar(records, "int64", 0)
    assert decode_columnar(ks, vs) == sorted(records)
    assert all(type(v) is int for _, v in decode_columnar(ks, vs))


@given(unique_keys, st.integers(min_value=1, max_value=4), st.data())
def test_roundtrip_vector(keys, width, data):
    rows = data.draw(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=width, max_size=width,
            ),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = [(k, np.array(row)) for k, row in zip(keys, rows)]
    ks, vs = encode_columnar(records, "float64", width)
    assert vs.shape == (len(keys), width)
    decoded = decode_columnar(ks, vs)
    expect = sorted(records, key=lambda kv: kv[0])
    assert [k for k, _ in decoded] == [k for k, _ in expect]
    for (_, got), (_, want) in zip(decoded, expect):
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)


def test_encode_rejects_non_int_keys():
    with pytest.raises(KernelContractError):
        encode_columnar([("a", 1.0)], "float64", 0)
    with pytest.raises(KernelContractError):
        encode_columnar([(True, 1.0)], "float64", 0)  # bools are not keys


def test_int_keys_judges_key_types():
    class Key(int):
        pass

    ks, _vs = encode_columnar([(Key(3), 1.0), (1, 2.0)], "float64", 0)
    assert ks.tolist() == [1, 3]  # an int subclass other than bool is an int
    with pytest.raises(KernelContractError, match=r"got 'a' \(str\)$"):
        encode_columnar([(1, 1.0), ("a", 1.0), (2.5, 1.0)], "float64", 0)


def _decode_per_element(keys, values):
    """``decode_columnar`` as one Python call per element — the
    reference for the vectorized decode."""
    if values.ndim == 1:
        scalar = int if values.dtype.kind == "i" else float
        return [(int(k), scalar(v)) for k, v in zip(keys.tolist(), values.tolist())]
    return [(int(k), values[i].copy()) for i, k in enumerate(keys.tolist())]


@given(
    unique_keys,
    st.sampled_from(["int64", "float64", "float32", "uint8", "bool"]),
    st.sampled_from([0, 2]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_columnar_final_state_equals_sorted_records(keys, dtype, width, num_pairs, data):
    """The columnar executors' ``join`` — concatenate, one stable
    argsort, one decode — equals sorting the per-element decode of every
    pair's columns, value types included."""
    shape = (len(keys), width) if width else (len(keys),)
    values = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) * 7 - 11
    values = values.astype(dtype)
    pair_of = data.draw(
        st.lists(st.integers(0, num_pairs - 1), min_size=len(keys), max_size=len(keys))
    )
    ks = np.array(keys, dtype=np.int64)
    finals = [
        {"state": {p: (ks[np.array(pair_of, dtype=int) == p],
                       values[np.array(pair_of, dtype=int) == p])
                   for p in range(num_pairs) if p % 2 == w}}
        for w in range(2)
    ]
    got = ColumnarSync.join([final["state"][p] for p in range(num_pairs)
                             for final in finals if p in final["state"]])
    want = sort_records(
        rec for p in range(num_pairs)
        for final in finals if p in final["state"]
        for rec in _decode_per_element(*final["state"][p])
    )
    assert [k for k, _v in got] == [k for k, _v in want]
    assert all(type(k) is int for k, _v in got)
    if width:
        for (_k, row), (_k2, want_row) in zip(got, want):
            assert np.array_equal(row, want_row) and row.base is None
    else:
        assert got == want
        assert [type(v) for _k, v in got] == [type(v) for _k, v in want]


def test_encode_rejects_duplicate_keys():
    with pytest.raises(KernelContractError):
        encode_columnar([(3, 1.0), (3, 2.0)], "float64", 0)


# ---------------------------------------------------------- static CSR --
@st.composite
def csr_cases(draw):
    """A pair's owned keys, a static table over them (rows absent, empty
    or not, plus rows the pair does not own) and rows to gather: any
    subset of the owned rows in any order, including none."""
    weighted = draw(st.booleans())
    edge = st.integers(-(2**40), 2**40)
    if weighted:
        edge = st.tuples(edge, st.floats(allow_nan=False, width=64))
    keys = draw(st.lists(st.integers(-50, 50), unique=True, max_size=12))
    owned = sorted(keys[: draw(st.integers(0, len(keys)))])
    table = {}
    for k in keys:
        row = draw(st.one_of(st.none(), st.lists(edge, max_size=4)))
        if row is not None:
            table[k] = tuple(row)
    rows = draw(st.permutations(range(len(owned))))
    idx = rows[: draw(st.integers(0, len(rows)))]
    return weighted, owned, table, idx


@given(csr_cases())
def test_csr_build_and_row_gather_match_a_plain_reference(case):
    weighted, owned, table, idx = case
    rows = [table.get(k, ()) for k in owned]
    counts = [len(r) for r in rows]
    indptr = [sum(counts[:i]) for i in range(len(rows) + 1)]
    edges = [e for r in rows for e in r]
    got = adjacency_csr(np.array(owned, dtype=np.int64), table, weighted)
    assert [a.tolist() for a in got[:2]] == [counts, indptr]
    assert [a.dtype for a in got[:3]] == [np.int64] * 3
    if weighted:
        assert got[2].tolist() == [v for v, _ in edges]
        assert got[3].dtype == np.float64
        assert got[3].tolist() == [w for _, w in edges]
    else:
        assert got[2].tolist() == edges and got[3] is None

    reps, flat = csr_rows(got[0], got[1], np.array(idx, dtype=np.int64))
    assert reps.dtype == flat.dtype == np.int64
    assert reps.tolist() == [p for p, i in enumerate(idx) for _ in range(counts[i])]
    assert flat.tolist() == [indptr[i] + j for i in idx for j in range(counts[i])]


# ------------------------------------------------------ the input split --
class _SplitKernel(Kernel):
    """A kernel whose static form the test picks."""

    def __init__(self, static_csr):
        self.static_csr = static_csr


@st.composite
def split_cases(draw):
    """A job's state and static table over 1–8 pairs: keys with state
    and no row, rows (empty or not) for keys with no state, and pairs
    that receive nothing."""
    static_csr = draw(st.sampled_from([None, "csr", "weighted"]))
    edge = st.integers(0, 59)
    if static_csr == "weighted":
        edge = st.tuples(edge, st.floats(allow_nan=False, width=64))
    keys = draw(st.lists(st.integers(0, 59), unique=True, max_size=24))
    state = [(k, draw(st.floats(allow_nan=False, width=64)))
             for k in keys[: draw(st.integers(0, len(keys)))]]
    table = [(k, tuple(draw(st.lists(edge, max_size=4))))
             for k in draw(st.permutations(keys))[: draw(st.integers(0, len(keys)))]]
    partitioner = draw(st.sampled_from([ModPartitioner(), RangePartitioner(60)]))
    return static_csr, state, table, partitioner, draw(st.integers(1, 8))


@given(split_cases())
def test_split_inputs_equal_per_record_routing_encode_and_gather(case):
    """One vectorised split gives every pair what routing one record at
    a time, encoding each pair and looking up each owned key's row gave:
    ascending keys, their values, and CSR rows aligned with them (a key
    without a row has none, each row keeps its edge order) — or, for a
    dict kernel, the routed dicts — and as many static records."""
    static_csr, state, table, partitioner, num_pairs = case
    job = replace(
        pagerank.build_imr_job(1, state_path=STATE, static_path=STATIC, output_path=OUT,
                               max_iterations=1),
        kernel=_SplitKernel(static_csr), partitioner=partitioner,
    )
    state_parts, (tables,) = split_inputs(job, state, {STATIC: table}, num_pairs)
    part = partitioner.bind(num_pairs)
    rows = dict(table)
    for p in range(num_pairs):
        mine = sorted((k, v) for k, v in state if part(k) == p)
        keys, values = state_parts[p]
        assert keys.dtype == np.int64 and values.dtype == np.float64
        assert keys.tolist() == [k for k, _ in mine]
        assert values.tolist() == [v for _, v in mine]
        received = {k: row for k, row in table if part(k) == p}
        assert len(tables[p]) == len(received)
        if static_csr is None:
            assert tables[p] == received
            continue
        weighted = static_csr == "weighted"
        counts, indptr, targets, weights = adjacency_csr(keys, tables[p], weighted)
        edges = [rows.get(k, ()) for k, _ in mine]
        assert counts.tolist() == [len(r) for r in edges]
        assert indptr.tolist() == [0, *np.cumsum(counts).tolist()]
        flat = [e for r in edges for e in r]
        assert [a.dtype for a in (counts, indptr, targets)] == [np.int64] * 3
        if weighted:
            assert targets.tolist() == [v for v, _w in flat]
            assert weights.dtype == np.float64
            assert weights.tolist() == [w for _v, w in flat]
        else:
            assert targets.tolist() == flat and weights is None


@pytest.mark.parametrize("state,match", [
    ([(True, 1.0)], r"got True \(bool\)"),
    ([(2.0, 1.0)], r"got 2\.0 \(float\)"),
    ([(3, 1.0), (3, 2.0)], "duplicate"),
    ([(4, 1.0), ("a", 1.0)], r"got 'a' \(str\)"),
], ids=["bool", "float", "duplicate", "str"])
def test_split_inputs_refuse_bad_state_keys(state, match):
    job = pagerank.build_imr_job(
        1, state_path=STATE, static_path=STATIC, output_path=OUT, max_iterations=1,
        use_kernel=True)
    with pytest.raises(KernelContractError, match=match):
        split_inputs(job, state, {STATIC: []}, 2)


# ------------------------------------------------------------- routing --
@given(
    st.lists(st.integers(min_value=0, max_value=199), max_size=80),
    st.integers(min_value=1, max_value=7),
)
def test_route_matches_scalar_partitioner(keys, num_pairs):
    """bind_array must agree with the scalar bind on every key, and the
    routed batches must preserve per-destination emission order."""
    part = ModPartitioner()
    out_keys = np.array(keys, dtype=np.int64)
    out_vals = out_keys.astype(np.float64) * 0.5
    routed = route_columnar(
        out_keys, out_vals, part.bind_array(num_pairs), num_pairs
    )
    scalar = part.bind(num_pairs)
    seen = {}
    for q, ks, vs in routed:
        assert ks.size > 0  # skip-empty contract
        for k in ks.tolist():
            assert scalar(k) == q
        seen[q] = ks.tolist()
    # Emission order within a destination is preserved (stable sort).
    for q, ks in seen.items():
        assert ks == [k for k in keys if scalar(k) == q]


def test_range_bind_array_matches_scalar():
    part = RangePartitioner(100)
    keys = np.arange(0, 130, dtype=np.int64)  # includes out-of-range tail
    arr = part.bind_array(4)(keys)
    scalar = part.bind(4)
    assert arr.tolist() == [scalar(int(k)) for k in keys]


# --------------------------------------------------------------- merge --
class _SumKernel(Kernel):
    merge = "sum"


class _MinKernel(Kernel):
    merge = "min"


def test_merge_sum_accumulates():
    owned = np.array([2, 5, 9], dtype=np.int64)
    batches = [
        (np.array([2, 5, 2]), np.array([1.0, 2.0, 3.0])),
        (np.array([9, 2]), np.array([10.0, 0.5])),
    ]
    acc = merge_columnar(_SumKernel(), owned, batches)
    assert acc.tolist() == [4.5, 2.0, 10.0]


def test_merge_min_takes_minimum():
    owned = np.array([1, 2], dtype=np.int64)
    batches = [
        (np.array([1, 2, 1]), np.array([5.0, np.inf, 3.0])),
        (np.array([2]), np.array([7.0])),
    ]
    acc = merge_columnar(_MinKernel(), owned, batches)
    assert acc.tolist() == [3.0, 7.0]


def test_merge_rejects_stray_keys():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError):
        merge_columnar(
            _SumKernel(), owned, [(np.array([3]), np.array([1.0]))]
        )


def test_merge_rejects_uncovered_owned_key():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError):
        merge_columnar(
            _SumKernel(), owned, [(np.array([1]), np.array([1.0]))]
        )


def test_merge_rejects_empty_inbox():
    with pytest.raises(KernelContractError):
        merge_columnar(_SumKernel(), np.array([1], dtype=np.int64), [])


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.floats(-100, 100, width=32)),
        min_size=1, max_size=60,
    )
)
def test_merge_min_equals_record_reduce(emissions):
    """The vectorized min merge agrees with a per-record min fold —
    exactly, because min never rounds."""
    owned = np.array(sorted({k for k, _ in emissions}), dtype=np.int64)
    keys = np.array([k for k, _ in emissions], dtype=np.int64)
    vals = np.array([v for _, v in emissions], dtype=np.float64)
    acc = merge_columnar(_MinKernel(), owned, [(keys, vals)])
    record = {k: min(v for kk, v in emissions if kk == k) for k in owned.tolist()}
    assert acc.tolist() == [record[k] for k in owned.tolist()]


def test_concat_broadcast_is_key_sorted():
    parts = [
        (np.array([4, 8]), np.array([1.0, 2.0])),
        (np.array([1, 5]), np.array([3.0, 4.0])),
    ]
    ks, vs = concat_broadcast(parts)
    assert ks.tolist() == [1, 4, 5, 8]
    assert vs.tolist() == [3.0, 1.0, 4.0, 2.0]


# -------------------------------------------------------- shuffle plan --
class _Scripted(Kernel):
    """Emits what the test scripts next: ``script[pair] = (keys, values)``."""

    def __init__(self, merge, combine=True):
        self.merge, self.combine = merge, combine
        self.script = {}

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        return self.script[pair]


def _planned_executor(merge, universe, num_pairs, partitioner=None, combine=True):
    """A :class:`ColumnarSync` hosting every pair, whose owned sets are
    ``universe`` split by the partitioner, plus its scripted kernel."""
    kernel = _Scripted(merge, combine)
    job = replace(
        pagerank.build_imr_job(
            1, state_path=STATE, static_path=STATIC, output_path=OUT,
            max_iterations=9,
        ),
        kernel=kernel, partitioner=partitioner or ModPartitioner(),
    )
    state_parts, static_parts = split_inputs(
        job, [(k, 0.0) for k in universe], None, num_pairs
    )
    cfg = host_config(
        0, range(num_pairs), state_parts, static_parts, num_workers=1,
        num_pairs=num_pairs, job=job, send_state=False, wait_verdict=False,
    )
    return ColumnarSync(cfg, dict.fromkeys(PHASE_COUNTERS, 0.0)), kernel


def _emission(keys, values):
    return np.array(keys, dtype=np.int64), np.array(values)


def _step(executor):
    items = executor.emit(SHUFFLE, 0, None)
    executor.absorb(SHUFFLE, 0, by_dest(items))
    return items


def test_plan_ships_keys_once_and_combines_at_the_sender():
    ex, kernel = _planned_executor("sum", range(4), 2)
    kernel.script = {
        0: _emission([0, 2, 1, 1, 0], [1.0, 2.0, 3.0, 4.0, 5.0]),
        1: _emission([1, 3, 2], [10.0, 20.0, 30.0]),
    }
    first = _step(ex)
    # One item per (dest, src); distinct ascending keys, combined values.
    assert [(q, p, ks.tolist(), vs.tolist()) for q, p, ks, vs in first] == [
        (0, 0, [0, 2], [6.0, 2.0]), (1, 0, [1], [7.0]),
        (0, 1, [2], [30.0]), (1, 1, [1, 3], [10.0, 20.0]),
    ]
    assert ex.values[0].tolist() == [6.0, 32.0]
    assert ex.values[1].tolist() == [17.0, 20.0]
    # Equal keys (a fresh but equal array, and the identical object):
    # values only, folded through the cached rows.
    kernel.script[0] = _emission([0, 2, 1, 1, 0], [1.0, 1.0, 1.0, 1.0, 1.0])
    second = _step(ex)
    assert [item[2] for item in second] == [None] * 4
    assert ex.values[0].tolist() == [2.0, 31.0]
    assert ex.values[1].tolist() == [12.0, 20.0]
    plans = dict(ex.shuffle_plans)
    _step(ex)
    assert ex.shuffle_plans == plans  # same plan objects: nothing rebuilt


def test_changed_keys_replan_and_reship_to_every_destination():
    ex, kernel = _planned_executor("min", range(4), 2)
    kernel.script = {
        0: _emission([0, 2], [5.0, 6.0]),
        1: _emission([1, 3, 0], [7.0, 8.0, 1.0]),
    }
    _step(ex)
    # Pair 1's frontier grows by key 2: both of its destinations get
    # keys again, pair 0's items stay values-only.
    kernel.script[1] = _emission([1, 3, 0, 2], [7.0, 8.0, 9.0, 2.0])
    items = _step(ex)
    shipped = {(q, p): ks for q, p, ks, _vs in items}
    assert shipped[0, 0] is None and (1, 0) not in shipped
    assert shipped[0, 1].tolist() == [0, 2] and shipped[1, 1].tolist() == [1, 3]
    assert ex.values[0].tolist() == [5.0, 2.0]
    assert ex.values[1].tolist() == [7.0, 8.0]
    # Same size, different keys: the array_equal arm, not just the size.
    kernel.script[1] = _emission([1, 3, 2, 2], [7.0, 8.0, 4.0, 3.0])
    items = _step(ex)
    assert {(q, p): ks is None for q, p, ks, _vs in items} == {
        (0, 0): True, (0, 1): False, (1, 1): False,
    }
    assert ex.values[0].tolist() == [5.0, 3.0]


def test_emptied_emission_drops_the_plan():
    ex, kernel = _planned_executor("sum", range(4), 2)
    full = {
        0: _emission([0, 2, 1, 3], [1.0, 1.0, 1.0, 1.0]),
        1: _emission([1], [1.0]),
    }
    kernel.script = dict(full)
    _step(ex)
    kernel.script[1] = _emission([], [])
    items = _step(ex)
    assert 1 not in ex.shuffle_plans and {p for _q, p, *_ in items} == {0}
    assert ex.values[1].tolist() == [1.0, 1.0]
    # Emitting again is a first emission: re-planned, keys attached.
    kernel.script = dict(full)
    items = _step(ex)
    assert [ks.tolist() for _q, p, ks, _vs in items if p == 1] == [[1]]
    assert ex.values[1].tolist() == [2.0, 1.0]


@pytest.mark.parametrize("later", [False, True], ids=["first-step", "re-planned"])
def test_plan_rejects_stray_key(later):
    ex, kernel = _planned_executor("sum", range(4), 2)
    good = {0: _emission([0, 2], [1.0, 1.0]), 1: _emission([1, 3], [1.0, 1.0])}
    if later:
        kernel.script = good
        _step(ex)
        _step(ex)
    kernel.script = {**good, 1: _emission([1, 3, 6], [1.0, 1.0, 1.0])}
    with pytest.raises(KernelContractError, match="outside the owned set"):
        _step(ex)


@pytest.mark.parametrize("later", [False, True], ids=["first-step", "re-planned"])
def test_plan_rejects_uncovered_owned_key(later):
    ex, kernel = _planned_executor("sum", range(4), 2)
    good = {0: _emission([0, 2], [1.0, 1.0]), 1: _emission([1, 3], [1.0, 1.0])}
    if later:
        kernel.script = good
        _step(ex)
        _step(ex)
    kernel.script = {**good, 0: _emission([0], [1.0])}
    with pytest.raises(KernelContractError, match="no contribution"):
        _step(ex)


def test_source_that_stops_contributing_retriggers_coverage():
    """No keys arrive at pair 0 in the failing step — only the set of
    contributing sources changes, and that alone re-judges coverage."""
    ex, kernel = _planned_executor("sum", range(4), 2)
    kernel.script = {
        0: _emission([0, 1, 3], [1.0, 1.0, 1.0]),
        1: _emission([2], [1.0]),
    }
    _step(ex)
    _step(ex)
    kernel.script[1] = _emission([], [])
    items = ex.emit(SHUFFLE, 0, None)
    assert all(ks is None for _q, _p, ks, _vs in items)
    with pytest.raises(KernelContractError, match=r"no contribution: \[2\]"):
        ex.absorb(SHUFFLE, 0, by_dest(items))


def _left_fold(merge, owned, batches, dtype, row_shape):
    """The columnar fold rule in plain Python: per key, each source
    batch's values folded from the identity in emission order, then
    those partials folded from the identity in batch (source) order."""
    ufunc = np.add if merge == "sum" else np.minimum
    identity = 0 if merge == "sum" else (
        np.iinfo(dtype).max if dtype.kind == "i" else np.inf
    )
    def fold(values):
        acc = np.full(row_shape, identity, dtype=dtype)
        for value in values:
            acc = ufunc(acc, value)
        return acc
    return np.array([
        fold([fold([v for k, v in zip(ks.tolist(), vs) if k == key])
              for ks, vs in batches if key in ks.tolist()])
        for key in owned.tolist()
    ], dtype=dtype).reshape((owned.size,) + row_shape)


@given(
    st.data(),
    st.sampled_from(["sum", "min"]),
    st.sampled_from(["float64", "int64"]),
    st.sampled_from([0, 3]),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.booleans(),
)
def test_planned_shuffle_equals_unplanned_merge(
    data, merge, dtype, width, num_pairs, ranged, combine
):
    """Sender combine + indexed fold against two references, on the
    keyed step and on the values-only step after it:

    * the fold rule itself, as a plain-Python left fold from the
      identity per (destination, key) — each source's emissions in
      emission order, then those partials in ascending source order —
      bit for bit, float sums included;
    * ``merge_columnar`` over the uncombined ``route_columnar`` batches:
      exact for ``min`` and for int64, within the reordering bound
      ``(n−1)·eps·Σ|xᵢ|`` for float sums.

    Each plan's per-destination keys are ``route_columnar``'s distinct
    keys.  Uncombined, they are ``route_columnar``'s keys themselves, and
    the fold is ``merge_columnar``'s bit for bit."""
    universe = 24
    keys = data.draw(st.lists(st.integers(0, universe - 1), min_size=1, max_size=60))
    srcs = data.draw(
        st.lists(st.integers(0, num_pairs - 1), min_size=len(keys), max_size=len(keys))
    )
    partitioner = RangePartitioner(universe) if ranged else ModPartitioner()
    ex, kernel = _planned_executor(merge, sorted(set(keys)), num_pairs, partitioner,
                                   combine)
    shape = (len(keys), width) if width else (len(keys),)
    for _ in range(2):  # the second round reuses every plan
        if dtype == "int64":
            flat = data.draw(st.lists(
                st.integers(-(2**40), 2**40),
                min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
            ))
            vals = np.array(flat, dtype=dtype).reshape(shape)
        else:
            # Mixed magnitudes, so any other association of a sum shows.
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
            vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        all_keys = np.array(keys, dtype=np.int64)
        mask = {p: np.array(srcs) == p for p in range(num_pairs)}
        kernel.script = {p: (all_keys[m], vals[m]) for p, m in mask.items()}
        _step(ex)
        inbox = {}
        for p in range(num_pairs):
            routed = route_columnar(*kernel.script[p], ex.part_array, num_pairs)
            planned = ex.shuffle_plans[p].dests if p in ex.shuffle_plans else []
            assert [(q, ks.tolist()) for q, _lo, _hi, ks in planned] == [
                (q, (np.unique(ks) if combine else ks).tolist()) for q, ks, _vs in routed
            ]
            for q, ks, vs in routed:
                inbox.setdefault(q, []).append((ks, vs))
        for q, batches in inbox.items():
            want = merge_columnar(kernel, ex.owned[q], batches)
            got = ex.values[q]
            assert got.dtype == want.dtype and got.shape == want.shape
            if not combine:
                assert got.tobytes() == want.tobytes()
                continue
            assert got.tobytes() == _left_fold(
                merge, ex.owned[q], batches, vals.dtype, vals.shape[1:]
            ).tobytes()
            if merge == "min" or dtype == "int64":
                assert np.array_equal(got, want)
            else:
                mass = merge_columnar(
                    kernel, ex.owned[q], [(ks, np.abs(vs)) for ks, vs in batches]
                )
                bound = (len(keys) - 1) * np.finfo(np.float64).eps * mass
                assert (np.abs(got - want) <= bound).all()


# ------------------------------------------------------ dispatch rules --
def test_kernel_enabled_dispatch_rules():
    n = 12
    job = pagerank.build_imr_job(
        n, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, threshold=1e-4, use_kernel=True,
    )
    assert job.distance_fn is not None  # the NoDistance check needs one
    assert select_executor(job)[1] is None
    # No kernel, no declared fold → record path.
    plain = undeclared(pagerank.build_imr_job(
        n, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2,
    ))
    assert select_executor(plain)[1] == "no kernel"
    # A partitioner without bind_array → record path.
    hashed = replace(job, partitioner=RecordOnly(ModPartitioner()))
    assert select_executor(hashed)[1] == "partitioner has no bind_array"
    # HashPartitioner has one (FNV-1a over int64 keys): columnar.
    assert select_executor(replace(job, partitioner=HashPartitioner()))[0] is ColumnarSync
    # Mapping / needs_broadcast mismatch → record path.
    o2a = replace(
        job, phases=[replace(job.phases[0], mapping="one2all")]
    )
    assert select_executor(o2a)[1] == "broadcast mismatch"
    # More than one phase, or an aux phase → record path.
    two_phase = replace(job, phases=[job.phases[0], job.phases[0]])
    assert select_executor(two_phase)[1] == "multi-phase"
    with_aux = replace(job, aux=kmeans.make_convergence_aux(move_threshold=1))
    assert select_executor(with_aux)[1] == "aux phase"

    # distance_fn without distance_partial → record path.
    class NoDistance(Kernel):
        def map_kernel(self, pair, keys, values, prepared, broadcast):
            return keys, values

    blind = replace(job, kernel=NoDistance())
    assert select_executor(blind)[1] == "no distance_partial"
    # Every fallback lands on one and the same record executor.
    assert len({
        select_executor(j)[0]
        for j in (plain, hashed, o2a, two_phase, with_aux, blind)
    }) == 1

    # An accumulative job has no record fallback: each refusal names
    # the job and the class at fault.
    accum = sssp.build_accum_job(state_path=STATE, static_path=STATIC, output_path=OUT)
    with pytest.raises(ConfigError, match=r"job 'sssp-accum'.*RecordOnly has no bind_array"):
        select_executor(replace(accum, partitioner=RecordOnly(ModPartitioner())))
    with pytest.raises(ConfigError, match=r"job 'sssp-accum'.*SsspKernel is not an AccumKernel"):
        select_executor(replace(accum, kernel=sssp.SsspKernel()))


def test_sssp_kernel_enabled():
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, use_kernel=True,
    )
    assert select_executor(job)[1] is None


# -------------------------------------------- group_by_key fast path --
def test_group_by_key_homogeneous_matches_old_order():
    pairs = [(3, "a"), (1, "b"), (3, "c"), (2, "d"), (1, "e")]
    assert group_by_key(pairs) == [(1, ["b", "e"]), (2, ["d"]), (3, ["a", "c"])]


def test_group_by_key_unorderable_mix_falls_back():
    """int and tuple keys can't compare natively; the TypeError fallback
    must still produce the type-name-prefixed total order."""
    pairs = [((1, 2), "t"), (5, "i"), ((0, 0), "u"), (3, "j")]
    grouped = group_by_key(pairs)
    assert grouped == [
        (3, ["j"]), (5, ["i"]), ((0, 0), ["u"]), ((1, 2), ["t"])
    ]


def test_group_by_key_single_group_short_circuits():
    assert group_by_key([(7, 1), (7, 2)]) == [(7, [1, 2])]
    assert group_by_key([]) == []
