"""Unit and property tests for the byte-size model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    RECORD_OVERHEAD,
    sizeof_record,
    sizeof_records,
    sizeof_text_line,
    sizeof_value,
)


def test_scalar_sizes():
    assert sizeof_value(None) == 1
    assert sizeof_value(True) == 1
    assert sizeof_value(7) == 9
    assert sizeof_value(3.14) == 9


def test_string_size_counts_utf8():
    assert sizeof_value("ab") == 4
    assert sizeof_value("é") == 2 + 2  # two UTF-8 bytes


def test_container_sizes_are_recursive():
    assert sizeof_value((1, 2)) == 2 + 9 + 9
    assert sizeof_value([1.0]) == 2 + 9
    assert sizeof_value({1: 2.0}) == 2 + 9 + 9


def test_numpy_array_size_uses_nbytes():
    arr = np.zeros(10, dtype=np.float64)
    assert sizeof_value(arr) == 8 + 80


def test_numpy_scalar_size():
    assert sizeof_value(np.float32(1.0)) == 5


def test_record_adds_overhead():
    assert sizeof_record(1, 2) == RECORD_OVERHEAD + 18


def test_records_sum():
    pairs = [(1, 2), (3, "abc")]
    assert sizeof_records(pairs) == sizeof_record(1, 2) + sizeof_record(3, "abc")


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        sizeof_value(object())


def test_text_line_size():
    # "5\t1.5000 2\n" -> 1 + 1 + 8 + 1
    assert sizeof_text_line(5, (1.5, 2)) == 1 + 1 + len("1.5000 2") + 1


# -- properties -------------------------------------------------------------

value_strategy = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=10,
)


@given(value_strategy)
def test_sizes_are_positive(value):
    assert sizeof_value(value) >= 1


@given(value_strategy, value_strategy)
def test_record_size_is_additive(key, value):
    assert sizeof_record(key, value) == RECORD_OVERHEAD + sizeof_value(key) + sizeof_value(value)


@given(st.lists(st.tuples(st.integers(), st.integers()), max_size=30))
def test_total_size_additive_over_concatenation(pairs):
    half = len(pairs) // 2
    assert sizeof_records(pairs) == sizeof_records(pairs[:half]) + sizeof_records(pairs[half:])


@given(value_strategy)
def test_size_is_deterministic(value):
    """Repeatable, and equal to the unmemoized model whichever path
    (scalar shortcut, memo hit, memo miss) answers."""
    from repro.common import serialization

    assert sizeof_value(value) == sizeof_value(value)
    assert sizeof_value(value) == serialization._sizeof_uncached(value)


# ------------------------------------------------------------ memoization --
def test_memo_distinguishes_equal_but_differently_typed_values():
    """``1 == 1.0 == True`` yet their sizes differ by type: the memo key
    must never collide them."""
    assert sizeof_value(1) == 9
    assert sizeof_value(1.0) == 9
    assert sizeof_value(True) == 1
    # Repeat in reverse order: cached answers must stay type-correct.
    assert sizeof_value(True) == 1
    assert sizeof_value(1.0) == 9
    assert sizeof_value(1) == 9


def test_memo_hits_return_identical_sizes():
    from repro.common import serialization

    probes = [7, 3.14, "node", ("a", 1, 2.0), None, (), ("x", (1, 2))]
    first = [sizeof_value(p) for p in probes]
    second = [sizeof_value(p) for p in probes]
    assert first == second
    assert first == [serialization._sizeof_uncached(p) for p in probes]


def test_memo_skips_uncacheable_values():
    from repro.common import serialization

    long_string = "x" * 1000
    big_tuple = tuple(range(100))
    array = np.arange(8)
    for value in (long_string, big_tuple, array):
        assert serialization._memo_key(value) is None
        assert sizeof_value(value) == serialization._sizeof_uncached(value)


def test_memo_nested_tuple_keys_recurse():
    from repro.common import serialization

    key = serialization._memo_key((1, (2.0, "s")))
    assert key is not None
    # A tuple containing an uncacheable leaf is itself uncacheable.
    assert serialization._memo_key((1, "y" * 1000)) is None
