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

def reference_size(value) -> int:
    """The module docstring's encoding table, written out once."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    if isinstance(value, np.ndarray):
        return 8 + value.nbytes
    if isinstance(value, np.generic):
        return 1 + value.dtype.itemsize
    if isinstance(value, dict):
        return 2 + sum(reference_size(k) + reference_size(v) for k, v in value.items())
    return 2 + sum(map(reference_size, value))


leaf_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.text(min_size=65, max_size=80),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.int64, st.integers(-(2**62), 2**62)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.zeros, st.integers(0, 6), st.sampled_from([np.float64, np.int32, np.bool_])),
)

#: Tuples, lists and dicts of the leaves, nested; strings longer than 64
#: and tuples longer than 16 (once a size cache's cut-offs) included.
value_strategy = st.recursive(
    leaf_strategy,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.lists(leaf_strategy, min_size=17, max_size=20).map(tuple),
        st.dictionaries(st.integers() | st.text(max_size=5), children, max_size=3),
    ),
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
    """Repeatable, and equal to the encoding table's reference."""
    assert sizeof_value(value) == sizeof_value(value) == reference_size(value)


def test_equal_values_of_different_types_size_by_type():
    """``1 == 1.0 == True`` yet their sizes differ by type, in any order."""
    assert [sizeof_value(v) for v in (1, 1.0, True, 1.0, 1)] == [9, 9, 1, 9, 9]
    assert sizeof_value((True, (1, 1.0))) == 2 + 1 + 2 + 9 + 9
