"""Unit tests for record types and grouping."""

import pytest

from repro.common import JoinedRecord, KeyValue, group_by_key, kv_pairs
from repro.common.records import order_key, sort_records


def test_keyvalue_unpacks():
    k, v = KeyValue(1, "a")
    assert (k, v) == (1, "a")


def test_keyvalue_astuple():
    assert KeyValue("x", 2.5).astuple() == ("x", 2.5)


def test_joined_record_unpacks():
    key, state, static = JoinedRecord(3, 0.5, [1, 2])
    assert (key, state, static) == (3, 0.5, [1, 2])


def test_kv_pairs_normalises_mixture():
    pairs = kv_pairs([KeyValue(1, "a"), (2, "b")])
    assert pairs == [(1, "a"), (2, "b")]


def test_group_by_key_groups_and_sorts():
    groups = group_by_key([(2, "x"), (1, "a"), (2, "y"), (1, "b")])
    assert groups == [(1, ["a", "b"]), (2, ["x", "y"])]


def test_group_by_key_preserves_value_order_within_key():
    groups = group_by_key([(1, 3), (1, 1), (1, 2)])
    assert groups == [(1, [3, 1, 2])]


def test_group_by_key_mixed_key_types_do_not_raise():
    groups = group_by_key([((0, 1), "t"), (5, "i"), ("a", "s")])
    keys = [k for k, _ in groups]
    assert set(map(str, keys)) == {"(0, 1)", "5", "a"}


def test_group_by_key_empty():
    assert group_by_key([]) == []


@pytest.mark.parametrize(
    "keys",
    [
        [],
        [3, 1, 2, 1, 3, 0],  # one type: the native sort
        ["b", "a", "c", "a"],
        [(1, 2), (0, 9), (1, 0), (0, 9)],
        [2.5, float("inf"), -1.0, 2.5],
        [5, (0, 1), "a", 2, (0, 0), "A"],  # unorderable mix
        [2, 1.5, 1, 0.5, True],  # orderable mix: still grouped by type name
    ],
    ids=["empty", "int", "str", "tuple", "float", "mixed", "int-float-bool"],
)
def test_sort_records_is_the_order_key_sort(keys):
    records = [(k, i) for i, k in enumerate(keys)]
    expected = sorted(records, key=lambda kv: order_key(kv[0]))
    assert sort_records(records) == expected
    assert sort_records(iter(records)) == expected  # any iterable; a new list
    assert records == [(k, i) for i, k in enumerate(keys)]
