"""Key/value record types used throughout both engines.

The paper's data model is Hadoop's: every stage consumes and produces
``(key, value)`` pairs.  iMapReduce adds the *state*/*static* distinction
(§3.2): for a given key there is one static record (never changes — e.g. a
node's adjacency list) and one state record (updated every iteration —
e.g. the node's shortest distance or rank).  :class:`JoinedRecord` is what
the framework hands to an iMapReduce ``map()`` after the automatic join.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Generic, Iterable, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = [
    "KeyValue", "JoinedRecord", "group_by_key", "kv_pairs", "order_key", "sort_records",
]


@dataclass(frozen=True, slots=True)
class KeyValue(Generic[K, V]):
    """One immutable key/value pair.

    Plain tuples are accepted everywhere a ``KeyValue`` is; this class
    exists for readability at API boundaries and for its helpers.
    """

    key: K
    value: V

    def astuple(self) -> tuple[K, V]:
        return (self.key, self.value)

    def __iter__(self) -> Iterator[Any]:  # allows ``k, v = record``
        yield self.key
        yield self.value


@dataclass(frozen=True, slots=True)
class JoinedRecord(Generic[K]):
    """A state record joined with its same-key static record (§3.2.2)."""

    key: K
    state: Any
    static: Any

    def __iter__(self) -> Iterator[Any]:
        yield self.key
        yield self.state
        yield self.static


def kv_pairs(pairs: Iterable[Any]) -> list[tuple[Any, Any]]:
    """Normalise an iterable of ``KeyValue`` / 2-tuples to plain tuples."""
    out: list[tuple[Any, Any]] = []
    for p in pairs:
        if isinstance(p, KeyValue):
            out.append(p.astuple())
        else:
            k, v = p
            out.append((k, v))
    return out


def group_by_key(pairs: Iterable[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Group pairs by key, returning groups sorted by key.

    This is the merge step every reducer sees: for each key, the list of
    all values emitted for it, in emission order within the key.  Sorting
    matches Hadoop's sorted-shuffle contract (and iMapReduce's key-ordered
    join, §3.2.2).

    Fast path: the engines' hot loops group homogeneous keys (all ints,
    or all strings), where native tuple comparison sorts the bucket list
    directly in C — no per-item ``order_key`` call or tuple allocation.
    Unorderable key mixes (ints and tuples in the matrix-power job) fall
    back to the type-name-prefixed total order.  The orders agree
    whenever all keys share one type; an orderable *mix* (ints and
    floats) would interleave numerically instead of grouping by type
    name — no engine workload emits such a mix.
    """
    buckets: dict[Any, list[Any]] = {}
    for k, v in pairs:
        buckets.setdefault(k, []).append(v)
    items = list(buckets.items())
    if len(items) <= 1:
        return items
    try:
        # Keys are unique, so comparison never reaches the value lists.
        items.sort()
    except TypeError:
        # A failed sort leaves ``items`` permuted but intact; re-sort
        # under the heterogeneous total order.
        items.sort(key=lambda item: order_key(item[0]))
    return items


def order_key(key: Any) -> Any:
    """Total order over heterogeneous keys: group by type name first.

    The one sort rule every engine uses for record keys — final-state
    assembly, one2all broadcast order, the accumulative scheduler's
    tie-break and the ``group_by_key`` fallback.

    Real Hadoop sorts serialized bytes; we sort Python values, but keys of
    mixed types (e.g. ints and tuples in the matrix-power job) must not
    raise, so we prefix each key with its type name.
    """
    return (type(key).__name__, key)


def sort_records(records: Iterable[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """``records`` as a list, stably sorted by key under :func:`order_key`.

    When every key has the same type the type-name prefix is one constant
    and the order is the keys' own, so the sort compares them natively —
    no Python call or tuple per record.  Exact for any input, unlike
    :func:`group_by_key`'s fast path: a mix of types always takes
    :func:`order_key`.
    """
    records = list(records)
    if len(set(map(type, map(itemgetter(0), records)))) > 1:
        records.sort(key=lambda kv: order_key(kv[0]))
    else:
        records.sort(key=itemgetter(0))
    return records
