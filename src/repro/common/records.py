"""Key/value record types used throughout both engines.

The paper's data model is Hadoop's: every stage consumes and produces
``(key, value)`` pairs.  iMapReduce adds the *state*/*static* distinction
(§3.2): for a given key there is one static record (never changes — e.g. a
node's adjacency list) and one state record (updated every iteration —
e.g. the node's shortest distance or rank).  :class:`JoinedRecord` is what
the framework hands to an iMapReduce ``map()`` after the automatic join.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = [
    "KeyValue", "JoinedRecord", "group_by_key", "group_by_dest", "GroupPlan", "plannable",
    "kv_pairs", "order_key", "sort_records",
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


def group_by_dest(
    pairs: Iterable[tuple[Any, Any]], part: Callable[[Any], int] | None = None
) -> Iterator[tuple[Any, Iterable[tuple[Any, list[Any]]]]]:
    """``(destination, group_by_key(its pairs))`` per destination
    ``part(key)``, destinations in order of first appearance — the
    map-output → reduce-input grouping a combiner runs over (Hadoop
    combines per output partition).  ``part=None`` is the receiving
    side: everything is for one destination, ``None``."""
    if part is None:
        yield None, group_by_key(pairs)
        return
    parts: dict[int, list] = defaultdict(list)
    for pair in pairs:
        parts[part(pair[0])].append(pair)
    for dest, dest_pairs in parts.items():
        yield dest, group_by_key(dest_pairs)


def plannable(keys: list) -> bool:
    """May a :class:`GroupPlan` stand in for this key sequence?  Only if
    all keys share one exact type whose ``==`` is value identity."""
    return set(map(type, keys)) in ({int}, {str})


class GroupPlan:
    """:func:`group_by_dest`'s answer for one remembered key sequence,
    replayed on later records that carry exactly that sequence.

    A map that walks a fixed static partition emits the same keys in the
    same order every iteration (pagerank, jacobi; not kmeans, whose key
    is the nearest centroid, until assignments settle; not sync sssp
    while its frontier grows), so the map-output → reduce-input grouping
    — the edges i2MapReduce preserves on disk, here in memory — is
    loop-invariant, and iMapReduce's rule for loop-invariant work is to
    do it once (§3.1, §3.2).  Two ``array`` columns of 4 bytes an entry
    — ``order``, the permutation that puts the values in the
    reference's order (destination by first appearance, then key, then
    emission order), and ``bounds``, each group's end in it (a group's
    first entry is its key's first occurrence) — plus ``dests``, each
    destination with its number of groups.

    The plan is *derived from the reference, not a second sort* — built
    by running the partitioner and :func:`group_by_key` over ``(key,
    position)`` pairs — and only ever an equal substitute for it:
    :meth:`covers` demands the identical key list **and** one exact key
    type whose ``==`` is value identity (:func:`plannable`), because
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` under ``list.__eq__`` while
    the partitioners (``type(key) is int``, ``repr(float)``) tell them
    apart.  Floats, tuples and mixed sequences always take the
    reference, which stays the production path for every step whose
    sequence does not repeat.  A plan is derived state: never
    checkpointed, rebuilt after a respawn.
    """

    __slots__ = ("keys", "order", "bounds", "dests")

    def __init__(self, keys: list, part: Callable[[Any], int] | None = None):
        self.keys = keys
        # The reference's two steps — partition, then ``group_by_key``
        # per destination — over positions; ``zip`` recycles its pair, so
        # nothing the size of the emission is allocated but the columns.
        if part is None:
            parts = {None: range(len(keys))}
        else:
            parts = defaultdict(lambda: array("I"))
            for position, key in enumerate(keys):
                parts[part(key)].append(position)
        self.order, sizes, self.dests = array("I"), array("I"), []
        for dest, where in parts.items():
            groups = group_by_key(zip(map(keys.__getitem__, where), where))
            positions = list(map(itemgetter(1), groups))
            self.order.extend(chain.from_iterable(positions))
            sizes.extend(map(len, positions))
            self.dests.append((dest, len(positions)))
        self.bounds = array("I", accumulate(sizes))

    def covers(self, keys: list) -> bool:
        return keys == self.keys and plannable(keys)

    def apply(self, keys: list, records: list[tuple[Any, Any]]):
        """What ``group_by_dest(records, part)`` yields, given that
        ``keys`` — ``records``' keys — are covered: one gather, then one
        slice (a fresh list) per group, each group's key object taken
        from this emission's first occurrence, as ``setdefault`` does.
        Consume each destination's groups before asking for the next."""
        values = list(map(itemgetter(1), records))
        gathered = list(map(values.__getitem__, self.order))
        firsts = map(self.order.__getitem__, chain((0,), self.bounds[:-1]))
        groups = zip(
            map(keys.__getitem__, firsts),
            map(gathered.__getitem__, map(slice, chain((0,), self.bounds), self.bounds)),
        )
        for dest, num_groups in self.dests:
            yield dest, islice(groups, num_groups)


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
