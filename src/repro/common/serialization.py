"""Deterministic byte-size accounting for records.

Every byte the simulator moves over a disk or NIC pipe is priced by this
module.  We deliberately do *not* call ``pickle``: the goal is a stable,
explainable size model that mirrors Hadoop's Writable encodings closely
enough for the paper's communication-volume results (Fig. 11) to hold.

Sizes (bytes):

====================  =====================================================
``int``               9  (Hadoop VLongWritable worst case: 1 tag + 8 data)
``float``             9  (DoubleWritable + tag)
``bool``/``None``     1
``str``               2 + len(utf8)  (length-prefixed Text)
``bytes``             4 + len
``tuple``/``list``    2 + sum(items)
``dict``              2 + sum(key + value)
``numpy scalar``      itemsize + 1
``numpy array``       8 + nbytes
====================  =====================================================

A serialized key/value *record* additionally pays
:data:`RECORD_OVERHEAD` bytes (framing: lengths + sync markers), matching
the overhead of a SequenceFile record.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = [
    "RECORD_OVERHEAD",
    "sizeof_value",
    "sizeof_record",
    "sizeof_records",
    "sizeof_text_line",
]

#: Per-record framing overhead (key length + value length + sync), bytes.
RECORD_OVERHEAD = 8

_INT_SIZE = 9
_FLOAT_SIZE = 9

# ---------------------------------------------------------- memoization --
# The figure benchmarks price the same values over and over: a graph's
# adjacency tuples are priced once per iteration per record, and string /
# tuple keys recur every time a record crosses a pipe.  Sizes of
# immutable values never change, so small ones are memoized.  The cache
# key embeds the type of every component: ``1``, ``1.0`` and ``True``
# are equal as dict keys but have different modelled sizes.

_MEMO_MAX_ENTRIES = 1 << 16
_MEMO_MAX_TUPLE = 16
_MEMO_MAX_STR = 64
_memo: dict = {}


def _memo_key(value: Any):
    """A type-aware cache key for small immutable values, else ``None``."""
    t = value.__class__
    if t is int or t is float or t is bool:
        return (t, value)
    if t is str:
        return (t, value) if len(value) <= _MEMO_MAX_STR else None
    if value is None:
        return (type(None),)
    if t is tuple:
        if len(value) > _MEMO_MAX_TUPLE:
            return None
        parts = []
        for item in value:
            part = _memo_key(item)
            if part is None:
                return None
            parts.append(part)
        return (t, tuple(parts))
    return None


def sizeof_value(value: Any) -> int:
    """Size in bytes of one value under the encoding table above.

    Exact scalars are answered before a memo key is built (the key costs
    more than the answer); tuples and strings keep the memo."""
    t = value.__class__
    if t is int:
        return _INT_SIZE
    if t is float:
        return _FLOAT_SIZE
    if t is bool or value is None:
        return 1
    key = _memo_key(value)
    if key is not None:
        cached = _memo.get(key)
        if cached is not None:
            return cached
        size = _sizeof_uncached(value)
        if len(_memo) < _MEMO_MAX_ENTRIES:
            _memo[key] = size
        return size
    return _sizeof_uncached(value)


def _sizeof_uncached(value: Any) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return _INT_SIZE
    if isinstance(value, float):
        return _FLOAT_SIZE
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 4 + len(value)
    if isinstance(value, np.ndarray):
        return 8 + int(value.nbytes)
    if isinstance(value, np.generic):
        return 1 + int(value.dtype.itemsize)
    if isinstance(value, dict):
        return 2 + sum(sizeof_value(k) + sizeof_value(v) for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return 2 + sum(sizeof_value(item) for item in value)
    # Dataclass-ish objects with __dict__: price their fields.
    if hasattr(value, "__dict__"):
        return 2 + sum(sizeof_value(v) for v in vars(value).values())
    raise TypeError(f"no size model for {type(value).__name__}")


def sizeof_record(key: Any, value: Any) -> int:
    """Size in bytes of one framed key/value record."""
    return RECORD_OVERHEAD + sizeof_value(key) + sizeof_value(value)


def sizeof_records(pairs: Iterable[tuple[Any, Any]]) -> int:
    """Total framed size of an iterable of key/value pairs."""
    return sum(sizeof_record(k, v) for k, v in pairs)


def sizeof_text_line(key: Any, value: Any) -> int:
    """Size of a record in the *text* input formats (graph files).

    Used to report dataset file sizes in the Tables 1–2 reproduction:
    a tab-separated line ``key\\tvalue\\n``.
    """
    return len(_text(key)) + 1 + len(_text(value)) + 1


def _text(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, (tuple, list)):
        return " ".join(_text(v) for v in value)
    return str(value)
