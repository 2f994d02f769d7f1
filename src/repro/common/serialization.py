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

A size is a pure function of a value's types and lengths, so it is
computed afresh every time, with no cache.
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


def sizeof_value(value: Any) -> int:
    """Size in bytes of one value under the encoding table above.

    The exact builtin types nearly every record is made of are answered
    first; their subclasses and everything else go by ``isinstance``."""
    t = value.__class__
    if t is int:
        return _INT_SIZE
    if t is float:
        return _FLOAT_SIZE
    if t is tuple or t is list:
        return 2 + sum(map(sizeof_value, value))
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
        return 2 + sum(map(sizeof_value, value))
    # Dataclass-ish objects with __dict__: price their fields.
    if hasattr(value, "__dict__"):
        return 2 + sum(map(sizeof_value, vars(value).values()))
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
