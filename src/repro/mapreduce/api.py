"""User-facing MapReduce programming interfaces.

Mirrors Hadoop's model: a job provides a mapper and a reducer (and
optionally a combiner); the framework feeds the mapper every input
record, shuffles its emissions by key, and feeds the reducer each key
with the list of values emitted for it.

Both class-based and plain-function styles are supported::

    class MyMapper(Mapper):
        def map(self, key, value, ctx):
            ctx.emit(key, value * 2)

    def my_mapper(key, value, ctx):
        ctx.emit(key, value * 2)

Counters (:meth:`Context.increment`) are the side channel jobs use to
report aggregates to the driver — exactly how a Hadoop convergence-check
job reports the inter-iteration distance.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Context", "Mapper", "Reducer", "Combiner", "as_mapper", "as_reducer"]


class Context:
    """Collects emissions and counter updates from user code.

    Emissions are kept as two parallel columns, ``keys`` and ``values``
    — no object per pair, as Hadoop's map output buffer keeps bytes plus
    index arrays.  :meth:`take_columns` hands both over; :meth:`take`
    pairs them up for callers that want records.
    """

    __slots__ = ("keys", "values", "counters")

    def __init__(self):
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.counters: dict[str, float] = {}

    def emit(self, key: Any, value: Any) -> None:
        self.keys.append(key)
        self.values.append(value)

    def increment(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def take_columns(self) -> tuple[list[Any], list[Any]]:
        """``(keys, values)`` emitted since the last take, in emission
        order; the buffer starts over empty."""
        columns = self.keys, self.values
        self.keys, self.values = [], []
        return columns

    def take(self) -> list[tuple[Any, Any]]:
        """The emissions as ``(key, value)`` records, in emission order."""
        return list(zip(*self.take_columns()))


@runtime_checkable
class Mapper(Protocol):
    """``map(key, value, ctx)`` — emit zero or more pairs via ``ctx``."""

    def map(self, key: Any, value: Any, ctx: Context) -> None: ...


@runtime_checkable
class Reducer(Protocol):
    """``reduce(key, values, ctx)`` — ``values`` is every value emitted
    for ``key`` this round, in a key-sorted shuffle."""

    def reduce(self, key: Any, values: list[Any], ctx: Context) -> None: ...


@runtime_checkable
class Combiner(Protocol):
    """Map-side local aggregation, same contract as Reducer."""

    def reduce(self, key: Any, values: list[Any], ctx: Context) -> None: ...


class _FunctionMapper:
    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[Any, Any, Context], None]):
        self._fn = fn

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        self._fn(key, value, ctx)


class _FunctionReducer:
    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[Any, list, Context], None]):
        self._fn = fn

    def reduce(self, key: Any, values: list[Any], ctx: Context) -> None:
        self._fn(key, values, ctx)


def as_mapper(obj: Mapper | Callable[[Any, Any, Context], None]) -> Mapper:
    """Accept either a Mapper instance or a plain ``f(key, value, ctx)``."""
    if hasattr(obj, "map"):
        return obj  # type: ignore[return-value]
    if callable(obj):
        return _FunctionMapper(obj)
    raise TypeError(f"not a mapper: {obj!r}")


def as_reducer(obj: Reducer | Callable[[Any, list, Context], None]) -> Reducer:
    """Accept either a Reducer instance or a plain ``f(key, values, ctx)``."""
    if hasattr(obj, "reduce"):
        return obj  # type: ignore[return-value]
    if callable(obj):
        return _FunctionReducer(obj)
    raise TypeError(f"not a reducer: {obj!r}")
