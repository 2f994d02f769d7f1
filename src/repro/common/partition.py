"""Partitioners: map a record key to one of ``n`` partitions.

Partitioning is load-bearing in iMapReduce (§3.2.1): the static data is
partitioned *once* with the same function used to shuffle the state data,
which is what guarantees that a state record always arrives at the reduce
task whose paired map task holds the matching static record.  Hence every
partitioner here must be a pure function of ``(key, n)``.

Python's builtin ``hash`` is salted per process for ``str``; we therefore
use a small stable FNV-1a implementation so partition assignment is
reproducible across runs and processes.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ModPartitioner",
    "RangePartitioner",
    "stable_hash",
    "bind_partitioner",
    "default_partitioner",
]


class Partitioner(Protocol):
    """Callable protocol: ``partitioner(key, num_partitions) -> int``."""

    def __call__(self, key: Any, num_partitions: int) -> int: ...


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def stable_hash(key: Any) -> int:
    """Process-independent 64-bit hash of a record key.

    Supports the key types the engines use: ints, strings, floats, bools,
    None, and tuples thereof (matrix-power keys are ``(i, k)`` tuples).
    """
    if isinstance(key, bool):
        return _fnv1a(b"b1" if key else b"b0")
    if isinstance(key, int):
        if -(2**127) <= key < 2**127:
            return _fnv1a(b"i" + key.to_bytes(16, "little", signed=True))
        return _fnv1a(b"I" + key.to_bytes(key.bit_length() // 8 + 1, "little", signed=True))
    if isinstance(key, float):
        return _fnv1a(b"f" + repr(key).encode())
    if isinstance(key, str):
        return _fnv1a(b"s" + key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fnv1a(b"y" + key)
    if key is None:
        return _fnv1a(b"n")
    if isinstance(key, tuple):
        h = _FNV_OFFSET
        for part in key:
            h ^= stable_hash(part)
            h = (h * _FNV_PRIME) & _MASK
        return h
    raise TypeError(f"unhashable partition key type: {type(key).__name__}")


class HashPartitioner:
    """Hadoop's default: ``hash(key) mod n`` with a stable hash."""

    def __call__(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        return stable_hash(key) % num_partitions

    def bind(self, num_partitions: int) -> Callable[[Any], int]:
        # Memoized, since the FNV byte loop is pure Python and a job's
        # key universe is stable across iterations.  Only exact ints and
        # strs, and flat tuples of them, are looked up: they equal no key
        # of another stable hash, whereas ``True`` and ``1.0`` equal
        # ``1`` as dict keys but hash apart.
        memo: dict[Any, int] = {}

        def part(key: Any, _n: int = num_partitions, _memo=memo) -> int:
            t = type(key)
            if t is tuple:
                for x in key:  # an explicit loop: ~2x faster than all()
                    t = type(x)
                    if t is not int and t is not str:
                        return stable_hash(key) % _n
            elif t is not int and t is not str:
                return stable_hash(key) % _n
            q = _memo.get(key)
            if q is None:
                q = _memo[key] = stable_hash(key) % _n
            return q

        return part

    def bind_array(self, num_partitions: int):
        """Vectorized form over an int64 key array (columnar kernels):
        :func:`stable_hash` of an int is FNV-1a over ``b"i"`` and its 16
        little-endian two's-complement bytes — an int64's 8 bytes, then
        8 sign bytes — run here as uint64 xor/multiply steps, which numpy
        wraps exactly as ``& _MASK`` does."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")

        def part_array(keys, _n: int = num_partitions):
            import numpy as np

            keys = np.asarray(keys, dtype=np.int64)
            word, prime = keys.view(np.uint64), np.uint64(_FNV_PRIME)
            h = np.full(keys.shape, (_FNV_OFFSET ^ ord("i")) * _FNV_PRIME & _MASK, np.uint64)
            for shift in range(0, 64, 8):
                h ^= (word >> np.uint64(shift)) & np.uint64(0xFF)
                h *= prime
            sign = np.where(keys < 0, np.uint64(0xFF), np.uint64(0))
            for _ in range(8):
                h ^= sign
                h *= prime
            return (h % np.uint64(_n)).astype(np.int64)

        return part_array

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "HashPartitioner()"


class ModPartitioner:
    """``key mod n`` for integer keys.

    Spreads contiguous node ids evenly; used by the graph workloads so a
    partition's node set is deterministic and easy to reason about in
    tests.  Non-integer keys fall back to the stable hash.
    """

    def __call__(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if isinstance(key, bool) or not isinstance(key, int):
            return stable_hash(key) % num_partitions
        return key % num_partitions

    def bind(self, num_partitions: int) -> Callable[[Any], int]:
        # ``type(key) is int`` is one pointer compare and already
        # excludes bool (an int subclass), so the graph engines' int-key
        # hot path pays a single modulo per record.
        def part(key: Any, _n: int = num_partitions) -> int:
            if type(key) is int:
                return key % _n
            return stable_hash(key) % _n

        return part

    def bind_array(self, num_partitions: int):
        """Vectorized form over an int64 key array (the columnar kernel
        path routes whole emission arrays in one modulo).  numpy's ``%``
        is floor-mod like Python's, so it agrees with :meth:`bind` for
        every int key, negative ones included."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")

        def part_array(keys, _n: int = num_partitions):
            return keys % _n

        return part_array

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ModPartitioner()"


class RangePartitioner:
    """Contiguous key ranges for integer keys in ``[0, total)``.

    Partition ``p`` owns keys ``[p * ceil(total/n), ...)``.  Keeps each
    partition's keys contiguous, which mirrors how the framework's graph
    loader splits node-id ranges across workers.
    """

    def __init__(self, total_keys: int):
        if total_keys <= 0:
            raise ValueError("total_keys must be positive")
        self.total_keys = total_keys

    def __call__(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if isinstance(key, bool) or not isinstance(key, int):
            return stable_hash(key) % num_partitions
        width = -(-self.total_keys // num_partitions)  # ceil division
        return min(int(key) // width, num_partitions - 1)

    def bind(self, num_partitions: int) -> Callable[[Any], int]:
        width = -(-self.total_keys // num_partitions)
        last = num_partitions - 1

        def part(key: Any, _n: int = num_partitions) -> int:
            if type(key) is int:
                return min(key // width, last)
            if isinstance(key, bool) or not isinstance(key, int):
                return stable_hash(key) % _n
            return min(int(key) // width, last)

        return part

    def bind_array(self, num_partitions: int):
        """Vectorized form over an int64 key array (columnar kernels)."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        width = -(-self.total_keys // num_partitions)
        last = num_partitions - 1

        def part_array(keys, _width: int = width, _last: int = last):
            import numpy as np

            return np.minimum(keys // _width, _last)

        return part_array

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RangePartitioner(total_keys={self.total_keys})"


def bind_partitioner(
    partitioner: Partitioner, num_partitions: int
) -> Callable[[Any], int]:
    """Pre-bind ``partitioner(key, n)`` to a single-argument fast form.

    Partition dispatch sits inside every per-record loop of the serial
    and multiprocess executors; binding ``n`` once hoists the argument
    checks (and, for the builtin partitioners, the isinstance ladder)
    out of the loop.  Partitioners may offer an optimized ``bind(n)``;
    anything else is wrapped generically, so user partitioners keep
    working unchanged.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    bind = getattr(partitioner, "bind", None)
    if bind is not None:
        return bind(num_partitions)
    return lambda key: partitioner(key, num_partitions)


#: Factory used when a job does not set a partitioner explicitly.
default_partitioner: Callable[[], Partitioner] = HashPartitioner
