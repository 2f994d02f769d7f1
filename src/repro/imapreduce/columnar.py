"""Columnar execution path: vectorized per-pair kernels.

The record-level executors (:func:`~repro.imapreduce.plan.run_local`
and the multiprocess backend) spend their time in per-record Python —
``map_pair`` → ``group_by_key`` → ``reduce`` — which the PR5 phase
profiler showed dominating wall clock by ~30× over serialization.  The
hot algorithms don't need per-record generality: their updates are
accumulative merges over a *fixed integer key space* (``sum`` for
pagerank/jacobi/k-means partials, ``min`` for sssp/components), so a
whole pair's iteration collapses into a handful of numpy array
operations — the same structure Maiter exploits, and the same code shape
as the ``reference_iterations`` oracles.

Layout
------

A pair's state is two contiguous arrays instead of a list of records:

* ``keys``   — int64, strictly ascending (the pair's *owned* key set,
  fixed for the whole job: the initial state keys this pair's partition
  received, mirroring §3.2's static task-pair assignment);
* ``values`` — float64/int64, shape ``(n,)`` for scalar state or
  ``(n, width)`` for vector state (k-means centroids), row-aligned with
  ``keys``.

A :class:`Kernel` carried by the job (``IterativeJob.kernel``) replaces
the per-record loops:

* ``prepare(pair, owned_keys, static_table)`` runs once at partition
  load, building CSR-style static columns that stay resident across
  iterations (§3.2.1 — the static data is never touched again).  What
  ``static_table`` is, the kernel declares (``Kernel.static_csr``): a
  graph kernel gets a :class:`PairCSR` — its owned keys' rows as CSR
  columns, which :func:`adjacency_csr` hands back as they are — and any
  other kernel the pair's ``key → row`` dict;
* ``map_kernel(pair, keys, values, prepared, broadcast)`` returns the
  pair's whole emission set as ``(out_keys, out_values)`` arrays;
* emissions are combined at the sender and folded at the owning pair
  along a cached **shuffle plan** (below) — the reduce, by one fold
  rule: ``ufunc.at`` into an accumulator filled with the identity;
* optional ``finalize`` post-processes the merged accumulator (k-means
  divides sums by counts), and ``distance_partial`` supplies the
  vectorized per-pair convergence contribution.

The shuffle plan
----------------

What §3.2 does for the static data — place it once, never move it again
— :class:`ColumnarSync` does for the shuffle *schedule*.  Routing,
grouping and locating an emission are functions of its keys alone, and
most kernels emit the same keys every iteration (pagerank and
components return the very same array object; k-means and jacobi an
equal one), so per source pair the executor keeps a
:class:`ShufflePlan`: ``np.unique(return_inverse=True)`` over the keys,
a stable sort of the distinct keys by destination, and each emission's
slot in that (destination, key) order.  A steady-state iteration is then
``map_kernel`` → one ``ufunc.at(acc, plan.inverse, values)`` into an
accumulator filled with the identity (the §5 combiner: one value per key
leaves the pair) → wire items ``(dest_pair, src_pair, None, values)``.
The receiving pair caches, per source, the row of each shipped key in
its owned array, and folds ``ufunc.at(acc, rows[src], values)`` source
by source into an accumulator filled with the identity — the rule
:func:`merge_columnar` and :func:`absorb_columnar` use too.

Keys travel only in a step whose plan was (re)built: the first step,
any step a kernel's key array changes (the sssp kernel offers from
*reached* nodes only, so it re-plans while the frontier grows and then
sticks), and the first step after a recovery — plans and row indices
are derived state, rebuilt by the respawned executors and never
checkpointed.  Whether a plan is reused is observed (``out_keys is
plan.keys``, else an ``array_equal``), never configured; a kernel must
therefore not mutate a key array it has returned.  Nor should a kernel
(or a record job's reducer) *keep* an array it was handed from the mesh
— a ``broadcast`` column, a received value — without copying it: the
arrays decoded from one frame are views of one shared region
(:func:`~repro.imapreduce.workerproc.decode_frame`), so one survivor
keeps the whole frame alive.  The executors here obey it: received keys
become fresh row indices, received values are folded or scattered into
owned arrays and dropped, and a restored checkpoint keeps *all* of its
spool file's value arrays.  An unpickled array also carries a fresh dtype
instance, which keeps ``ufunc.at`` off numpy's fast path (25–30×
slower) and spreads to whatever is computed from it, so received values
and restored state are viewed with the canonical dtype as they enter
(the wire is unchanged).  The two contract
checks — no emission outside the destination's owned set, every owned
key covered — are functions of the keys too, and are evaluated when keys
arrive or the set of contributing sources changes: once per distinct
key array, which enforces exactly what checking every step did.
:func:`route_columnar` and :func:`merge_columnar` remain as the
plan-free forms (dynamic delta batches, and the reference the plan is
tested against).

Each executor class owns its layout end to end: ``split_inputs`` (the
job's inputs as per-pair arrays), ``restore`` (a checkpoint back into
that layout) and ``join`` (the pairs' final state as one
:class:`StateColumns`).  Inputs are split once, in the coordinator,
before any host starts: the whole state is encoded in one pass, routed
by the partitioner's ``bind_array`` and one stable argsort, and a
``static_csr`` kernel's rows are looked up once for every owned key and
laid out as each pair's CSR (:func:`_split_table`, the one static split
of both executors).  A mesh worker inherits those arrays — the
loop-invariant data already in the form the loop consumes — and never
walks a Python record.

Dispatch rules (:func:`~repro.imapreduce.localrun.select_executor`,
called once per run):
the job must carry a kernel — or, kernel-less, declare its phase's fold
(``Phase.fold``), which :class:`~repro.imapreduce.localrun.FoldSync`
runs: the record map, the fold as the merge — have exactly one phase,
no aux phase, a partitioner with ``bind_array``, and the phase mapping
must match the kernel's ``needs_broadcast`` (a declared fold's is
one2one).  An accumulative job needs only the partitioner, and has no
other executor: kernel-less, it runs :class:`ColumnarAccum` through
:class:`~repro.imapreduce.localrun.UpdateKernel`, its own
``update_fn``, and a partitioner without ``bind_array`` or a kernel that
is not an :class:`AccumKernel` is refused.  A ``sum`` fold without a
combiner ships its raw emissions uncombined (``Kernel.combine``), so the
receiver adds each key's values in the record reducer's order.  A
synchronous job that fits none of this falls back to the record
executor, with the reason; the one selection is handed to every host
and mesh worker, so they cannot disagree on the path.  The two columnar
pair executors at the end of this module (:class:`ColumnarSync`,
:class:`ColumnarAccum`) are what the shared superstep driver runs,
serially and on the mesh alike.

Float-ordering caveat
---------------------

``min`` merges are order-independent, so sssp/components kernels are
*bit-exact* against the record path.  ``sum`` merges reorder the float
additions — every columnar fold runs from the identity in arrival
order, ``((0+a₀)+a₁)+…`` like Python's ``sum``, so the planned shuffle
sums each (source pair, key) in emission order first and then adds
those partials in ascending source-pair order at the receiver, while
the record path sums in ``group_by_key`` emission order — so summation
kernels are compared with a tolerance oracle.  The worst-case error of
summing ``n`` floats in any order is bounded by ``(n-1)·eps·Σ|xᵢ|``
(Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2); with
``eps = 2⁻⁵³`` and the bench-scale fan-ins (n ≲ 10⁵, values ≲ 1) that is ≲ 10⁻¹¹ absolute —
six orders under the differential oracle's 1e-6 relative tolerance.
Kernel-serial vs kernel-parallel stays bit-exact: the same executor
builds the same plans and folds in the same ascending source-pair
order on both transports.  A declared fold is bit-exact against the
record path itself: its map emits in the record map's order, so each
(source pair, key) sums in the order the record combiner sums it, and
the receiver adds those partials in the same ascending source-pair
order as the record reducer; without a combiner the receiver adds the
raw emissions themselves, in ascending source pair, then emission
order — the record reducer's own order.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable

import numpy as np

from ..common.errors import JobError
from .accum import bad_priority, fold_mass, partition_table
from .checkpoint import snapshot_pairs
from .engine import SHUFFLE

__all__ = [
    "Kernel",
    "AccumKernel",
    "KernelContractError",
    "encode_columnar",
    "decode_columnar",
    "PairCSR",
    "adjacency_csr",
    "csr_rows",
    "route_columnar",
    "merge_columnar",
    "absorb_columnar",
    "pending_priority",
    "StateColumns",
    "narrow_ints",
    "widen_ints",
    "concat_broadcast",
    "ShufflePlan",
    "ColumnarSync",
    "ColumnarAccum",
]


class KernelContractError(JobError):
    """A kernel violated the columnar contract (non-int keys, emission
    to a key outside the job's key universe, or an owned key that
    received no contribution)."""


class Kernel:
    """Base class for vectorized per-pair compute kernels.

    Subclasses set the class attributes and implement ``map_kernel``
    (and ``distance_partial`` when the job measures a distance).
    Kernels ship to worker processes inside the job pickle, so they
    must be picklable — plain classes with ``__slots__`` work.
    """

    #: ``"sum"`` (``np.add``) or ``"min"`` (``np.minimum``).
    merge = "sum"
    #: True for one2all jobs: ``map_kernel`` receives the full state as
    #: a globally key-sorted ``(keys, values)`` broadcast.
    needs_broadcast = False
    #: dtype of the state value array (``"float64"`` or ``"int64"``).
    state_dtype = "float64"
    #: 0 for scalar state; otherwise the number of value columns.
    state_width = 0
    #: False: emissions ship uncombined, and the receiver folds each
    #: key's values in ascending source pair, then emission order.
    combine = True
    #: The form ``prepare`` receives the pair's static table in: ``None``
    #: — its ``key → row`` dict; ``"csr"`` (rows ``(v, …)``) or
    #: ``"weighted"`` (rows ``((v, w), …)``) — a :class:`PairCSR` over
    #: the owned keys, split once before any host starts.
    static_csr: str | None = None

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table):
        """Build per-pair static columns once at partition load (§3.2)."""
        return None

    def map_kernel(
        self,
        pair: int,
        keys: np.ndarray,
        values: np.ndarray,
        prepared: Any,
        broadcast: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pair's whole emission set.  A returned key array must not
        be mutated afterwards: returning the same object again tells the
        executor the keys — hence the shuffle plan — are unchanged.
        ``broadcast`` is on loan (views of one received frame): copy
        what outlives the call."""
        raise NotImplementedError

    def finalize(
        self,
        pair: int,
        keys: np.ndarray,
        merged: np.ndarray,
        prev_values: np.ndarray,
        prepared: Any,
    ) -> np.ndarray:
        """Post-process the merged accumulator into the new state values
        (default: the accumulator *is* the new state)."""
        return merged


class AccumKernel:
    """Vectorized twin of the accumulative (Maiter-mode) engine.

    A pair's engine state is three aligned dense arrays over the owned
    key set: ``state`` (starts at the fold's identity), ``pending`` (the
    coalesced delta queue, also at the identity) and an ``active``
    boolean mask marking keys that currently hold a pending delta.
    Per round the executor scores pending deltas vectorized
    (:func:`pending_priority`), selects the top-priority fraction,
    applies them with one elementwise merge, and asks the kernel for
    the emissions of the *changed* subset.

    Like :class:`Kernel`, subclasses ship inside the job pickle — keep
    them plain and picklable.  The kernel declares no algebra: the
    executor merges by the job's fold (``AccumJob.fold``, an entry of
    :data:`~repro.imapreduce.accum.FOLDS`) and starts the arrays at that
    fold's identity in ``state_dtype`` (:func:`_reduction`: ∞ or the
    int64 max for ``min``, 0 for ``sum``), so a kernel cannot run
    another fold than its job.
    """

    #: dtype of the state/pending arrays (``None``: inferred once per
    #: job, :func:`_accum_dtype`).
    state_dtype = "float64"
    #: As :attr:`Kernel.static_csr`: the form ``prepare`` receives the
    #: pair's static table in.
    static_csr: str | None = None

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table):
        """Build per-pair CSR static columns once at partition load."""
        return None

    def emit_deltas(
        self,
        pair: int,
        owned_keys: np.ndarray,
        idx: np.ndarray,
        deltas: np.ndarray,
        states: np.ndarray,
        prepared: Any,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Emissions for the applied deltas whose merge changed state.

        ``idx`` indexes ``owned_keys`` in application (priority) order;
        ``deltas``/``states`` are the applied delta and the post-merge
        state, row-aligned with ``idx``.  Returns ``(out_keys,
        out_values)`` in the same per-source order the record-level
        update function would emit.
        """
        raise NotImplementedError


# ------------------------------------------------------------- layout --
def _int_keys(keys: Iterable) -> np.ndarray:
    """Keys → int64 array in the given order; the columnar contract
    admits Python ints only (a bool or float would silently alias one).
    The check runs over the set of key types, not over the keys."""
    keys = list(keys)
    bad = {
        t for t in set(map(type, keys)) if issubclass(t, bool) or not issubclass(t, int)
    }
    if bad:
        first = next(k for k in keys if type(k) in bad)
        raise KernelContractError(
            f"columnar keys must be ints, got {first!r} ({type(first).__name__})"
        )
    return np.array(keys, dtype=np.int64)


def _split(records) -> tuple[np.ndarray, list]:
    """``(key, value)`` records (any iterable) → their keys as an int64
    array (:func:`_int_keys`) and their values as a list."""
    records = list(records)
    return _int_keys(map(itemgetter(0), records)), list(map(itemgetter(1), records))


def encode_columnar(
    records: Iterable[tuple[int, Any]],
    dtype: str | None = "float64",
    width: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Records → ``(keys, values)`` arrays sorted by key, the values in
    ``dtype`` (``None``: the one numpy infers from them).

    ``width == 0`` encodes scalar values into shape ``(n,)``; otherwise
    each value must be a length-``width`` vector and the result is
    ``(n, width)``.  Keys must be Python ints (the columnar contract).
    """
    recs = list(records)
    n = len(recs)
    keys = _int_keys(map(itemgetter(0), recs))
    values = list(map(itemgetter(1), recs))
    values = np.array(values, dtype=dtype).reshape((n, width) if width else (n,))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if n > 1 and (keys[1:] == keys[:-1]).any():
        raise KernelContractError("duplicate keys in columnar state")
    return keys, values[order]


def decode_columnar(
    keys: np.ndarray, values: np.ndarray
) -> list[tuple[int, Any]]:
    """``(keys, values)`` → records with the record path's value types:
    Python ints for int64 state, Python floats for any other scalar
    state, per-row ndarray copies for vector state (what the record-path
    reducers emit)."""
    keys = keys.tolist()
    if values.ndim == 1:
        cast = np.int64 if values.dtype.kind == "i" else np.float64
        return list(zip(keys, values.astype(cast, copy=False).tolist()))
    return [(k, values[i].copy()) for i, k in enumerate(keys)]


class StateColumns(Sequence):
    """A columnar final state as the key-sorted record list it stands
    for, kept as its ``keys`` and ``values`` arrays: records are decoded
    (:func:`decode_columnar`'s value types) only as they are read, a
    chunk at a time when iterated.  It equals that list under ``==``
    in either direction, and its ``repr`` is the list's.  The arrays are
    ``key_array``/``value_array`` (a ``keys`` attribute would make
    ``dict()`` take it for a mapping)."""

    __slots__ = ("key_array", "value_array")
    #: Rows decoded per step of an iteration.
    CHUNK = 4096

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.key_array, self.value_array = keys, values

    @classmethod
    def of(cls, state) -> "StateColumns":
        """``state`` as it is, or its records encoded once
        (:func:`encode_columnar`, the dtype numpy infers)."""
        return state if isinstance(state, cls) else cls(*encode_columnar(state, None))

    def __len__(self) -> int:
        return int(self.key_array.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return decode_columnar(self.key_array[i], self.value_array[i])
        i = range(len(self))[i]  # a list's IndexError and index rules
        return decode_columnar(self.key_array[i:i + 1], self.value_array[i:i + 1])[0]

    def __iter__(self):
        for lo in range(0, len(self), self.CHUNK):
            hi = lo + self.CHUNK
            yield from decode_columnar(self.key_array[lo:hi], self.value_array[lo:hi])

    def __eq__(self, other):
        if isinstance(other, StateColumns):
            return (np.array_equal(self.key_array, other.key_array)
                    and self.value_array.shape == other.value_array.shape
                    and bool((self.value_array == other.value_array).all()))
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    __hash__ = None  # like the list it equals

    def __repr__(self) -> str:
        return repr(list(self))


def narrow_ints(a: np.ndarray) -> np.ndarray:
    """An int array in the narrowest signed dtype that holds its [min,
    max] — what a spool stores; :func:`widen_ints` restores it."""
    if a.dtype.kind != "i" or a.size == 0:
        return a
    lo, hi = a.min(), a.max()
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return a.astype(dtype)
    return a


def widen_ints(a: np.ndarray) -> np.ndarray:
    """A spooled int array back as int64, bit for bit (the columnar
    layout's int dtype); any other array as it is."""
    return a.astype(np.int64, copy=False) if a.dtype.kind == "i" else a


# ---------------------------------------------------------- static CSR --
class PairCSR:
    """A pair's static rows as CSR columns aligned with its owned keys —
    ``counts`` per key, then their ``targets`` (and ``weights``) edge by
    edge — what a ``static_csr`` kernel's ``prepare`` receives, built
    before any host starts (:func:`_split_table`).
    ``len()`` is the number of static records the pair received, rows
    of keys it does not own included, as its dict table's would be."""

    __slots__ = ("counts", "targets", "weights", "records")

    def __init__(self, counts, targets, weights, records: int):
        self.counts, self.targets, self.weights, self.records = counts, targets, weights, records

    def __len__(self) -> int:
        return self.records


def adjacency_csr(
    owned_keys: np.ndarray, static_table, weighted: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """A pair's static adjacency as CSR columns over ``owned_keys``, the
    form a graph kernel's ``prepare`` keeps resident (§3.2):
    ``(counts, indptr, targets, weights)``.  ``static_table`` is the
    pair's :class:`PairCSR`, returned as it is, or a ``key → row`` dict:
    its rows are looked up in ``owned_keys`` order and laid out by one
    ``fromiter`` over the chained rows — the build :func:`_split_table`
    runs once over every pair's owned keys.  A row is ``(v, …)``, or
    ``((v, w), …)`` when ``weighted``;
    an owned key with no row has no edges, and every row keeps its edge
    order.  ``weights`` is float64 when ``weighted``, else ``None``."""
    if isinstance(static_table, PairCSR):
        counts, targets, weights = static_table.counts, static_table.targets, static_table.weights
    else:
        rows = [static_table.get(k) or () for k in owned_keys.tolist()]
        counts, targets, weights = _rows_csr(rows, weighted)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return counts, indptr, targets, weights if weighted else None


def _rows_csr(rows: list, weighted: bool) -> tuple:
    """Rows ``(v, …)`` — ``((v, w), …)`` when ``weighted`` — as
    ``(counts, targets, weights)``: their lengths, then one ``fromiter``
    over the chained rows per edge column."""
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    total = int(counts.sum())
    if not weighted:
        return counts, np.fromiter(chain.from_iterable(rows), np.int64, total), None
    return counts, *(
        np.fromiter(map(itemgetter(i), chain.from_iterable(rows)), dtype, total)
        for i, dtype in ((0, np.int64), (1, np.float64))
    )


def csr_rows(
    counts: np.ndarray, indptr: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of CSR rows ``idx``, row by row in ``idx`` order, as one
    multi-range gather: ``(reps, flat)`` — each edge's position in
    ``idx`` and its index into the edge columns."""
    c = counts[idx]
    reps = np.repeat(np.arange(idx.size), c)
    within = np.arange(reps.size) - np.repeat(np.cumsum(c) - c, c)
    return reps, indptr[idx][reps] + within


# ------------------------------------------------------------- routing --
def _dest_slices(sorted_dest: np.ndarray, num_pairs: int) -> list[tuple[int, int, int]]:
    """``(dest, lo, hi)`` for every destination present in an ascending
    destination column (the mesh's skip-empty contract)."""
    bounds = np.searchsorted(sorted_dest, np.arange(num_pairs + 1)).tolist()
    return [
        (q, lo, hi)
        for q, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        if hi > lo
    ]


def _by_pair(route, num_pairs: int, keys: np.ndarray, *columns: np.ndarray) -> list[tuple]:
    """``keys`` and the columns aligned with them, split by pair: routed
    by ``route`` (a partitioner's bound ``bind_array``) and one stable
    argsort, so each pair's keys keep their order.  One tuple of
    ``(keys, *columns)`` per pair, an empty pair's included — the split
    both columnar executors' ``split_inputs`` and the memo make."""
    dest = route(keys)
    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(dest[order], np.arange(num_pairs + 1)).tolist()
    columns = [c[order] for c in (keys, *columns)]
    return [tuple(c[lo:hi] for c in columns) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _static_table(job, static_records) -> dict:
    """The one phase's static table (a dict or records) from the
    ``path → table`` inputs, as a dict."""
    table = (static_records or {}).get(job.static_paths[0] or "", ())
    return table if isinstance(table, dict) else dict(table)


def _split_table(kernel, table: dict, state_parts: list, part, route) -> list:
    """The static table as each pair's, in the form ``kernel`` declares
    (``static_csr``): a ``key → row`` dict routed by ``part``, or a
    :class:`PairCSR` whose rows are looked up once for every key the
    pair owns (the first array of its ``state_parts`` entry) and laid
    out by one ``fromiter`` per edge column — :func:`adjacency_csr`'s
    build."""
    if kernel.static_csr is None:
        return partition_table(table, len(state_parts), part)
    received = np.bincount(route(_int_keys(table)), minlength=len(state_parts)).tolist()
    weighted = kernel.static_csr == "weighted"
    return [PairCSR(*_rows_csr([table.get(k) or () for k in keys.tolist()], weighted), n)
            for (keys, *_arrays), n in zip(state_parts, received)]


def route_columnar(
    out_keys: np.ndarray,
    out_values: np.ndarray,
    part_array: Callable[[np.ndarray], np.ndarray],
    num_pairs: int,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Split one pair's emissions by destination pair.

    One vectorized partition call plus a stable argsort: within each
    destination, emission order is preserved, so the serial and the
    multiprocess executor concatenate identical per-source batches.
    Empty destinations are skipped (the mesh's skip-empty contract).
    """
    if out_keys.size == 0:
        return []
    dest = part_array(out_keys)
    order = np.argsort(dest, kind="stable")
    ks = out_keys[order]
    vs = out_values[order]
    ds = dest[order]
    return [(q, ks[lo:hi], vs[lo:hi]) for q, lo, hi in _dest_slices(ds, num_pairs)]


class ShufflePlan:
    """Everything about shuffling one source pair's emission that is a
    function of its keys alone — what §3.2 does for the static data,
    done for the shuffle schedule: computed once, reused every iteration
    the kernel emits the same keys.

    The combined values live in one array of ``size`` slots, one per
    distinct key, laid out by (destination, key); ``inverse`` maps each
    emission to its slot, so the §5 combiner — one value per key leaves
    the pair — is one ``ufunc.at`` into an array filled with the
    identity.  Uncombined (``combine=False``) every emission is a slot
    of its own, laid out by destination in emission order — what
    :func:`route_columnar` ships.  ``dests`` holds, per non-empty
    destination, its slice of the slots and the keys that slice is
    aligned with.
    """

    __slots__ = ("keys", "inverse", "size", "dests")

    def __init__(self, keys: np.ndarray, part_array, num_pairs: int, combine=True):
        slot_keys, inverse = (
            np.unique(keys, return_inverse=True) if combine else (keys, np.arange(keys.size))
        )
        dest = part_array(slot_keys)
        order = np.argsort(dest, kind="stable")  # slots keep their order per dest
        # A slot's rank in destination order is where it ships from.
        self.keys, self.size = keys, slot_keys.size
        self.inverse = np.argsort(order)[inverse]
        slot_keys = slot_keys[order]
        self.dests = [
            (q, lo, hi, slot_keys[lo:hi])
            for q, lo, hi in _dest_slices(dest[order], num_pairs)
        ]

    def covers(self, keys: np.ndarray) -> bool:
        return keys is self.keys or np.array_equal(keys, self.keys)


# --------------------------------------------------------------- merge --
def _reduction(merge: str, dtype) -> tuple[np.ufunc, Any]:
    """The numpy twin of a :data:`~repro.imapreduce.accum.FOLDS` entry,
    by the same name: its ufunc and the identity in ``dtype`` its
    accumulators start from."""
    if merge == "sum":
        return np.add, 0
    if merge == "min":
        return np.minimum, np.iinfo(dtype).max if dtype.kind == "i" else np.inf
    raise KernelContractError(f"unknown merge {merge!r}")


def _accum_dtype(kernel, *values) -> np.dtype:
    """An accumulative job's state dtype, fixed once for every pair: the
    kernel's, or — declared ``None`` — the one numpy infers from the
    initial-delta and warm-start ``values`` (float64 when there are
    none), so a pair seeded with none still gets the job's dtype; int64
    and float64 only (the folds' identities are defined for those)."""
    dtype = kernel.state_dtype
    if dtype is None:
        present = [np.asarray(v) for v in values if len(v)]
        dtype = np.result_type(*present) if present else np.float64
    if np.dtype(dtype) not in (np.int64, np.float64):
        raise KernelContractError(f"state values must be int64 or float64, got {dtype}")
    return np.dtype(dtype)


def _fold(merge: str, size: int, batches) -> np.ndarray:
    """The one columnar fold rule: an accumulator of ``size`` rows filled
    with the merge's identity, then ``ufunc.at(acc, idx, vals)`` for each
    ``(idx, vals)`` batch in order — so a float sum adds in arrival
    order, ``((0+a₀)+a₁)+…``, like Python's ``sum``.  ``min`` folds the
    batches, and each batch, backwards: of two equal values (``0.0`` and
    ``-0.0``) ``np.minimum`` keeps the later, Python's ``min`` the
    earlier."""
    if merge == "min":
        batches = [(idx[::-1], vals[::-1]) for idx, vals in reversed(list(batches))]
    acc = None
    for idx, vals in batches:
        vals = _canonical(vals)
        if acc is None:
            ufunc, identity = _reduction(merge, vals.dtype)
            acc = np.full((size,) + vals.shape[1:], identity, dtype=vals.dtype)
        ufunc.at(acc, idx, vals)
    return acc


def _canonical(a: np.ndarray) -> np.ndarray:
    """``a`` viewed with its dtype's canonical instance.  An array
    unpickled from a frame carries a fresh dtype object, which keeps
    ``ufunc.at`` off its fast path (25–30× slower), and indexing and
    ufuncs pass that dtype on to everything computed from the array."""
    return a.view(np.dtype(a.dtype.str))


def _locate(owned_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row of each arriving key in ``owned_keys``; an emission to a key
    outside the owned set violates the closed-universe contract."""
    idx = np.searchsorted(owned_keys, keys)
    clipped = np.minimum(idx, owned_keys.size - 1)
    bad = (idx >= owned_keys.size) | (owned_keys[clipped] != keys)
    if bad.any():
        raise KernelContractError(
            f"kernel emitted to keys outside the owned set: {keys[bad][:5].tolist()}"
        )
    return idx


def _require_covered(owned_keys: np.ndarray, indices: Iterable[np.ndarray]) -> None:
    """Every owned key must receive at least one contribution (all
    bundled kernels self-emit)."""
    present = np.zeros(owned_keys.size, dtype=bool)
    for idx in indices:
        present[idx] = True
    if not present.all():
        raise KernelContractError(
            "owned keys received no contribution: "
            f"{owned_keys[~present][:5].tolist()}"
        )


def merge_columnar(
    kernel: Kernel,
    owned_keys: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The vectorized reduce over *uncombined* batches: fold arriving
    ``(keys, values)`` (already in ascending source-pair order) into an
    accumulator aligned with ``owned_keys``.

    ``sum`` starts from zero and scatters with ``np.add.at``; ``min``
    starts from the dtype's +∞ and uses ``np.minimum.at``.  Every owned
    key must receive at least one contribution (all bundled kernels
    self-emit), and no emission may target a key outside the owned set —
    both violations raise :class:`KernelContractError`.
    :class:`ColumnarSync` enforces the same two rules on its planned
    shuffle; this is the plan-free form of its reduce.
    """
    if not batches:
        raise KernelContractError("no contributions arrived for a non-empty pair")
    all_keys = np.concatenate([b[0] for b in batches])
    all_vals = np.concatenate([b[1] for b in batches])
    idx = _locate(owned_keys, all_keys)
    acc = _fold(kernel.merge, owned_keys.size, [(idx, all_vals)])
    _require_covered(owned_keys, [idx])
    return acc


def concat_broadcast(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the one2all broadcast: concatenate per-pair state in
    ascending pair order, then sort globally by key.  Keys are unique,
    so the stable argsort is fully deterministic — the serial executor
    and the parallel sorter worker produce identical arrays.  An empty
    part is left out: it holds no row, and its dtype — the split's,
    which a kernel's ``finalize`` may have changed on the other pairs —
    must not promote the others'."""
    parts = [p for p in parts if p[0].size] or parts[:1]
    keys = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


# -------------------------------------------- accumulative delta path --
def absorb_columnar(
    merge: str,
    owned_keys: np.ndarray,
    state: np.ndarray,
    pending: np.ndarray,
    active: np.ndarray,
    in_keys: np.ndarray,
    in_values: np.ndarray,
) -> None:
    """Coalesce an arriving delta batch into the dense pending queue
    with the drop rule of an idempotent fold (module docstring of
    :mod:`.accum`): under ``min`` a key stays active only while its
    pending value beats its state.  Only the arriving rows are touched; emissions to keys
    outside the owned set violate the closed-universe contract."""
    if in_keys.size == 0:
        return
    idx = _locate(owned_keys, in_keys)
    _reduction(merge, pending.dtype)[0].at(pending, idx, _canonical(in_values))
    if merge == "min":
        idx = idx[pending[idx] < state[idx]]
    active[idx] = True


def pending_priority(merge: str, state: np.ndarray, pending: np.ndarray) -> np.ndarray:
    """Vectorized impact scores of live pending deltas, ``|state −
    (state ⊕ pending)|`` as float64 (``Fold.priority``, over many keys
    at once).  Under ``min`` a live row's pending value beats its state
    (:func:`absorb_columnar`'s drop rule), so the score is ``state −
    pending``: positive, and ``inf`` for a first offer to an ∞ state —
    the int64 max included."""
    if merge == "sum":
        return np.abs((state + pending) - state).astype(np.float64, copy=False)
    pr = (state - pending).astype(np.float64, copy=False)
    if state.dtype.kind == "i":
        # The int64 max stands in for the record path's ∞ state, where
        # a first offer scores ``inf`` — not ``max − pending``, which
        # would rank unreached keys by their offers.
        pr[state == np.iinfo(state.dtype).max] = np.inf
    return pr


# --------------------------------------------------------- pair executors --
# The columnar pair executors (see :mod:`.engine` for the interface):
# wire items are ``(dest_pair, src_pair, keys, values)``, whose arrays
# ride the mesh's protocol-5 out-of-band buffer frames unpickled.
# :class:`ColumnarSync` ships ``keys=None`` whenever the receiver already
# holds them; the values column is always last and always counted, so
# ``records_sent`` is the number of (key, value) contributions shipped
# whether or not the keys ride along.
class ColumnarSync:
    """Synchronous iterations over per-pair ``(keys, values)`` arrays:
    one ``map_kernel``, one sender-side combine (none if the kernel
    ships uncombined) and one indexed fold per pair per iteration.  Each
    source pair keeps a :class:`ShufflePlan` and each destination pair
    the row index of every source's shipped keys; both are derived from
    the keys alone, rebuilt whenever a kernel's emission keys change
    (keys then ride along for that step) and never checkpointed.  Folds
    run in ascending source-pair order and the broadcast sorts one
    unique key array, so results are bit-equal on every transport.
    Reports decode to records, so the verdict policy is
    layout-agnostic.  A pair's inputs arrive as arrays
    (:meth:`split_inputs`): its state as ``(keys, values)``, a restored
    checkpoint's likewise (:meth:`restore`), and its static table in the
    form the kernel declares."""

    report_lag = 1
    plan = [(SHUFFLE, 0)]
    #: The ``path`` a snapshot of this layout is spooled under.
    layout = "kernel"

    #: job → the kernel this executor runs it with.
    kernel_for = attrgetter("kernel")

    @classmethod
    def split_inputs(cls, job, state_records, static_records, num_pairs: int, part,
                     warm=None):
        """The job's inputs — its state records and ``path → table``
        statics — as ``(per-pair state, [per-pair static table])``
        (``warm`` stays ``None``: a synchronous warm start is its
        state).  The whole state is encoded once
        (:func:`encode_columnar`: the key check, the duplicate refusal,
        one dtype for every pair) and split by :func:`_by_pair`, so each
        pair's keys stay ascending; a pair's state is a view of those
        arrays.  Its one static table is split by :func:`_split_table`."""
        kernel, route = cls.kernel_for(job), job.partitioner.bind_array(num_pairs)
        keys, values = encode_columnar(state_records, kernel.state_dtype, kernel.state_width)
        state_parts = _by_pair(route, num_pairs, keys, values)
        table = _static_table(job, static_records)
        return state_parts, [_split_table(kernel, table, state_parts, part, route)]

    @classmethod
    def restore(cls, snapshot: dict, state_parts: list) -> dict:
        """A spooled :meth:`snapshot` back as pair → ``(keys, values)``:
        the keys are the split's (a pair's never change), the values
        widened back to int64 if they were ints and viewed with the
        canonical dtype."""
        return {p: (state_parts[p][0], _canonical(widen_ints(v)))
                for p, v in snapshot_pairs(snapshot, cls.layout).items()}

    @staticmethod
    def join(parts: list) -> "StateColumns":
        """The pairs' final ``(keys, values)``, in pair order, as the
        job's key-sorted state: one concatenate and one stable argsort
        on the unique int keys (``sort_records``' order)."""
        return StateColumns(*concat_broadcast(parts))

    def __init__(self, cfg, timings: dict):
        job = cfg.job
        kernel = self.kernel = self.kernel_for(job)
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.one2all = job.phases[0].mapping == "one2all"
        self.part_array = job.partitioner.bind_array(cfg.num_pairs)
        self.distance_fn = job.distance_fn
        self.max_steps = job.max_iterations if job.max_iterations is not None else 10**9
        #: source pair → its current shuffle plan.
        self.shuffle_plans: dict[int, ShufflePlan] = {}
        #: dest pair → source pair → rows of the source's keys in ``owned``.
        self.rows: dict[int, dict[int, np.ndarray]] = {p: {} for p in self.pairs}
        #: dest pair → the contributing sources its coverage was judged on.
        self.sources: dict[int, tuple] = {}
        # A restored checkpoint's values come with the keys the
        # coordinator split — loading them back is the ``recover`` phase.
        started = time.perf_counter()
        self.owned: dict[int, np.ndarray] = {}
        self.values: dict[int, np.ndarray] = {}
        for p in self.pairs:
            self.owned[p], self.values[p] = map(_canonical, cfg.state_parts[p])
        timings["recover" if cfg.start_iteration else "kernel"] += (
            time.perf_counter() - started
        )
        started = time.perf_counter()
        self.prepared = {
            p: kernel.prepare(p, self.owned[p], cfg.static_parts[0][p])
            for p in self.pairs
        }
        timings["kernel"] += time.perf_counter() - started
        self.prev = (
            {p: self.values[p].copy() for p in self.pairs}
            if self.distance_fn is not None
            else None
        )

    def broadcast_items(self, phase: int):
        if not self.one2all:
            return None
        return [(p, self.owned[p], self.values[p]) for p in self.pairs]

    def assemble(self, items):
        started = time.perf_counter()
        broadcast = concat_broadcast([(ks, vs) for _p, ks, vs in items])
        self.timings["kernel"] += time.perf_counter() - started
        return broadcast, int(broadcast[0].size)

    def emit(self, kind, phase, broadcast) -> list[tuple]:
        started = time.perf_counter()
        items = []
        for p in self.pairs:
            out_keys, out_vals = self.kernel.map_kernel(
                p, self.owned[p], self.values[p], self.prepared[p], broadcast
            )
            if out_keys.size == 0:
                # Nothing to ship; whatever is emitted next is re-planned.
                self.shuffle_plans.pop(p, None)
                continue
            plan = self.shuffle_plans.get(p)
            replanned = plan is None or not plan.covers(out_keys)
            if replanned:
                plan = self.shuffle_plans[p] = ShufflePlan(
                    out_keys, self.part_array, self.num_pairs, self.kernel.combine
                )
            if self.kernel.combine:
                slots = _fold(self.kernel.merge, plan.size, [(plan.inverse, out_vals)])
            else:
                slots = np.empty_like(out_vals)
                slots[plan.inverse] = out_vals
            for q, lo, hi, keys in plan.dests:
                items.append((q, p, keys if replanned else None, slots[lo:hi]))
        self.timings["kernel"] += time.perf_counter() - started
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        kernel = self.kernel
        for q in self.pairs:
            owned, rows = self.owned[q], self.rows[q]
            if owned.size == 0:
                continue
            items = merged.get(q, ())
            sources = tuple(item[1] for item in items)
            rejudge = sources != self.sources.get(q)
            for _q, src, keys, _vs in items:
                if keys is not None:
                    rows[src] = _locate(owned, keys)
                    rejudge = True
            if rejudge:
                # Both contract checks are functions of the keys alone,
                # so they are re-evaluated exactly when some source's
                # keys, or the set of contributing sources, changed.
                _require_covered(owned, [rows[src] for src in sources])
                self.sources[q] = sources
            acc = _fold(
                kernel.merge, owned.size,
                [(rows[src], vals) for _q, src, _keys, vals in items],
            )
            self.values[q] = kernel.finalize(
                q, owned, acc, self.values[q], self.prepared[q]
            )
        self.timings["kernel"] += time.perf_counter() - started

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        report: dict[str, Any] = {}
        if self.prev is not None:
            partials = {}
            for p in self.pairs:
                partials[p] = (
                    self.kernel.distance_partial(
                        self.owned[p], self.prev[p], self.values[p]
                    )
                    if self.owned[p].size
                    else 0.0
                )
                self.prev[p] = self.values[p].copy()
            report["distance"] = partials
        if send_state:
            cols = self.final_state()
            report["state"] = {p: decode_columnar(*c) for p, c in cols.items()}
        self.timings["report"] += time.perf_counter() - started
        return report

    def snapshot(self) -> dict:
        # Values only, ints narrowed: :meth:`restore` adds the split
        # keys back and widens them.
        return {"path": self.layout,
                "pairs": {p: narrow_ints(v) for p, v in self.values.items()}}

    def final_state(self) -> dict[int, tuple]:
        return {p: (self.owned[p], self.values[p]) for p in self.pairs}

    def final_stats(self) -> dict:
        return {}


class ColumnarAccum:
    """Accumulative (Maiter-mode) rounds over dense per-pair arrays:
    ``state``, the coalesced ``pending`` delta queue and an ``active``
    mask over the owned key universe (static keys ∪ initial-delta keys
    ∪ warm-start keys) — the one accumulative executor, on every host.
    The round protocol — mass before the round, pairs ascending,
    ascending-source absorption — is the same on every transport, so all
    of them agree on ``rounds`` and every work counter.  The async
    schedule drains each pair's top :meth:`fraction` of live keys (the
    seeded simulated host jitters it).  A round's bookkeeping is
    proportional to the live rows: the mass, the refusal and the
    schedule score only the active keys, and each pair absorbs its
    arriving batches in one indexed fold.  A pair's arrays arrive
    built, in the job's one state dtype (:meth:`split_inputs`)."""

    report_lag = 0
    plan = [(SHUFFLE, 0)]
    max_steps = 10**9  # the verdict policy enforces ``max_rounds``
    kernel_for = attrgetter("kernel")
    join = staticmethod(ColumnarSync.join)

    @classmethod
    def split_inputs(cls, job, delta_records, static_records, num_pairs: int, part,
                     warm=None):
        """The job's inputs — its initial deltas, its ``path → table``
        statics and ``warm``, a warm start's preloaded state (a
        :class:`StateColumns`, or ``None``) — as each pair's engine
        arrays ``(owned keys, state, pending, active)`` and static
        table.  The owned universe is formed once, for the whole job, in
        the job's one dtype (:func:`_accum_dtype`); the warm values are
        scattered into the state without marking them pending (a
        preload: nothing propagates from them) and the deltas absorbed
        in record order (:func:`absorb_columnar`, drop rule included)
        before one split (:func:`_by_pair`), so a pair's arrays are
        views of the job's.  Its one static table is split by
        :func:`_split_table`."""
        kernel, table = cls.kernel_for(job), _static_table(job, static_records)
        dk, dv = _split(delta_records)
        wk, wv = ((np.empty(0, np.int64), ()) if warm is None
                  else (warm.key_array, warm.value_array))
        dtype = _accum_dtype(kernel, dv, wv)
        owned = np.unique(np.concatenate([_int_keys(table), dk, wk]))
        state = np.full(owned.size, _reduction(job.fold, dtype)[1], dtype=dtype)
        pending, active = state.copy(), np.zeros(owned.size, dtype=bool)
        state[np.searchsorted(owned, wk)] = np.asarray(wv, dtype=dtype)
        absorb_columnar(job.fold, owned, state, pending, active, dk, np.asarray(dv, dtype=dtype))
        route = job.partitioner.bind_array(num_pairs)
        state_parts = _by_pair(route, num_pairs, owned, state, pending, active)
        return state_parts, [_split_table(kernel, table, state_parts, part, route)]

    def __init__(self, cfg, timings: dict):
        job = cfg.job
        kernel = self.kernel = self.kernel_for(job)
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.mode = cfg.accum_mode
        self.frac = job.top_fraction
        self.part_array = job.partitioner.bind_array(cfg.num_pairs)
        self.updates = self.emitted = self.shipped = 0
        started = time.perf_counter()
        self.fold = job.fold
        self.owned, self.state, self.pending, self.active = {}, {}, {}, {}
        for p in self.pairs:
            self.owned[p], self.state[p], self.pending[p], self.active[p] = map(
                _canonical, cfg.state_parts[p])
        self.ufunc, self.identity = _reduction(self.fold, self.state[self.pairs[0]].dtype)
        self.prepared = {
            p: kernel.prepare(p, self.owned[p], cfg.static_parts[0][p]) for p in self.pairs
        }
        timings["kernel"] += time.perf_counter() - started

    def broadcast_items(self, phase: int):
        return None

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        self.live = {}  # pair → (its active rows ascending, their priorities)
        masses = {}
        for p in self.pairs:
            act = np.flatnonzero(self.active[p])
            pr = pending_priority(self.fold, self.state[p][act], self.pending[p][act])
            self.live[p] = act, pr
            masses[p] = fold_mass(pr.tolist())
            if not masses[p] >= 0:  # a NaN priority: the mass check could never fire
                i = np.flatnonzero(np.isnan(pr))[0]
                raise bad_priority(self.fold, int(self.owned[p][act[i]]), float(pr[i]))
        self.timings["schedule"] += time.perf_counter() - started
        return {
            "mass": masses,
            "updates": self.updates,
            "emitted": self.emitted,
            "shipped": self.shipped,
        }

    def fraction(self, pair: int) -> float:
        """The top-priority fraction ``pair`` drains this round (async)."""
        return self.frac

    def _select(self, p: int) -> np.ndarray:
        act, pr = self.live[p]
        if self.mode == "sync":
            return act
        # Asked of every pair, an idle one too: the simulated host's
        # jitter draws once per pair per round.
        frac = self.fraction(p)
        live = np.flatnonzero(pr > 0)
        count = max(1, math.ceil(frac * live.size))
        # Stable argsort over −priority: ties keep ascending key order.
        return act[live[np.argsort(-pr[live], kind="stable")[:count]]]

    def emit(self, kind, phase, broadcast) -> list[tuple]:
        kernel, perf = self.kernel, time.perf_counter
        items = []
        for p in self.pairs:
            started = perf()
            idx = self._select(p)
            self.timings["schedule"] += perf() - started
            if idx.size == 0:
                continue
            started = perf()
            state, pending = self.state[p], self.pending[p]
            d = pending[idx]
            old = state[idx]
            merged = self.ufunc(old, d)
            state[idx] = merged
            pending[idx] = self.identity
            self.active[p][idx] = False
            self.updates += int(idx.size)
            changed = merged != old
            if changed.any():
                out_keys, out_vals = kernel.emit_deltas(
                    p, self.owned[p], idx[changed], d[changed], merged[changed],
                    self.prepared[p],
                )
                self.emitted += int(out_keys.size)
                for q, ks, vs in route_columnar(
                    out_keys, out_vals, self.part_array, self.num_pairs
                ):
                    items.append((q, p, ks, vs))
                    if q != p:
                        self.shipped += int(ks.size)
            self.timings["delta"] += perf() - started
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        for q in self.pairs:
            items = merged.get(q, ())
            if not items:
                continue
            # One indexed fold over the batches in ascending source-pair
            # order: ``ufunc.at`` applies in index order, so a ``sum``
            # adds in the sequence batch-by-batch folds would.
            absorb_columnar(self.fold, self.owned[q], self.state[q],
                            self.pending[q], self.active[q],
                            np.concatenate([item[2] for item in items]),
                            np.concatenate([item[3] for item in items]))
        self.timings["delta"] += time.perf_counter() - started

    def final_state(self) -> dict[int, tuple]:
        return {p: (self.owned[p], self.state[p]) for p in self.pairs}

    def final_stats(self) -> dict:
        return {
            "updates_processed": self.updates,
            "deltas_emitted": self.emitted,
            "deltas_shipped": self.shipped,
        }
