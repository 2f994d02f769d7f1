"""Columnar execution path: vectorized per-pair kernels.

The record-level executors (:func:`~repro.imapreduce.localrun.run_local`
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
  iterations (§3.2.1 — the static data is never touched again);
* ``map_kernel(pair, keys, values, prepared, broadcast)`` returns the
  pair's whole emission set as ``(out_keys, out_values)`` arrays;
* emissions are combined at the sender and folded at the owning pair
  along a cached **shuffle plan** (below) — the reduce;
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
:class:`ShufflePlan`: one ``lexsort`` by (destination, key), the
``reduceat`` run starts of the distinct keys and each destination's
slice.  A steady-state iteration is then ``map_kernel`` →
``ufunc.reduceat`` (the §5 combiner: one value per key leaves the pair)
→ wire items ``(dest_pair, src_pair, None, values)``.  The receiving
pair caches, per source, the row of each shipped key in its owned array,
and folds ``acc[rows] ⊕= values`` source by source.

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
spool file's arrays.  The two contract
checks — no emission outside the destination's owned set, every owned
key covered — are functions of the keys too, and are evaluated when keys
arrive or the set of contributing sources changes: once per distinct
key array, which enforces exactly what checking every step did.
:func:`route_columnar` and :func:`merge_columnar` remain as the
plan-free forms (dynamic delta batches, and the reference the plan is
tested against).

Dispatch rules (:func:`~repro.imapreduce.localrun.select_executor`):
the job must carry a kernel, have exactly one phase, no aux phase, a
partitioner with ``bind_array``, and the phase mapping must match the
kernel's ``needs_broadcast``.  Anything else falls back to the record
executor — with the reason — on every backend, so all backends always
agree on which path runs.  The two columnar pair executors at the end
of this module (:class:`ColumnarSync`, :class:`ColumnarAccum`) are what
the shared superstep driver runs, serially and on the mesh alike.

Float-ordering caveat
---------------------

``min`` merges are order-independent, so sssp/components kernels are
*bit-exact* against the record path.  ``sum`` merges reorder the float
additions — the planned shuffle sums each (source pair, key) run first
(``np.add.reduceat``, in emission order) and then adds those partials
in ascending source-pair order at the receiver, the record path sums in
``group_by_key`` emission order — so summation kernels are compared
with a tolerance oracle.  The worst-case error of summing ``n`` floats
in any order is bounded by ``(n-1)·eps·Σ|xᵢ|`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, §4.2); with ``eps = 2⁻⁵³`` and the
bench-scale fan-ins (n ≲ 10⁵, values ≲ 1) that is ≲ 10⁻¹¹ absolute —
six orders under the differential oracle's 1e-6 relative tolerance.
Kernel-serial vs kernel-parallel stays bit-exact: the same executor
builds the same plans and folds in the same ascending source-pair
order on both transports.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable

import numpy as np

from ..common.errors import JobError
from .engine import SHUFFLE

__all__ = [
    "Kernel",
    "AccumKernel",
    "KernelContractError",
    "encode_columnar",
    "decode_columnar",
    "route_columnar",
    "merge_columnar",
    "absorb_columnar",
    "pending_priority",
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

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table: dict):
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
    key set: ``state`` (starts at ``identity``), ``pending`` (the
    coalesced delta queue, also at ``identity``) and an ``active``
    boolean mask marking keys that currently hold a pending delta.
    Per round the executor scores pending deltas vectorized
    (:func:`pending_priority`), selects the top-priority fraction,
    applies them with one elementwise merge, and asks the kernel for
    the emissions of the *changed* subset.

    Like :class:`Kernel`, subclasses ship inside the job pickle — keep
    them plain and picklable.  The algebra laws are still validated at
    build time through the job's record-level :class:`Accumulator`; a
    kernel must implement the same merge ("sum"/"min") it declares.
    """

    #: ``"sum"`` (elementwise add) or ``"min"`` (elementwise minimum).
    merge = "sum"
    #: dtype of the state/pending arrays.
    state_dtype = "float64"
    #: The algebra identity in this dtype (``np.inf`` or the int64 max
    #: sentinel for ``min``; 0 for ``sum``).
    identity: Any = 0.0

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table: dict):
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
    admits Python ints only (a bool or float would silently alias one)."""
    keys = list(keys)
    for k in keys:
        if isinstance(k, bool) or not isinstance(k, int):
            raise KernelContractError(
                f"columnar keys must be ints, got {type(k).__name__}"
            )
    return np.array(keys, dtype=np.int64)


def encode_columnar(
    records: Iterable[tuple[int, Any]],
    dtype: str = "float64",
    width: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Records → ``(keys, values)`` arrays sorted by key.

    ``width == 0`` encodes scalar values into shape ``(n,)``; otherwise
    each value must be a length-``width`` vector and the result is
    ``(n, width)``.  Keys must be Python ints (the columnar contract).
    """
    recs = list(records)
    n = len(recs)
    keys = _int_keys(k for k, _v in recs)
    values = np.array([v for _k, v in recs], dtype=dtype).reshape(
        (n, width) if width else (n,)
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if n > 1 and (keys[1:] == keys[:-1]).any():
        raise KernelContractError("duplicate keys in columnar state")
    return keys, values[order]


def decode_columnar(
    keys: np.ndarray, values: np.ndarray
) -> list[tuple[int, Any]]:
    """``(keys, values)`` → records with the record path's value types:
    Python ints/floats for scalar state, per-row ndarray copies for
    vector state (what the record-path reducers emit)."""
    if values.ndim == 1:
        if values.dtype.kind == "i":
            return [(int(k), int(v)) for k, v in zip(keys.tolist(), values.tolist())]
        return [(int(k), float(v)) for k, v in zip(keys.tolist(), values.tolist())]
    return [(int(k), values[i].copy()) for i, k in enumerate(keys.tolist())]


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

    ``order`` sorts the emission by (destination, key) — ``lexsort`` is
    stable, so duplicates of a key keep emission order; ``starts`` opens
    each distinct key's run for ``ufunc.reduceat`` (the §5 combiner: one
    value per key leaves the pair); ``dests`` holds, per non-empty
    destination, its slice of the combined values and the distinct
    ascending keys that slice is aligned with.
    """

    __slots__ = ("keys", "order", "starts", "dests")

    def __init__(self, keys: np.ndarray, part_array, num_pairs: int):
        dest = part_array(keys)
        order = np.lexsort((keys, dest))
        ordered = keys[order]
        opens = np.ones(keys.size, dtype=bool)
        opens[1:] = ordered[1:] != ordered[:-1]  # a key has one destination
        starts = np.flatnonzero(opens)
        distinct = ordered[starts]
        self.keys, self.order, self.starts = keys, order, starts
        self.dests = [
            (q, lo, hi, distinct[lo:hi])
            for q, lo, hi in _dest_slices(dest[order][starts], num_pairs)
        ]

    def covers(self, keys: np.ndarray) -> bool:
        return keys is self.keys or np.array_equal(keys, self.keys)


# --------------------------------------------------------------- merge --
def _reduction(merge: str, dtype) -> tuple[np.ufunc, Any]:
    """The merge's ufunc and the identity its accumulators start from."""
    if merge == "sum":
        return np.add, 0
    if merge == "min":
        return np.minimum, np.iinfo(dtype).max if dtype.kind == "i" else np.inf
    raise KernelContractError(f"unknown merge {merge!r}")


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
    ufunc, identity = _reduction(kernel.merge, all_vals.dtype)
    acc = np.full(
        (owned_keys.size,) + all_vals.shape[1:], identity, dtype=all_vals.dtype
    )
    ufunc.at(acc, idx, all_vals)
    _require_covered(owned_keys, [idx])
    return acc


def concat_broadcast(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the one2all broadcast: concatenate per-pair state in
    ascending pair order, then sort globally by key.  Keys are unique,
    so the stable argsort is fully deterministic — the serial executor
    and the parallel sorter worker produce identical arrays."""
    keys = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


# -------------------------------------------- accumulative delta path --
def absorb_columnar(
    merge: str,
    owned_keys: np.ndarray,
    pending: np.ndarray,
    active: np.ndarray,
    in_keys: np.ndarray,
    in_values: np.ndarray,
) -> None:
    """Coalesce an arriving delta batch into the dense pending queue
    (the vectorized twin of ``AccumPair.absorb``).  Emissions to keys
    outside the owned set violate the closed-universe contract."""
    if in_keys.size == 0:
        return
    idx = _locate(owned_keys, in_keys)
    _reduction(merge, pending.dtype)[0].at(pending, idx, in_values)
    active[idx] = True


def pending_priority(
    merge: str,
    state: np.ndarray,
    pending: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Vectorized impact scores: ``|state − (state ⊕ pending)|`` as
    float64, 0 where no delta is pending (``Accumulator.priority``'s
    default, over the whole pair at once)."""
    if merge == "sum":
        pr = np.abs((state + pending) - state)
    else:
        merged = np.minimum(state, pending)
        improves = state > merged
        with np.errstate(invalid="ignore"):
            # np.where evaluates both branches: inf − inf is masked out.
            pr = np.where(improves, state - merged, 0)
    pr = pr.astype(np.float64, copy=False)
    return np.where(active, pr, 0.0)


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
    one ``map_kernel``, one sender-side combine and one indexed fold per
    pair per iteration.  Each source pair keeps a :class:`ShufflePlan`
    and each destination pair the row index of every source's shipped
    keys; both are derived from the keys alone, rebuilt whenever a
    kernel's emission keys change (keys then ride along for that step)
    and never checkpointed.  Folds run in ascending source-pair order
    and the broadcast sorts one unique key array, so results are
    bit-equal on every transport.  Reports decode to records, so the
    verdict policy is layout-agnostic."""

    report_lag = 1
    plan = [(SHUFFLE, 0)]

    def __init__(self, cfg, timings: dict):
        job = cfg.job
        kernel = self.kernel = job.kernel
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
        # A restored checkpoint already holds the encoded arrays —
        # loading them back is the ``recover`` phase.
        started = time.perf_counter()
        self.owned: dict[int, np.ndarray] = {}
        self.values: dict[int, np.ndarray] = {}
        for p in self.pairs:
            self.owned[p], self.values[p] = (
                cfg.state_parts[p]
                if cfg.columnar_state
                else encode_columnar(
                    cfg.state_parts[p], kernel.state_dtype, kernel.state_width
                )
            )
        timings["recover" if cfg.columnar_state else "kernel"] += (
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
                    out_keys, self.part_array, self.num_pairs
                )
            ufunc = _reduction(self.kernel.merge, out_vals.dtype)[0]
            combined = ufunc.reduceat(out_vals[plan.order], plan.starts, axis=0)
            for q, lo, hi, keys in plan.dests:
                items.append((q, p, keys if replanned else None, combined[lo:hi]))
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
            first = items[0][3]
            ufunc, identity = _reduction(kernel.merge, first.dtype)
            acc = np.full((owned.size,) + first.shape[1:], identity, dtype=first.dtype)
            for _q, src, _keys, vals in items:
                # Rows are distinct within a source (the sender combined),
                # so a plain indexed update folds exactly.
                idx = rows[src]
                acc[idx] = ufunc(acc[idx], vals)
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
            report["state"] = self.final_state()
        self.timings["report"] += time.perf_counter() - started
        return report

    def snapshot(self) -> dict:
        return {
            "path": "kernel",
            "pairs": {p: (self.owned[p], self.values[p]) for p in self.pairs},
        }

    def final_state(self) -> dict[int, list]:
        return {p: decode_columnar(self.owned[p], self.values[p]) for p in self.pairs}

    def final_stats(self) -> dict:
        return {"route_cache_size": 0}  # no per-key routing on this path


class ColumnarAccum:
    """Accumulative (Maiter-mode) rounds over dense per-pair arrays:
    ``state``, the coalesced ``pending`` delta queue and an ``active``
    mask over the owned key universe (static keys ∪ initial-delta keys
    ∪ warm-start keys).  The round protocol is the record executor's —
    mass before the round, pairs ascending, ascending-source absorption
    — so both layouts and both transports agree on ``rounds`` and every
    work counter."""

    report_lag = 0
    plan = [(SHUFFLE, 0)]
    max_steps = 10**9  # the verdict policy enforces ``max_rounds``

    def __init__(self, cfg, timings: dict):
        job = cfg.job
        kernel = self.kernel = job.kernel
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.mode = cfg.accum_mode
        self.frac = job.top_fraction
        self.part_array = job.partitioner.bind_array(cfg.num_pairs)
        self.updates = self.emitted = self.shipped = 0
        started = time.perf_counter()
        merge, dtype = kernel.merge, np.dtype(kernel.state_dtype)
        warm = cfg.accum_initial_state or {}
        self.owned, self.state, self.pending, self.active = {}, {}, {}, {}
        self.prepared = {}
        for p in self.pairs:
            table, deltas = cfg.static_parts[0][p], cfg.state_parts[p]
            preload = warm.get(p) or ()
            ks = np.sort(_int_keys(
                {*table, *(k for k, _d in deltas), *(k for k, _v in preload)}
            ))
            self.owned[p] = ks
            self.state[p] = np.full(ks.size, kernel.identity, dtype=dtype)
            self.pending[p] = np.full(ks.size, kernel.identity, dtype=dtype)
            self.active[p] = np.zeros(ks.size, dtype=bool)
            if preload:
                # Memoized values are scattered in without marking them
                # pending — the record engine's preload semantics.
                wk = np.array([k for k, _v in preload], dtype=np.int64)
                wv = np.array([v for _k, v in preload], dtype=dtype)
                self.state[p][np.searchsorted(ks, wk)] = wv
            if deltas:
                dk = np.array([k for k, _d in deltas], dtype=np.int64)
                dv = np.array([d for _k, d in deltas], dtype=dtype)
                absorb_columnar(merge, ks, self.pending[p], self.active[p], dk, dv)
            self.prepared[p] = kernel.prepare(p, ks, table)
        timings["kernel"] += time.perf_counter() - started

    def broadcast_items(self, phase: int):
        return None

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        self.priorities = {
            p: pending_priority(
                self.kernel.merge, self.state[p], self.pending[p], self.active[p]
            )
            for p in self.pairs
        }
        masses = {p: float(self.priorities[p].sum()) for p in self.pairs}
        self.timings["schedule"] += time.perf_counter() - started
        return {
            "mass": masses,
            "updates": self.updates,
            "emitted": self.emitted,
            "shipped": self.shipped,
        }

    def _select(self, p: int) -> np.ndarray:
        if self.mode == "sync":
            return np.flatnonzero(self.active[p])
        pr = self.priorities[p]
        act = np.flatnonzero(pr > 0)
        if act.size == 0:
            return act
        count = max(1, math.ceil(self.frac * act.size))
        # Stable argsort over −priority: ties keep ascending key order —
        # the record scheduler's exact tie-break.
        return act[np.argsort(-pr[act], kind="stable")[:count]]

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
            d = pending[idx].copy()
            old = state[idx]
            merged = old + d if kernel.merge == "sum" else np.minimum(old, d)
            state[idx] = merged
            pending[idx] = kernel.identity
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
            for _q, _src, ks, vs in merged.get(q, ()):
                absorb_columnar(
                    self.kernel.merge, self.owned[q], self.pending[q],
                    self.active[q], ks, vs,
                )
        self.timings["delta"] += time.perf_counter() - started

    def final_state(self) -> dict[int, list]:
        return {p: decode_columnar(self.owned[p], self.state[p]) for p in self.pairs}

    def final_stats(self) -> dict:
        return {
            "updates_processed": self.updates,
            "deltas_emitted": self.emitted,
            "deltas_shipped": self.shipped,
        }
