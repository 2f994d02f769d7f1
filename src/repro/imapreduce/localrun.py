"""In-process hosts, the record-layout sync executor, and executor
selection.

:func:`host_loopback` hosts every pair in this process and drives
:func:`~repro.imapreduce.engine.run_supersteps` over the loopback
transport (:func:`host_simulated`: over the seeded deferring one) — the
hosts of :func:`~repro.imapreduce.plan.execute`'s serial and simulated
cells.  A serial run (``run_local``, ``run_accum_local``) therefore has
the exact same job semantics as the distributed engine — same
partitioning, same join, same phase chaining, same termination rules.
Its uses:

* a correctness oracle: the distributed engine's final state must equal
  this executor's, record for record (tests assert it);
* a zero-setup way for library users to run an iterative job on small
  data (the quickstart example);
* the single-core baseline the wall-clock benchmarks compare
  ``run_parallel`` against.

The multiprocess backend drives the same executors through the same
driver over the pipe mesh, so it executes byte-for-byte the same
user-code path (:func:`run_map`, ``group_by_dest``, an accumulative
job's ``update_fn`` through :class:`UpdateKernel`) and its
differential oracle can demand record-for-record equality.  The
simulated cluster's persistent tasks (:mod:`.runtime`) compute with the same functions — :func:`run_map`,
``group_by_dest``, :func:`reduce_groups`, :func:`route_columns`,
:func:`distance_partial` — so its results equal them bit for bit as
well; the Hadoop baseline's tasks (:mod:`repro.mapreduce.runtime`) use
:func:`route_columns` and :func:`reduce_groups` too.
:func:`select_executor` is the one dispatch rule;
:func:`~repro.imapreduce.plan.execute` applies it once per run and
hands the class to the host.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..common.errors import ConfigError
from ..common.partition import bind_partitioner
from ..common.records import group_by_dest, order_key, sort_records
from ..mapreduce.api import Context
from .accum import AccumJob, partition_state, partition_table
from .checkpoint import snapshot_pairs
from .columnar import AccumKernel, ColumnarAccum, ColumnarSync, Kernel, KernelContractError
from .engine import (
    REPART,
    SHUFFLE,
    DeferringLoopback,
    Loopback,
    host_config,
    run_supersteps,
)
from .job import Phase

__all__ = [
    "LocalRunResult",
    "host_loopback",
    "host_simulated",
    "map_pair",
    "order_key",
    "select_executor",
]


@dataclass
class LocalRunResult:
    """Outcome of a serial run."""

    state: list[tuple[Any, Any]]
    iterations_run: int
    converged: bool
    terminated_by: str
    distances: list[float | None] = field(default_factory=list)
    #: State snapshots per iteration (only if ``keep_history=True``).
    history: list[list[tuple[Any, Any]]] = field(default_factory=list)
    #: One entry, in the multiprocess workers' vocabulary (same keys and
    #: ``phase_seconds``; the transport counters are zero).
    worker_stats: list[dict] = field(default_factory=list)

    def state_dict(self) -> dict:
        return dict(self.state)


def run_map(
    phase: Phase,
    records: list[tuple[Any, Any]],
    static: dict,
    static_sorted: list[tuple[Any, Any]] | None,
    broadcast: list | None,
) -> tuple[list, list]:
    """One pair's map task for one phase, before any combiner: its raw
    emissions as ``(keys, values)`` columns.  ``static_sorted``/
    ``broadcast`` are set for one2all phases."""
    ctx = Context()
    if broadcast is not None:
        for key, static_value in static_sorted or ():
            phase.map_fn(key, broadcast, static_value, ctx)
    else:
        static_get = static.get
        for key, state_value in records:
            phase.map_fn(key, state_value, static_get(key), ctx)
    return ctx.take_columns()


def reduce_groups(fn, grouped) -> Iterable[tuple[Any, tuple[list, list]]]:
    """Run a combiner or reducer over ``(destination, groups)`` — what
    :func:`~repro.common.records.group_by_dest` yields — giving
    ``(destination, its output's (keys, values))``: a combiner's output
    stays in the partition it was grouped for."""
    # One Context reused across all destinations: each take drains the
    # buffer between them, and no combiner reads the context counters.
    ctx = Context()
    for dest, groups in grouped:
        for key, values in groups:
            fn(key, values, ctx)
        yield dest, ctx.take_columns()


def distance_partial(distance_fn, prev: dict, records) -> tuple[float, dict]:
    """One pair's distance partial (§3.1.2): ``distance_fn(key, previous
    value, value)`` summed in record order from ``0.0``, and the table
    the next partial compares against — built in the same pass."""
    prev_get = prev.get
    partial = 0.0
    new_prev = {}
    for key, value in records:
        partial += distance_fn(key, prev_get(key), value)
        new_prev[key] = value
    return partial, new_prev


def route_columns(keys: list, values: list, part) -> dict[int, tuple[list, list]]:
    """``destination → (keys, values)`` by ``part(key)``, destinations in
    order of first appearance, emission order within each."""
    routed: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for key, value in zip(keys, values):
        dest_keys, dest_values = routed[part(key)]
        dest_keys.append(key)
        dest_values.append(value)
    return routed


def map_pair(
    phase: Phase,
    records: list[tuple[Any, Any]],
    static: dict,
    static_sorted: list[tuple[Any, Any]] | None,
    broadcast: list | None,
    part: Callable[[Any], int],
) -> list[tuple[Any, Any]]:
    """:func:`run_map` plus the combine; returns the pair's emissions as
    one flat list, destinations in order of first appearance.

    ``part`` is the pre-bound partitioner (combiner grouping only).
    :class:`RecordSync`'s column exchange must equal this record for
    record *and in order* — the tests' reference and the benchmark's
    probe, not what the executor calls.
    """
    emitted = list(zip(*run_map(phase, records, static, static_sorted, broadcast)))
    if phase.combiner is not None:
        grouped = group_by_dest(emitted, part)
        emitted = [
            rec for _q, out in reduce_groups(phase.combiner, grouped) for rec in zip(*out)
        ]
    return emitted


def sorted_static(static: dict) -> list[tuple[Any, Any]]:
    """The one2all map's iteration order over a static partition."""
    return sort_records(static.items())


# ---------------------------------------------------------- pair executor --
# The record-layout pair executor (see :mod:`.engine` for the interface
# and its wire items).
class RecordSync:
    """Synchronous iterations over per-pair record lists: one
    :func:`run_map`, one combine and one reduce per pair per phase
    (§3.1), both over ``group_by_dest``'s grouping; a non-final
    phase's reduce output is repartitioned to the next phase's maps
    (§5.2).  Emissions move as ``(keys, values)`` columns from the map
    to the reduce; state (``current``) is ``(key, value)`` records."""

    report_lag = 1
    #: The ``path`` a snapshot of this layout is spooled under.
    layout = "record"

    @classmethod
    def split_inputs(cls, job, state_records, static_records, num_pairs: int, part,
                     warm=None):
        """The job's state records and the table at each of
        ``job.static_paths`` (one per phase), split by ``part`` with one
        loop each — one insertion order on every backend (``warm`` stays
        ``None``: a synchronous warm start is its state)."""
        return partition_state(state_records, num_pairs, part), [
            partition_table(dict((static_records or {}).get(path or "", {})), num_pairs, part)
            for path in job.static_paths]

    @classmethod
    def restore(cls, snapshot: dict, state_parts: list) -> dict:
        """A spooled :meth:`snapshot`'s pair → records, as they are."""
        return snapshot_pairs(snapshot, cls.layout)

    @staticmethod
    def join(parts: list) -> list:
        """The pairs' final records merged into one key-sorted list."""
        return sort_records(rec for part in parts for rec in part)

    def __init__(self, cfg, timings: dict):
        job = cfg.job
        self.phases = phases = job.phases
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.part = bind_partitioner(job.partitioner, cfg.num_pairs)
        self.distance_fn = job.distance_fn
        self.max_steps = job.max_iterations if job.max_iterations is not None else 10**9
        self.static = cfg.static_parts
        # The one2all map iterates its static partition in sorted order;
        # sorted once here, not per iteration.
        self.static_sorted = [
            {p: sorted_static(per_pair[p]) for p in self.pairs}
            if phase.mapping == "one2all"
            else None
            for phase, per_pair in zip(phases, cfg.static_parts)
        ]
        self.last = len(phases) - 1
        # Multi-phase routing (§5.2): every phase but the last hands its
        # reduce output to the next phase's maps across the transport.
        self.plan = [
            hop
            for i in range(len(phases))
            for hop in ((SHUFFLE, i), (REPART, i))
            if hop != (REPART, self.last)
        ]
        # State load: the initial partitions, or — after a recovery
        # respawn — the restored checkpoint's records.  The distance
        # baseline ``prev`` is rebuilt from the same snapshot, which is
        # exact: at the start of iteration k+1 ``prev`` is precisely the
        # state at the end of iteration k, i.e. what the checkpoint holds.
        started = time.perf_counter()
        self.current = dict(cfg.state_parts)
        # Previous-iteration lookup tables exist only when a distance is
        # measured.  One dict per pair: a key's partition never changes.
        self.prev = (
            {p: dict(recs) for p, recs in self.current.items()}
            if self.distance_fn is not None
            else None
        )
        if cfg.start_iteration:
            timings["recover"] += time.perf_counter() - started

    def broadcast_items(self, phase: int):
        if self.phases[phase].mapping != "one2all":
            return None
        return [(p, self.current[p]) for p in self.pairs]

    def assemble(self, items):
        started = time.perf_counter()
        broadcast = sort_records(rec for _p, recs in items for rec in recs)
        self.timings["map"] += time.perf_counter() - started
        return broadcast, len(broadcast)

    def emit(self, kind, phase, broadcast) -> list[tuple]:
        phase_sorted = self.static_sorted[phase]
        combiner = self.phases[phase].combiner if kind == SHUFFLE else None
        items = []
        # One running clock, so the time between two charges — the
        # release of the previous pair's columns, say — is somebody's.
        clock = time.perf_counter()
        for p in self.pairs:
            if kind == REPART:
                keys, values = self.reduced.pop(p)
            else:
                keys, values = run_map(
                    self.phases[phase],
                    self.current[p],
                    self.static[phase][p],
                    phase_sorted[p] if phase_sorted is not None else None,
                    broadcast,
                )
            if combiner is None:
                routed = route_columns(keys, values, self.part)
                items.extend((q, p, ks, vs) for q, (ks, vs) in routed.items())
            mapped = time.perf_counter()
            self.timings["map"] += mapped - clock
            clock = mapped
            if combiner is not None:
                # The output is already per destination: nothing
                # re-partitions it.
                grouped = group_by_dest(zip(keys, values), self.part)
                items.extend(
                    (q, p, ks, vs) for q, (ks, vs) in reduce_groups(combiner, grouped) if ks
                )
                clock = time.perf_counter()
                self.timings["combine"] += clock - mapped
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        reduce_fn = self.phases[phase].reduce_fn
        out = {}
        for q in self.pairs:
            keys: list = []
            values: list = []
            for _q, _src, ks, vs in merged.pop(q, ()):
                keys += ks
                values += vs
            if kind == SHUFFLE:
                grouped = group_by_dest(zip(keys, values))
                ((_none, (keys, values)),) = reduce_groups(reduce_fn, grouped)
            out[q] = keys, values
        if kind == REPART or phase == self.last:
            # Persistent pair channel: reduce k's output is map k+1's
            # input for the same pair, never leaving this host.
            self.current = {q: list(zip(*columns)) for q, columns in out.items()}
        else:
            self.reduced = out
        self.timings["reduce"] += time.perf_counter() - started

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        report: dict[str, Any] = {}
        if self.prev is not None:
            partials = {}
            for p in self.pairs:
                partials[p], self.prev[p] = distance_partial(
                    self.distance_fn, self.prev[p], self.current[p]
                )
            report["distance"] = partials
        if send_state:
            report["state"] = self.final_state()
        self.timings["report"] += time.perf_counter() - started
        return report

    def snapshot(self) -> dict:
        return {"path": self.layout, "pairs": self.final_state()}

    def final_state(self) -> dict[int, list]:
        return {p: self.current[p] for p in self.pairs}

    def final_stats(self) -> dict:
        return {}


def _emission_columns(keys: list, values: list, state: np.ndarray):
    """A kernel-less job's emitted ``keys``/``values`` lists as columns:
    int64 keys (a float key would be truncated onto an int one) and
    values numpy infers as the ``state`` array's own dtype."""
    out_keys = np.array(keys) if keys else np.empty(0, np.int64)
    out_values = np.array(values) if values else state[:0]
    if out_keys.dtype != np.int64:
        raise KernelContractError(f"columnar keys must be ints, got {out_keys.dtype} keys")
    if out_values.dtype != state.dtype:
        raise KernelContractError(
            f"the job emits {out_values.dtype} values into {state.dtype} state")
    return out_keys, out_values


class FoldKernel(Kernel):
    """The kernel :class:`~repro.imapreduce.columnar.ColumnarSync` runs a
    kernel-less job with, once its phase declares a fold: the record
    map (:func:`run_map`) over the pair's state, the fold as the merge
    and :func:`distance_partial` over the key-ascending state — the
    record path's own steps, so the run is the record run bit for bit.
    A ``sum`` fold without a combiner is not combined at the sender: the
    receiver adds each key's raw emissions in ascending source pair,
    then emission order, as the record reducer does.  The state dtype is
    the one numpy infers from the state values; emitted values must
    infer the same one, and emitted keys int64."""

    state_dtype = None

    def __init__(self, job):
        phase = job.phases[0]
        self.job, self.merge = job, phase.fold
        self.combine = phase.fold != "sum" or phase.combiner is not None

    def prepare(self, pair, owned_keys, static_table):
        return static_table

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        return _emission_columns(*run_map(
            self.job.phases[0], zip(keys.tolist(), values.tolist()), prepared, None, None),
            values)

    def distance_partial(self, keys, prev, curr):
        keys = keys.tolist()
        return distance_partial(
            self.job.distance_fn, dict(zip(keys, prev.tolist())), zip(keys, curr.tolist()))[0]


class FoldSync(ColumnarSync):
    """:class:`~repro.imapreduce.columnar.ColumnarSync` over a declared
    fold's :class:`FoldKernel`."""

    kernel_for = FoldKernel


class UpdateKernel(AccumKernel):
    """The kernel :class:`~repro.imapreduce.columnar.ColumnarAccum` runs
    a kernel-less accumulative job with: the job's own ``update_fn``,
    called once per changed row in ``idx`` (application) order with the
    delta, the post-merge state and the key's static value — the update
    rule :class:`~repro.imapreduce.accum.AccumJob` documents.  The state
    dtype is the one numpy infers from each pair's initial-delta and
    warm-start values (float64 when there are none); emitted values must
    infer the same one, and emitted keys int64."""

    state_dtype = None

    def __init__(self, job):
        self.update = job.update_fn

    def prepare(self, pair, owned_keys, static_table):
        return static_table

    def emit_deltas(self, pair, owned_keys, idx, deltas, states, prepared):
        keys: list = []
        values: list = []

        def emit(dest, delta):
            keys.append(dest)
            values.append(delta)

        update, static_get = self.update, prepared.get
        for k, d, s in zip(owned_keys[idx].tolist(), deltas.tolist(), states.tolist()):
            update(k, d, s, static_get(k), emit)
        return _emission_columns(keys, values, states)


class UpdateAccum(ColumnarAccum):
    """:class:`~repro.imapreduce.columnar.ColumnarAccum` over a
    kernel-less job's :class:`UpdateKernel`."""

    kernel_for = UpdateKernel


# -------------------------------------------------------------- selection --
def select_executor(job) -> tuple[type, str | None]:
    """``(pair executor class, why no columnar executor runs)``.

    :func:`~repro.imapreduce.plan.execute` calls it once per run and
    hands the class to the host, and the mesh host to every worker, so
    they cannot disagree on the path; the reason is ``None`` exactly
    when a columnar executor runs.
    An accumulative job always runs :class:`~repro.imapreduce.columnar.
    ColumnarAccum` — with its kernel or, kernel-less, through its own
    ``update_fn`` (:class:`UpdateAccum`) — and is refused with a
    :class:`~repro.common.errors.ConfigError` when its partitioner has no
    ``bind_array`` or its kernel is not an ``AccumKernel``; its keys must
    be ints and its key universe closed (every emission targets a
    static-table or initial-delta key).  A synchronous job runs columnar
    with its kernel or, kernel-less, with its one phase's declared fold
    (:class:`FoldSync`); anything a kernel does not support falls back
    to the record executor and says why.
    """
    kernel = getattr(job, "kernel", None)
    if isinstance(job, AccumJob):
        if getattr(job.partitioner, "bind_array", None) is None:
            raise ConfigError(
                f"job {job.name!r}: partitioner {type(job.partitioner).__name__} has no "
                "bind_array; an accumulative job runs columnar")
        if kernel is None:
            return UpdateAccum, None
        if not isinstance(kernel, AccumKernel):
            raise ConfigError(
                f"job {job.name!r}: kernel {type(kernel).__name__} is not an AccumKernel")
        return ColumnarAccum, None
    columnar = ColumnarSync
    if kernel is None and job.phases[0].fold is not None:
        kernel, columnar = FoldKernel, FoldSync  # the class answers the checks below
    if kernel is None:
        return RecordSync, "no kernel"
    if getattr(job.partitioner, "bind_array", None) is None:
        return RecordSync, "partitioner has no bind_array"
    if len(job.phases) != 1:
        return RecordSync, "multi-phase"
    if job.aux is not None:
        return RecordSync, "aux phase"
    if (job.phases[0].mapping == "one2all") != bool(kernel.needs_broadcast):
        return RecordSync, "broadcast mismatch"
    if job.distance_fn is not None and not hasattr(kernel, "distance_partial"):
        return RecordSync, "no distance_partial"
    return columnar, None


# ------------------------------------------------------------------ hosts --
def host_loopback(job, executor, policy, state_parts, static_parts, plan, fields,
                  transport=None):
    """Host every pair in this process and drive the supersteps with
    ``executor`` over ``transport`` (default
    :class:`~repro.imapreduce.engine.Loopback`).  Returns the one final
    report and no mesh result fields."""
    cfg = host_config(
        0, range(plan.num_pairs), state_parts, static_parts,
        num_workers=1, num_pairs=plan.num_pairs, job=job,
        send_state=policy.send_state, wait_verdict=policy.wait_verdict, **fields,
    )
    return [run_supersteps(cfg, executor, transport or Loopback(policy))], None


#: The simulated backend's schedule jitter: each round scales each
#: pair's top fraction by one seeded draw (async only).
_JITTER = (0.5, 1.0, 1.5, 2.0)


def host_simulated(job, executor, policy, state_parts, static_parts, plan, fields):
    """Accumulative execution under seeded network chaos: the loopback
    host with ``executor`` over a
    :class:`~repro.imapreduce.engine.DeferringLoopback` seeded by
    ``plan.seed``, which holds cross-pair delta batches in flight, with
    each pair's top-fraction knob jittered per round.  All randomness
    flows from the transport's ``rng`` — jitter first, one draw per pair
    ascending on every async round, a pair with nothing live included;
    then the exchange's coins — so a chaos-campaign spec replays
    byte-identically.
    """
    transport = DeferringLoopback(policy, plan.seed)
    if plan.mode == "async":
        class Jittered(executor):
            def fraction(self, pair: int) -> float:
                return min(1.0, super().fraction(pair) * transport.rng.choice(_JITTER))

        executor = Jittered
    return host_loopback(job, executor, policy, state_parts, static_parts, plan, fields,
                         transport)
