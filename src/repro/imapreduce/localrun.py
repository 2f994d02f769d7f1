"""Serial entry points, the record-layout pair executors, and executor
selection.

:func:`run_local` and :func:`run_accum_local` run the exact same job
semantics as the distributed engine — same partitioning, same join,
same phase chaining, same termination rules — in one process: they
partition the inputs, pick a pair executor and drive
:func:`~repro.imapreduce.engine.run_supersteps` over the loopback
transport (:func:`run_accum_simulated`: over the seeded deferring
one).  Their uses:

* a correctness oracle: the distributed engine's final state must equal
  this executor's, record for record (tests assert it);
* a zero-setup way for library users to run an iterative job on small
  data (the quickstart example);
* the single-core baseline the wall-clock benchmarks compare
  :func:`~repro.imapreduce.parallel.run_parallel` against.

The multiprocess backend drives the same executors through the same
driver over the pipe mesh, so it executes byte-for-byte the same
user-code path (:func:`run_map`, ``group_by_dest`` or the
``GroupPlan`` that replays it, ``AccumPair.apply``) and its
differential oracle can demand record-for-record equality.
:func:`select_executor` is the one dispatch rule both backends use.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable

from ..common.partition import bind_partitioner
from ..common.records import GroupPlan, group_by_dest, order_key, plannable, sort_records
from ..mapreduce.api import Context
from .accum import (
    AccumJob,
    AccumPair,
    AccumRunResult,
    check_mode,
    partition_accum_inputs,
    partition_state,
)
from .columnar import AccumKernel, ColumnarAccum, ColumnarSync
from .engine import (
    REPART,
    SHUFFLE,
    AccumVerdict,
    DeferringLoopback,
    Loopback,
    SyncVerdict,
    host_config,
    partition_inputs,
    run_supersteps,
)
from .job import IterativeJob, Phase

__all__ = [
    "LocalRunResult",
    "run_local",
    "run_accum_local",
    "run_accum_simulated",
    "map_pair",
    "order_key",
    "select_executor",
    "kernel_enabled",
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
) -> list[tuple[Any, Any]]:
    """One pair's map task for one phase, before any combiner: its raw
    emissions.  ``static_sorted``/``broadcast`` are set for one2all
    phases."""
    ctx = Context()
    if broadcast is not None:
        for key, static_value in static_sorted or ():
            phase.map_fn(key, broadcast, static_value, ctx)
    else:
        static_get = static.get
        for key, state_value in records:
            phase.map_fn(key, state_value, static_get(key), ctx)
    return ctx.take()


def reduce_groups(fn, grouped) -> Iterable[tuple[Any, list[tuple[Any, Any]]]]:
    """Run a combiner or reducer over ``(destination, groups)`` — what
    :func:`~repro.common.records.group_by_dest` or a ``GroupPlan``
    yields — giving ``(destination, its output)``: a combiner's output
    stays in the partition it was grouped for."""
    # One Context reused across all destinations: ``take()`` drains the
    # buffer between them, and no combiner reads the context counters.
    ctx = Context()
    for dest, groups in grouped:
        for key, values in groups:
            fn(key, values, ctx)
        yield dest, ctx.take()


def map_pair(
    phase: Phase,
    records: list[tuple[Any, Any]],
    static: dict,
    static_sorted: list[tuple[Any, Any]] | None,
    broadcast: list | None,
    part: Callable[[Any], int],
    timings: dict[str, float] | None = None,
) -> list[tuple[Any, Any]]:
    """:func:`run_map` plus the reference (unplanned) combine; returns
    the pair's emissions as one flat list, destinations in order of
    first appearance.

    ``part`` is the pre-bound partitioner (combiner grouping only).
    This is the function :class:`RecordSync`'s planned combine must
    equal record for record *and in order* — the tests' reference and
    the benchmark's probe, not what the executor calls.

    ``timings`` is the host's phase profiler: when given, wall-time
    accumulates into its ``map`` and ``combine`` counters.
    """
    started = time.perf_counter()
    emitted = run_map(phase, records, static, static_sorted, broadcast)
    mapped = time.perf_counter()
    if phase.combiner is not None:
        grouped = group_by_dest(emitted, part)
        emitted = [rec for _q, out in reduce_groups(phase.combiner, grouped) for rec in out]
    if timings is not None:
        timings["map"] += mapped - started
        timings["combine"] += time.perf_counter() - mapped
    return emitted


def sorted_static(static: dict) -> list[tuple[Any, Any]]:
    """The one2all map's iteration order over a static partition."""
    return sort_records(static.items())


# --------------------------------------------------------- pair executors --
# The record-layout pair executors (see :mod:`.engine` for the
# interface): wire items are ``(dest_pair, src_pair, records)``.
class RecordSync:
    """Synchronous iterations over per-pair record lists: one
    :func:`run_map`, one combine and one reduce per pair per phase
    (§3.1), both over ``group_by_dest``'s grouping — replayed from a
    ``GroupPlan`` once a pair's key sequence repeats; a non-final
    phase's reduce output is repartitioned to the next phase's maps
    (§5.2)."""

    report_lag = 1

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
        # part(key) -> pair, memoized for the job's stable key universe:
        # after iteration 0 the partitioner never runs on the shuffle
        # hot path again.
        self.route_cache: dict[Any, int] = {}
        # Loop-invariant groupings, per ("send" | "recv", phase, pair):
        # at most one plan and one candidate key sequence each.  Derived
        # state — not in ``snapshot()``, rebuilt after a respawn.
        self.group_plans: dict[tuple, GroupPlan] = {}
        self.key_seqs: dict[tuple, list] = {}
        self.plans_built = self.plan_hits = 0
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

    def _grouped(self, slot: tuple, records: list, part=None):
        """``group_by_dest(records, part)`` — replayed from ``slot``'s
        :class:`~repro.common.records.GroupPlan` when it covers this key
        sequence.  A plan is built the first time a slot's sequence
        equals the previous step's, so a job whose keys never repeat
        pays one key extract and one list compare per step."""
        keys = list(map(itemgetter(0), records))
        plan = self.group_plans.get(slot)
        if plan is not None and plan.covers(keys):
            self.plan_hits += 1
        elif keys == self.key_seqs.get(slot) and plannable(keys):
            del self.key_seqs[slot]  # the plan holds the sequence now
            plan = self.group_plans[slot] = GroupPlan(keys, part)
            self.plans_built += 1
        else:
            self.key_seqs[slot] = keys
            return group_by_dest(records, part)
        return plan.apply(keys, records)

    def emit(self, kind, phase, broadcast) -> list[tuple]:
        phase_sorted = self.static_sorted[phase]
        combiner = self.phases[phase].combiner if kind == SHUFFLE else None
        part, cache = self.part, self.route_cache
        cached = cache.get
        items = []
        # One running clock, so the time between two charges — the
        # release of the previous pair's records, say — is somebody's.
        clock = time.perf_counter()
        for p in self.pairs:
            if kind == REPART:
                records = self.reduced.pop(p)
            else:
                records = run_map(
                    self.phases[phase],
                    self.current[p],
                    self.static[phase][p],
                    phase_sorted[p] if phase_sorted is not None else None,
                    broadcast,
                )
            if combiner is None:
                by_dest: dict[int, list] = defaultdict(list)
                for rec in records:
                    key = rec[0]
                    q = cached(key)
                    if q is None:
                        q = cache[key] = part(key)
                    by_dest[q].append(rec)
                items.extend((q, p, recs) for q, recs in by_dest.items())
            mapped = time.perf_counter()
            self.timings["map"] += mapped - clock
            clock = mapped
            if combiner is not None:
                # Plan check and build included.  The output is already
                # per destination: nothing re-partitions it.
                grouped = self._grouped(("send", phase, p), records, part)
                items.extend(
                    (q, p, out) for q, out in reduce_groups(combiner, grouped) if out
                )
                clock = time.perf_counter()
                self.timings["combine"] += clock - mapped
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        reduce_fn = self.phases[phase].reduce_fn
        out = {}
        for q in self.pairs:
            records: list = []
            for _q, _src, recs in merged.pop(q, ()):
                records.extend(recs)
            if kind == SHUFFLE:
                grouped = self._grouped(("recv", phase, q), records)
                ((_none, records),) = reduce_groups(reduce_fn, grouped)
            out[q] = records
        if kind == REPART or phase == self.last:
            # Persistent pair channel: reduce k's output is map k+1's
            # input for the same pair, never leaving this host.
            self.current = out
        else:
            self.reduced = out
        self.timings["reduce"] += time.perf_counter() - started

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        report: dict[str, Any] = {}
        if self.prev is not None:
            distance_fn = self.distance_fn
            partials = {}
            for p in self.pairs:
                prev_get = self.prev[p].get
                partial = 0.0
                new_prev = {}  # built during the distance pass: no
                for key, value in self.current[p]:  # second rebuild
                    partial += distance_fn(key, prev_get(key), value)
                    new_prev[key] = value
                partials[p] = partial
                self.prev[p] = new_prev
            report["distance"] = partials
        if send_state:
            report["state"] = self.final_state()
        self.timings["report"] += time.perf_counter() - started
        return report

    def snapshot(self) -> dict:
        return {"path": "record", "pairs": self.final_state()}

    def final_state(self) -> dict[int, list]:
        return {p: self.current[p] for p in self.pairs}

    def final_stats(self) -> dict:
        return {
            "route_cache_size": len(self.route_cache),
            "plans_built": self.plans_built,
            "plan_hits": self.plan_hits,
        }


class RecordAccum:
    """Accumulative (Maiter-mode) rounds over one :class:`AccumPair` per
    hosted pair: drain the priority queues (``accum_mode`` selects sync
    or top-fraction async scheduling), apply, and exchange only the
    nonzero delta batches — a silent pair costs the mesh one manifest
    frame.  Pairs ascending, batches absorbed in ascending source-pair
    order: one operation sequence on every transport."""

    report_lag = 0
    plan = [(SHUFFLE, 0)]
    max_steps = 10**9  # the verdict policy enforces ``max_rounds``

    def __init__(self, cfg, timings: dict):
        self.job = job = cfg.job
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.mode = cfg.accum_mode
        self.part = bind_partitioner(job.partitioner, cfg.num_pairs)
        self.shipped = 0  # cumulative cross-pair delta records
        tables = cfg.static_parts[0]
        warm = cfg.accum_initial_state or {}
        self.engines = {
            p: AccumPair(
                p, job.accumulator, tables[p], keys=tables[p],
                initial_state=warm.get(p),
            )
            for p in self.pairs
        }
        for p in self.pairs:
            self.engines[p].absorb(cfg.state_parts[p])

    def broadcast_items(self, phase: int):
        return None

    def fraction(self, pair: int) -> float:
        """The top-priority fraction ``pair`` drains this round (async)."""
        return self.job.top_fraction

    def progress(self, send_state: bool) -> dict:
        started = time.perf_counter()
        engines = self.engines.values()
        masses = {p: self.engines[p].mass() for p in self.pairs}
        self.timings["schedule"] += time.perf_counter() - started
        return {
            "mass": masses,
            "updates": sum(e.updates_processed for e in engines),
            "emitted": sum(e.deltas_emitted for e in engines),
            "shipped": self.shipped,
        }

    def emit(self, kind, phase, broadcast) -> list[tuple]:
        perf = time.perf_counter
        started = perf()
        selections = {
            p: self.engines[p].select(self.mode, self.fraction(p)) for p in self.pairs
        }
        self.timings["schedule"] += perf() - started
        started = perf()
        items = []
        for p in self.pairs:
            outboxes: list[list] = [[] for _ in range(self.num_pairs)]
            self.engines[p].apply(self.job, selections[p], self.part, outboxes)
            for q, recs in enumerate(outboxes):
                if recs:
                    items.append((q, p, recs))
                    if q != p:
                        self.shipped += len(recs)
        self.timings["delta"] += perf() - started
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        for q in self.pairs:
            for _q, _src, recs in merged.get(q, ()):
                self.engines[q].absorb(recs)
        self.timings["delta"] += time.perf_counter() - started

    def final_state(self) -> dict[int, list]:
        return {p: self.engines[p].final_records() for p in self.pairs}

    def final_stats(self) -> dict:
        engines = self.engines.values()
        return {
            "updates_processed": sum(e.updates_processed for e in engines),
            "deltas_emitted": sum(e.deltas_emitted for e in engines),
            "deltas_shipped": self.shipped,
            "priority_evals": sum(e.priority_evals for e in engines),
        }


# -------------------------------------------------------------- selection --
def select_executor(job) -> tuple[type, str | None]:
    """``(pair executor class, why the job's kernel is not used)``.

    Every backend calls this one function, so they always agree on the
    path; the reason is ``None`` exactly when a columnar executor runs.
    Anything a kernel does not support falls back to the record
    executor — the differential reference — and says why.  An
    accumulative job's requirements are lighter (no phases or aux), but
    its key universe must be closed: every emission targets a
    static-table or initial-delta key.
    """
    accum = isinstance(job, AccumJob)
    record = RecordAccum if accum else RecordSync
    kernel = getattr(job, "kernel", None)
    if kernel is None:
        return record, "no kernel"
    if getattr(job.partitioner, "bind_array", None) is None:
        return record, "partitioner has no bind_array"
    if accum:
        if not isinstance(kernel, AccumKernel):
            return record, "not an AccumKernel"
        return ColumnarAccum, None
    if len(job.phases) != 1:
        return record, "multi-phase"
    if job.aux is not None:
        return record, "aux phase"
    if (job.phases[0].mapping == "one2all") != bool(kernel.needs_broadcast):
        return record, "broadcast mismatch"
    if job.distance_fn is not None and not hasattr(kernel, "distance_partial"):
        return record, "no distance_partial"
    return ColumnarSync, None


def kernel_enabled(job) -> bool:
    """Does this job run on a columnar executor?"""
    return select_executor(job)[1] is None


# ------------------------------------------------------------ entry points --
def _run_loopback(policy, job, state_parts, static_parts, num_pairs, *,
                  executor=None, transport=None, **fields) -> dict:
    """Host every pair in this process and drive the supersteps."""
    cfg = host_config(
        0, range(num_pairs), state_parts, static_parts,
        num_workers=1, num_pairs=num_pairs, job=job,
        send_state=policy.send_state, wait_verdict=policy.wait_verdict, **fields,
    )
    executor = executor or select_executor(job)[0]
    return run_supersteps(cfg, executor, transport or Loopback(policy))


def run_local(
    job: IterativeJob,
    state_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    keep_history: bool = False,
) -> LocalRunResult:
    """Execute ``job`` serially.

    ``state_records`` is the initial state; ``static_records`` maps each
    phase's ``static_path`` to its records (the DFS is not involved).

    Jobs carrying a vectorized kernel (``job.kernel``) run on the
    columnar executor when the job shape supports it
    (:func:`select_executor`) — same result surface, one ``map_kernel``
    + merge per pair per iteration instead of the per-record loops.
    """
    state_parts, static_parts = partition_inputs(
        job, state_records, static_records, num_pairs
    )
    policy = SyncVerdict(job, num_pairs, keep_history)
    final = _run_loopback(policy, job, state_parts, static_parts, num_pairs)
    return LocalRunResult(**policy.outcome([final]))


def run_accum_local(
    job,
    delta_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    mode: str = "async",
    keep_trace: bool = False,
    initial_state: Iterable[tuple[Any, Any]] | None = None,
):
    """Execute an :class:`~repro.imapreduce.accum.AccumJob` serially.

    ``delta_records`` are the initial deltas (state starts at the
    algebra's identity); ``static_records`` maps the job's static path
    to its records, as in :func:`run_local`.  ``mode="sync"`` drains
    every pending delta each round — the synchronous reference the
    fixpoint-equivalence oracle compares async runs against;
    ``mode="async"`` drains only the top-priority fraction.

    ``initial_state`` (incremental mode) preloads memoized converged
    values into the pairs' state *without* propagation; the
    ``delta_records`` then carry only the change-scoped perturbation —
    see :mod:`~repro.imapreduce.incremental`.

    Rounds are mass-checked *before* executing
    (:class:`~repro.imapreduce.engine.AccumVerdict`) — the verdict
    protocol the multiprocess coordinator runs too, so serial and
    parallel runs of the same mode are record-for-record identical.
    Jobs carrying a delta kernel (``job.kernel``) run on the columnar
    executor — dense pending arrays with an active-key mask.
    """
    check_mode(mode)
    part = bind_partitioner(job.partitioner, num_pairs)
    delta_parts, static_tables = partition_accum_inputs(
        job, delta_records, static_records, num_pairs, part
    )
    policy = AccumVerdict(job, num_pairs, keep_trace)
    final = _run_loopback(
        policy, job, delta_parts, [static_tables], num_pairs,
        accum_mode=mode, warm=partition_state(initial_state, num_pairs, part),
    )
    return AccumRunResult(mode=mode, **policy.outcome([final]))


#: The simulated backend's schedule jitter: each round scales each
#: pair's top fraction by one seeded draw (async only).
_JITTER = (0.5, 1.0, 1.5, 2.0)


def run_accum_simulated(
    job, delta_records, static_records=None, *, num_pairs: int = 4, seed: int = 0,
    mode: str = "async", keep_trace: bool = False,
):
    """Accumulative execution under seeded network chaos: the chaos twin
    of :func:`run_accum_local` — the same driver, verdict policy and
    record executor — over a
    :class:`~repro.imapreduce.engine.DeferringLoopback`, which holds
    cross-pair delta batches in flight, with each pair's top-fraction
    knob jittered per round.  All randomness flows from the transport's
    ``rng`` (jitter first, pairs ascending, then the exchange's coins),
    so a chaos-campaign spec replays byte-identically.
    """
    check_mode(mode)
    delta_parts, static_tables = partition_accum_inputs(
        job, delta_records, static_records, num_pairs
    )
    policy = AccumVerdict(job, num_pairs, keep_trace)
    transport = DeferringLoopback(policy, seed)

    class Jittered(RecordAccum):
        def fraction(self, pair: int) -> float:
            return min(1.0, self.job.top_fraction * transport.rng.choice(_JITTER))

    final = _run_loopback(
        policy, job, delta_parts, [static_tables], num_pairs, accum_mode=mode,
        executor=Jittered if mode == "async" else RecordAccum, transport=transport,
    )
    return AccumRunResult(mode="simulated", **policy.outcome([final]))
