"""The superstep engine: one driver × four pair executors × three transports.

The paper's engine is one loop — persistent map/reduce pairs run
compute → shuffle → reduce → termination check until the master says
stop (§3.1–3.3).  A synchronous iteration and a round-synchronised
accumulative (Maiter) round are both *supersteps* of that loop, and a
serial run is the same loop with every pair in one process.  This
module holds the loop, :func:`run_supersteps`, and the two pieces that
do not depend on where the pairs live:

* the **verdict policy**, one per algebra — :class:`SyncVerdict`
  (pair-ascending distance merge, history, the aux phase, then the
  aux/threshold rule) and :class:`AccumVerdict` (pair-ascending pending
  mass fold, then the progress/maxrounds rule).  The multiprocess
  coordinator feeds them ITER_REPORT frames; the loopback transport
  calls them inline — one copy of the rule either way;
* the **loopback transports**: every pair is hosted here, so an
  exchange is a regrouping and a report is a method call.
  :class:`Loopback` delivers at once; :class:`DeferringLoopback` holds
  cross-pair batches back under a seed (the simulated backend).

The driver is parameterised by

* a **pair executor**, which owns per-pair state and nothing about
  processes.  Four exist, picked by
  :func:`~repro.imapreduce.localrun.select_executor` on every backend:
  record-sync and record-accum (:mod:`.localrun`), columnar-sync and
  columnar-accum (:mod:`.columnar`).  Each is built from a
  :class:`WorkerConfig` (initial or restored state) and exposes

  ``report_lag``  1 when a report describes the step just finished
                  (sync), 0 when it precedes the step (accum);
  ``max_steps``   the step count the host stops at by itself;
  ``plan``        the ``(kind, phase)`` exchanges of one step — a
                  multi-phase job interleaves ``REPART`` hops;
  ``broadcast_items(phase)`` / ``assemble(items)``  the hoisted one2all
                  all-gather's inputs and its one sort;
  ``emit(kind, phase, broadcast)``  routed batches as flat wire items
                  ``(dest_pair, src_pair, *columns)``; the last column
                  holds the values, and its length is what a transport
                  counts as ``records_sent`` — the (key, value)
                  contributions shipped, whether or not the keys ride
                  along.  Record-sync ships ``keys, values`` lists (the
                  map's emissions stay two columns from ``Context`` to
                  the reducer; only state is ``(key, value)`` records),
                  record-accum ``keys, values`` lists of deltas, and the
                  columnar executors ``keys | None, values`` arrays (the
                  sync one ships ``None`` keys once the receiver holds
                  them);
  ``absorb(kind, phase, merged)``  ``dest_pair → items`` in ascending
                  source-pair order (the determinism contract);
  ``progress(send_state)``  the report payload (distance partials or
                  pending mass);
  ``snapshot()``, ``final_state()``, ``final_stats()``.

  Executor methods run per host per step, never per record: the hot
  paths (``run_map``, ``group_by_dest`` / ``GroupPlan``, ``map_kernel``,
  the planned ``reduceat`` combine, ``AccumPair.apply``) are untouched;
* a **transport**, which owns moving batches — and *when* they land —
  and nothing about algorithms: the two loopbacks here, the pipe mesh
  in :mod:`.workerproc`.  Each exposes ``exchange``, ``allgather``,
  ``report``, ``verdict``, ``finish``, its ``counters`` and the host's
  ``timings`` (one wall-time slot per :data:`PHASE_COUNTERS` entry,
  which executor, transport and driver all charge).  The delivery-order
  rule, on every transport: a destination's batches arrive in ascending
  source-pair order; a transport that delivers late hands over the
  destination's own batch first, then the rest by ``(source pair, send
  sequence)`` — each exactly once.

:func:`run_supersteps` also owns **cyclic garbage collection** for its run
(*BSP vs MapReduce*: the superstep barrier is where a step's garbage is
dead): automatic collection is paused, and one young-generation
``gc.collect(1)`` runs at each step boundary, charged to ``gc``.  It
never walks the old generation, so forked workers keep their inherited
pages shared; the caller's setting comes back on every exit path, and a
caller that disabled collection gets none.
"""

from __future__ import annotations

import gc
import pickle
import random
import time
from dataclasses import dataclass
from typing import Any, Iterable

from ..common.config import stable_seed
from ..common.partition import bind_partitioner
from ..common.records import group_by_key, sort_records
from .checkpoint import CheckpointStore, fire_fault
from .job import AuxContext

__all__ = [
    "CONTINUE",
    "SHUFFLE",
    "REPART",
    "PHASE_COUNTERS",
    "MESH_COUNTERS",
    "WorkerConfig",
    "SyncVerdict",
    "AccumVerdict",
    "Loopback",
    "DeferringLoopback",
    "run_supersteps",
    "partition_inputs",
    "host_config",
    "by_dest",
]

#: The verdict that keeps the loop going; anything else names the
#: reason it stopped.
CONTINUE = "continue"
#: Exchange kinds a step's ``plan`` is made of (also the wire names).
SHUFFLE = "shuffle"
REPART = "repart"

#: The profiler's wall-time counters, in reporting order.  ``kernel``
#: attributes the columnar executors' compute (prepare + map_kernel +
#: merge + finalize + broadcast assembly); it stays zero on the record
#: path, whose compute lands in ``map``/``combine``/``reduce``.
#: ``schedule`` (priority scoring + selection) and ``delta``
#: (apply/emit/absorb) belong to the accumulative executors and stay
#: zero on synchronous jobs.  ``serialize``/``deserialize``/``send``/
#: ``wait``/``verdict`` are the pipe mesh's and stay zero on the
#: loopback transport: ``wait`` is blocking for peer data, ``verdict``
#: for the coordinator's ruling on a step.  ``checkpoint`` is the
#: durable-spool write path (§3.4.1) and ``recover`` the
#: restore-from-checkpoint load after a respawn; both stay zero on an
#: unfaulted run without checkpointing.  ``gc`` is the per-step
#: young-generation collection :func:`run_supersteps` runs.
PHASE_COUNTERS = (
    "map",
    "combine",
    "kernel",
    "schedule",
    "delta",
    "serialize",
    "deserialize",
    "send",
    "wait",
    "verdict",
    "reduce",
    "report",
    "checkpoint",
    "recover",
    "gc",
)

#: What a transport counts; all zero on the loopback transport.
MESH_COUNTERS = ("records_sent", "batches_sent", "manifest_frames", "bytes_pickled")


@dataclass
class WorkerConfig:
    """Everything one host of pairs needs.  The multiprocess backend
    hands one to each worker process as an argument — inherited under
    ``fork``, pickled by ``multiprocessing`` under ``spawn`` — and the
    serial backend builds one for all pairs."""

    worker_id: int
    num_workers: int
    num_pairs: int
    job: Any
    #: pair → records (initial deltas for accumulative jobs; restored
    #: columnar ``(keys, values)`` arrays when ``columnar_state``).
    state_parts: dict[int, Any]
    #: [phase] → pair → key → static value.
    static_parts: list[dict[int, dict]]
    send_state: bool
    wait_verdict: bool
    #: Incarnation of the whole mesh; bumped on every recovery so a
    #: replayed iteration does not re-fire generation-0 fault plans.
    generation: int = 0
    #: First iteration this mesh runs (checkpoint iteration + 1).
    start_iteration: int = 0
    #: Pair → worker map, explicit so recovery can reassign pairs.
    owner_of: list[int] | None = None
    checkpoint_every: int | None = None
    spool_dir: str | None = None
    #: Seeded self-inflicted process faults (:class:`ProcFault`).
    faults: tuple = ()
    columnar_state: bool = False
    #: Accumulative jobs: ``"sync"`` drains every pending delta per
    #: round, ``"async"`` the top-priority fraction.
    accum_mode: str = "async"
    #: Accumulative warm start (incremental mode): pair → memoized
    #: converged records, preloaded into the pairs' state without
    #: propagation; ``state_parts`` then carries only the change-scoped
    #: perturbation deltas.
    accum_initial_state: dict[int, list] | None = None


def host_config(worker_id, pairs, state_parts, static_parts, *, warm=None, **fields):
    """Slice the per-pair inputs down to the pairs one host runs."""
    return WorkerConfig(
        worker_id=worker_id,
        state_parts={p: state_parts[p] for p in pairs},
        static_parts=[{p: per_pair[p] for p in pairs} for per_pair in static_parts],
        accum_initial_state=None if warm is None else {p: warm[p] for p in pairs},
        **fields,
    )


def partition_inputs(
    job, state_records: Iterable, static_records: dict | None, num_pairs: int,
    part=None,
) -> tuple[list[list], list[list[dict]]]:
    """Partition the state (an accumulative job's initial deltas) and the
    table at each of ``job.static_paths`` — one per phase, or an
    accumulative job's single one — with one loop, and therefore one
    insertion order, for every backend and both algebras (§3.2.1: the
    static data is partitioned with the function that shuffles state).
    ``part`` is the job's bound partitioner, if the caller holds one."""
    if part is None:
        part = bind_partitioner(job.partitioner, num_pairs)
    state_parts: list[list] = [[] for _ in range(num_pairs)]
    for rec in state_records:
        state_parts[part(rec[0])].append(rec)
    static_by_path = {k: dict(v) for k, v in (static_records or {}).items()}
    static_parts: list[list[dict]] = []  # [phase][pair] -> key->static
    for path in job.static_paths:
        per_pair: list[dict] = [{} for _ in range(num_pairs)]
        for key, value in static_by_path.get(path or "", {}).items():
            per_pair[part(key)][key] = value
        static_parts.append(per_pair)
    return state_parts, static_parts


def by_dest(items: Iterable[tuple]) -> dict[int, list[tuple]]:
    """``dest_pair → items`` in ascending source-pair order — not
    arrival order: float folds must see values in one fixed sequence on
    every transport."""
    merged: dict[int, dict[int, tuple]] = {}
    for item in items:
        merged.setdefault(item[0], {})[item[1]] = item
    return {q: [by_src[s] for s in sorted(by_src)] for q, by_src in merged.items()}


def _final_state(finals: list[dict], num_pairs: int) -> list[tuple[Any, Any]]:
    by_pair: dict[int, list] = {}
    for final in finals:
        by_pair.update(final["state"])
    return sort_records(rec for p in range(num_pairs) for rec in by_pair.get(p, ()))


# ------------------------------------------------------- verdict policies --
class SyncVerdict:
    """The synchronous algebra's termination policy and the merge state
    behind it (§3.1.2): per-iteration distances, history and the aux
    phase's task state.

    Reports fold *eagerly and in order* (``merged_through`` counts
    them), so "the merge state at the end of iteration k" is a
    well-defined point that :meth:`snapshot` captures whenever k is a
    checkpoint boundary.  :meth:`rollback` restores that point — in
    either direction: a second recovery may legally restore a *newer*
    manifest than the current merge frontier if the first crash
    predated an already-committed checkpoint.
    """

    def __init__(self, job, num_pairs: int, keep_history: bool):
        self.job = job
        self.num_pairs = num_pairs
        self.keep_history = keep_history
        aux = self.aux = job.aux
        self.aux_part = (
            bind_partitioner(job.partitioner, aux.num_tasks) if aux else None
        )
        #: Hosts stream per-iteration state only when someone consumes it.
        self.send_state = aux is not None or keep_history
        #: Threshold/aux termination is decided here each iteration;
        #: maxiter-only jobs free-run with no verdict round-trip.
        self.wait_verdict = aux is not None or job.threshold is not None
        #: Does any per-iteration report arrive at all?
        self.streams = (
            self.wait_verdict or self.send_state or job.distance_fn is not None
        )
        self.snapshots: dict[int, bytes] = {}  # iteration -> merge state
        self.rollback(0)

    def fold(self, reports: dict[int, dict]) -> str:
        """Merge the next iteration's reports (distance + history + aux)
        and rule on it."""
        aux, aux_part = self.aux, self.aux_part
        distance: float | None = None
        if self.job.distance_fn is not None:
            # Pair-ascending partial merge — the distributed master's
            # merge rule, one float sequence on every backend.
            partials: dict[int, float] = {}
            for report in reports.values():
                partials.update(report.get("distance", {}))
            distance = 0.0
            for p in range(self.num_pairs):
                distance += partials.get(p, 0.0)
        self.distances.append(distance)

        aux_stop = False
        if self.send_state:
            by_pair: dict[int, list] = {}
            for report in reports.values():
                by_pair.update(report.get("state", {}))
            flat = [
                rec for p in range(self.num_pairs) for rec in by_pair.get(p, ())
            ]
            if self.keep_history:
                self.history.append(sort_records(flat))
            if aux is not None and aux_part is not None:
                # The auxiliary phase (§5.3): its input is the full,
                # tiny, post-iteration state.
                aux_shuffled: list[list] = [[] for _ in range(aux.num_tasks)]
                parts: list[list] = [[] for _ in range(aux.num_tasks)]
                for rec in flat:
                    parts[aux_part(rec[0])].append(rec)
                for t in range(aux.num_tasks):
                    actx = AuxContext(self.aux_map_state[t])
                    for key, value in parts[t]:
                        aux.map_fn(key, value, actx)
                    for rec in actx.take():
                        aux_shuffled[aux_part(rec[0])].append(rec)
                for t in range(aux.num_tasks):
                    actx = AuxContext(self.aux_reduce_state[t])
                    for key, values in group_by_key(aux_shuffled[t]):
                        aux.reduce_fn(key, values, actx)
                    if actx.terminate_requested:
                        aux_stop = True
        self.merged_through += 1
        if aux_stop:
            return "aux"
        threshold = self.job.threshold
        if threshold is not None and distance is not None and distance <= threshold:
            return "threshold"
        return CONTINUE

    def snapshot(self, iteration: int) -> None:
        """Capture the merge state right after ``iteration`` merged."""
        self.snapshots[iteration] = pickle.dumps(
            (
                list(self.distances),
                [list(h) for h in self.history],
                self.aux_map_state,
                self.aux_reduce_state,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def rollback(self, start_iteration: int) -> None:
        """Rewind to the barrier before ``start_iteration`` runs."""
        blob = None if start_iteration == 0 else self.snapshots.get(start_iteration - 1)
        if blob is None:
            # From-scratch (re)start — or a free-running job that streams
            # no per-iteration reports, so there is nothing to restore.
            tasks = self.aux.num_tasks if self.aux else 0
            self.distances: list[float | None] = []
            self.history: list[list[tuple[Any, Any]]] = []
            self.aux_map_state: list[dict] = [{} for _ in range(tasks)]
            self.aux_reduce_state: list[dict] = [{} for _ in range(tasks)]
        else:
            (
                self.distances,
                self.history,
                self.aux_map_state,
                self.aux_reduce_state,
            ) = pickle.loads(blob)
        self.merged_through = start_iteration

    def outcome(self, finals: list[dict]) -> dict:
        """The result fields every synchronous backend shares."""
        iterations_run = finals[0]["iterations_run"]
        terminated_by = finals[0]["terminated_by"] or "maxiter"
        # Free-running jobs with no distance to measure report nothing
        # per iteration; results still carry one (None) entry for each.
        distances = list(self.distances)
        distances += [None] * (iterations_run - len(distances))
        return dict(
            state=_final_state(finals, self.num_pairs),
            iterations_run=iterations_run,
            converged=terminated_by == "threshold",
            terminated_by=terminated_by,
            distances=distances,
            history=list(self.history),
            worker_stats=[f["stats"] for f in finals],
        )


class AccumVerdict:
    """The accumulative algebra's termination policy: rounds are
    mass-checked *before* they execute.  Each host reports its per-pair
    pending-priority masses (round 0 reports the initial deltas') plus
    its cumulative work counters; the masses fold in ascending pair
    order — one float sequence on every backend — and the run stops on
    ``"progress"`` (mass at or below the job's threshold) or
    ``"maxrounds"``."""

    send_state = False
    wait_verdict = True

    def __init__(self, job, num_pairs: int, keep_trace: bool):
        self.num_pairs = num_pairs
        self.keep_trace = keep_trace
        self.threshold = job.threshold if job.threshold is not None else 0.0
        self.max_rounds = job.max_rounds if job.max_rounds is not None else 10**9
        self.trace: list[dict] = []
        self.mass = 0.0
        self.merged_through = 0

    def fold(self, reports: dict[int, dict]) -> str:
        rnd = self.merged_through
        masses: dict[int, float] = {}
        updates = emitted = shipped = 0
        for wid in sorted(reports):
            report = reports[wid]
            masses.update(report["mass"])
            updates += report["updates"]
            emitted += report["emitted"]
            shipped += report["shipped"]
        mass = 0.0
        for p in range(self.num_pairs):
            mass += masses.get(p, 0.0)
        self.mass = mass
        if self.keep_trace:
            self.trace.append(
                {
                    "round": rnd,
                    "pending_mass": mass,
                    "updates": updates,
                    "emitted": emitted,
                    "shipped": shipped,
                }
            )
        self.merged_through = rnd + 1
        if mass <= self.threshold:
            return "progress"
        if rnd >= self.max_rounds:
            return "maxrounds"
        return CONTINUE

    def outcome(self, finals: list[dict]) -> dict:
        """The result fields every accumulative backend shares."""
        stats = [f["stats"] for f in finals]
        terminated_by = finals[0]["terminated_by"]
        return dict(
            state=_final_state(finals, self.num_pairs),
            rounds=finals[0]["iterations_run"],
            converged=terminated_by == "progress",
            terminated_by=terminated_by,
            pending_mass=self.mass,
            updates_processed=sum(s["updates_processed"] for s in stats),
            deltas_emitted=sum(s["deltas_emitted"] for s in stats),
            deltas_shipped=sum(s["deltas_shipped"] for s in stats),
            trace=self.trace,
            worker_stats=stats,
        )


# -------------------------------------------------------------- transport --
class Loopback:
    """The in-process transport: all pairs live in this process, so
    nothing is framed, shipped or counted, and the verdict policy is
    called inline where the mesh would send an ITER_REPORT frame."""

    def __init__(self, policy):
        self._policy = policy
        self._verdict = CONTINUE
        self.counters = dict.fromkeys(MESH_COUNTERS, 0)
        self.timings = dict.fromkeys(PHASE_COUNTERS, 0.0)

    def exchange(self, kind, step, phase, items) -> dict[int, list[tuple]]:
        return by_dest(items)

    def allgather(self, step, phase, mine, assemble):
        return assemble(mine)[0]

    def report(self, index: int, report: dict) -> None:
        self._verdict = self._policy.fold({0: report})

    def verdict(self, index: int) -> str:
        return self._verdict

    def finish(self) -> None:
        pass


#: :class:`DeferringLoopback`'s coin: a cross-pair batch is held with
#: this probability, for 1 to ``MAX_DEFER`` extra rounds.
DEFER_PROBABILITY = 0.35
MAX_DEFER = 2


class DeferringLoopback(Loopback):
    """A loopback under seeded delivery chaos, for accumulative jobs: a
    pair's own batch passes through at once, every cross-pair batch may
    be held in flight (one coin per batch in emission order, all from
    ``rng`` — which the simulated entry's schedule jitter shares), and
    due batches are released per the module's delivery-order rule.
    Deltas arrive late and reordered, as on a loaded mesh, but exactly
    once: a ``+`` algebra cannot absorb a delta twice or lose one.

    A held batch is unaccumulated progress, so :meth:`report` stamps
    ``in_flight`` on the verdict's trace row and withholds
    ``"progress"`` while anything is held (``max_rounds`` still stops
    the run, with batches in flight).

    ``exchange`` cannot route through :func:`by_dest`: that helper keys
    batches by ``(dest, src)`` and would silently drop the older of two
    same-source batches released in one step — a lost delta, which a
    ``min`` algebra can mask (a later offer may cover it) and only the
    ``+`` fixpoint test is certain to see.
    """

    def __init__(self, policy, seed: int):
        super().__init__(policy)
        self.rng = random.Random(stable_seed(seed, "accum-sim"))
        #: Cross-pair batches in flight: (dest, src, due step, item).
        self._held: list[tuple] = []

    def exchange(self, kind, step, phase, items) -> dict[int, list[tuple]]:
        merged: dict[int, list[tuple]] = {}
        for item in items:
            dest, src = item[:2]
            if dest == src:
                merged[dest] = [item]
            else:
                late = self.rng.random() < DEFER_PROBABILITY
                due = step + (self.rng.randint(1, MAX_DEFER) if late else 0)
                self._held.append((dest, src, due, item))
        # Stable, so same-(dest, src) batches stay in send order.
        self._held.sort(key=lambda b: b[:2])
        for dest, _src, due, item in self._held:
            if due <= step:
                merged.setdefault(dest, []).append(item)
        self._held = [b for b in self._held if b[2] > step]
        return merged

    def report(self, index: int, report: dict) -> None:
        super().report(index, report)
        policy = self._policy
        if policy.keep_trace:
            policy.trace[-1]["in_flight"] = len(self._held)
        if self._verdict == "progress" and self._held:
            self._verdict = "maxrounds" if index >= policy.max_rounds else CONTINUE


# ----------------------------------------------------------------- driver --
def run_supersteps(cfg: WorkerConfig, executor_cls, transport) -> dict:
    """Run every superstep for the pairs this host owns: report →
    verdict → compute → exchange → absorb, checkpointing on schedule.

    Returns the host's final report: its pairs' state, the steps it
    ran, why it stopped and its stats (one ``worker_stats`` entry).

    Automatic garbage collection is paused for the run and replaced by
    one young-generation collection per step (module docstring); the
    caller's setting is restored however the run ends.
    """
    collect = gc.isenabled()
    gc.disable()
    try:
        return _supersteps(cfg, executor_cls, transport, collect)
    finally:
        if collect:
            gc.enable()


def _supersteps(cfg: WorkerConfig, executor_cls, transport, collect: bool) -> dict:
    perf = time.perf_counter
    timings = transport.timings
    executor = executor_cls(cfg, timings)
    store = (
        CheckpointStore(cfg.spool_dir)
        if cfg.checkpoint_every and cfg.spool_dir
        else None
    )
    ckpt_writes = ckpt_bytes = 0
    lag = executor.report_lag
    step = cfg.start_iteration
    terminated_by = ""
    while True:
        if step > cfg.start_iteration or not lag:
            index = step - lag
            report = executor.progress(cfg.send_state)
            # Free-run fast path: a maxiter-only job with no distance to
            # measure crosses no control-plane point per step at all.
            if report or cfg.wait_verdict:
                started = perf()
                transport.report(index, report)
                timings["report"] += perf() - started
            # Durable checkpoint (§3.4.1): after the report, so the
            # coordinator hears of iteration k before its spool receipt.
            if store is not None and step % cfg.checkpoint_every == 0:
                started = perf()
                entry = store.write(
                    cfg.generation, index, cfg.worker_id, executor.snapshot()
                )
                ckpt_writes += 1
                ckpt_bytes += entry["bytes"]
                transport.receipt(index, entry)
                timings["checkpoint"] += perf() - started
            if cfg.wait_verdict:
                verdict = transport.verdict(index)
                if verdict != CONTINUE:
                    terminated_by = verdict
                    break
        if step >= executor.max_steps:
            break
        for kind, phase in executor.plan:
            broadcast = None
            if kind == SHUFFLE:
                for fault in cfg.faults:
                    if fault.matches(cfg.generation, cfg.worker_id, step, phase):
                        fire_fault(fault)
                mine = executor.broadcast_items(phase)
                if mine is not None:
                    # Hoisted one2all all-gather (§5.1): one host sorts.
                    broadcast = transport.allgather(
                        step, phase, mine, executor.assemble
                    )
            # Nested, so no local keeps a step's batches alive into the
            # next step's compute.
            executor.absorb(
                kind,
                phase,
                transport.exchange(
                    kind, step, phase, executor.emit(kind, phase, broadcast)
                ),
            )
        if collect:
            started = perf()
            gc.collect(1)
            timings["gc"] += perf() - started
        step += 1

    transport.finish()
    stats = {
        "worker": cfg.worker_id,
        "pairs": list(executor.pairs),
        # Static data is loaded from the config exactly once for the
        # whole job; steps only ever read it (§3.2.1).
        "static_loads": 1,
        "static_records": sum(len(d) for per in cfg.static_parts for d in per.values()),
        **transport.counters,
        "ckpt_writes": ckpt_writes,
        "ckpt_bytes": ckpt_bytes,
        "phase_seconds": {k: round(v, 6) for k, v in timings.items()},
        **executor.final_stats(),
    }
    return {
        "state": executor.final_state(),
        "iterations_run": step,
        "terminated_by": terminated_by,
        "stats": stats,
    }
