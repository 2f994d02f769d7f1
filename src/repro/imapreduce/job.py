"""Iterative job descriptions for the iMapReduce engine.

The user-facing surface follows §3.5 of the paper:

* ``map(key, state_value, static_value, ctx)`` — the framework joins the
  state and static records with the same key before calling (one2one
  mapping), or passes the full broadcast state list (one2all);
* ``reduce(key, values, ctx)`` — state-only input, like MapReduce;
* ``distance(key, prev_state, curr_state) -> float`` — per-key
  contribution to the inter-iteration distance, accumulated across keys
  and reduce tasks and compared to ``mapred.iterjob.disthresh``;

plus the ``mapred.iterjob.*`` JobConf parameters (statepath, staticpath,
maxiter, disthresh, mapping, sync, checkpoint interval, buffer size).

§5.2's multi-phase iterations are expressed as a list of
:class:`Phase` objects chained in order (``add_successor`` sugar builds
the list), and §5.3's auxiliary map-reduce phase as an
:class:`AuxPhase` that observes the main phase's output in parallel and
may signal termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..common.config import IterKeys, JobConf
from ..common.errors import ConfigError
from ..common.partition import HashPartitioner, Partitioner
from ..common.records import group_by_key
from ..mapreduce.api import Context
from ..metrics import RunMetrics

# Re-exported for discoverability: the accumulative (Maiter-mode) job
# model extends this module's job surface but lives in accum.py.
from .accum import FOLDS, AccumJob, AccumRunResult  # noqa: E402

__all__ = [
    "Phase",
    "AuxPhase",
    "AuxContext",
    "IterativeJob",
    "IterativeRunResult",
    "AccumJob",
    "AccumRunResult",
]

#: map(key, state_value, static_value, ctx)
MapFn = Callable[[Any, Any, Any, Any], None]
#: reduce(key, values, ctx)
ReduceFn = Callable[[Any, list, Any], None]
#: distance(key, prev_state, curr_state) -> float
DistanceFn = Callable[[Any, Any, Any], float]


@dataclass
class Phase:
    """One map-reduce phase of the iteration body.

    ``static_path`` (optional) names the DFS file whose records are
    joined with the state before this phase's map; ``mapping`` declares
    how the *previous* phase's reduce output reaches this phase's map —
    ``"one2one"`` through the paired persistent socket, ``"one2all"``
    broadcast from every reduce task (§5.1).

    ``combiner`` runs map-side over each output partition's key groups,
    and its output stays in the partition it was grouped for (Hadoop's
    contract): it is delivered to that partition's reduce task on every
    backend, never re-partitioned by whatever key the combiner emitted.

    ``fold`` — ``"sum"`` or ``"min"``, a name in
    :data:`~repro.imapreduce.accum.FOLDS` — declares that the reducer,
    and the combiner if there is one, emit ``(key, fold(values))``, and
    is checked against both when the phase is built (the entry's
    ``reduce``).  A single-phase job without a kernel may then
    shuffle and reduce in numpy
    (:func:`~repro.imapreduce.localrun.select_executor`), which takes
    the columnar contract on: int keys, int or float state, and every
    emission to a key the state holds, every state key fed.

    ``wire`` declares the shape of the values the map (or the combiner)
    emits, as a tuple of variants ``(tag, *fields)``: a distinct ``str``
    tag, then per field ``int``, ``float``, or a numpy dtype — a ragged
    1-D array of it.  The mesh then ships the phase's shuffle batches as
    columns (:func:`~repro.imapreduce.workerproc._pack`), and refuses a
    record that does not fit; keys must be ``int``.  Other hosts ignore
    it.
    """

    map_fn: MapFn
    reduce_fn: ReduceFn
    static_path: str | None = None
    mapping: str = "one2one"
    combiner: ReduceFn | None = None
    name: str = ""
    fold: str | None = None
    wire: tuple = ()

    def __post_init__(self):
        try:  # (str tag, *fields) variants; a field is int, float or a native numeric dtype
            self.wire = tuple(
                (tag, *(f if f in (int, float) else np.dtype(f) for f in fields))
                for tag, *fields in (v if type(v) is tuple else () for v in self.wire))
            fields = [f for _tag, *fs in self.wire for f in fs]
            if len({t for t, *_ in self.wire if type(t) is str}) < len(self.wire) or not all(
                    f in (int, float) or f.kind in "biuf" and f.isnative for f in fields):
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(f"phase {self.name!r}: wire must be (str tag, *fields) variants, "
                              f"tags distinct, fields int, float or numeric dtypes, "
                              f"not {self.wire!r}") from None
        if self.mapping not in ("one2one", "one2all"):
            raise ConfigError(f"unknown mapping {self.mapping!r}")
        if self.fold not in (None, *FOLDS):
            raise ConfigError(f"unknown fold {self.fold!r}")
        # The declared fold must be what the reducer and the combiner
        # emit, bit for bit, on every sample group.
        for role, fn in (("reducer", self.reduce_fn), ("combiner", self.combiner)):
            for values in _FOLD_SAMPLES if fn and self.fold else ():
                ctx = Context()
                fn(0, list(values), ctx)
                got, want = list(zip(*ctx.take_columns())), [(0, FOLDS[self.fold].reduce(values))]
                if repr(got) != repr(want):
                    raise ConfigError(f"phase {self.name!r} declares fold={self.fold!r}, but "
                                      f"its {role} emits {got!r} for {values!r}, not {want!r}")


#: The groups a declared fold is checked on: ints, and floats with both
#: zeros in either order, an infinity and a cancellation — which tells
#: a left fold from a compensated sum (``math.fsum``, or Python's float
#: ``sum`` from 3.12 on).
_FOLD_SAMPLES = ([7], [3, -2, 5], [0, 4, 0], [0.1, 0.2, 0.3], [-0.0], [0.0, -0.0],
                 [-0.0, 0.0], [math.inf, 1.5], [2.5, -1.25, math.inf], [1e16, 1.0, -1e16])


@dataclass
class AuxPhase:
    """§5.3: an auxiliary map-reduce phase running beside the main phase.

    Each iteration it receives a copy of the last main phase's reduce
    output.  Its map function is ``map(key, value, ctx)``; its reduce is
    ``reduce(key, values, ctx)``.  Calling ``ctx.signal_terminate()``
    from the aux reduce terminates the whole iterative job (the paper's
    K-means convergence detection).  Aux tasks keep a persistent
    per-task dict at ``ctx.task_state`` so consecutive iterations can be
    compared.
    """

    map_fn: Callable[[Any, Any, Any], None]
    reduce_fn: ReduceFn
    num_tasks: int = 1
    name: str = "aux"

    def map_step(self, task_state: dict, records) -> tuple[list, list]:
        """One aux map task's iteration: ``map_fn`` over ``records`` in
        order, with the task's persistent state; its emissions as
        ``(keys, values)`` columns."""
        ctx = AuxContext(task_state)
        for key, value in records:
            self.map_fn(key, value, ctx)
        return ctx.take_columns()

    def reduce_step(self, task_state: dict, records) -> bool:
        """One aux reduce task's iteration over its shuffled ``records``
        (values in arrival order within a key): did it signal
        termination?"""
        ctx = AuxContext(task_state)
        for key, values in group_by_key(records):
            self.reduce_fn(key, values, ctx)
        return ctx.terminate_requested


class AuxContext(Context):
    """Context handed to auxiliary-phase user code (§5.3)."""

    def __init__(self, task_state: dict):
        super().__init__()
        self.task_state = task_state
        self.terminate_requested = False

    def signal_terminate(self) -> None:
        self.terminate_requested = True


@dataclass
class IterativeJob:
    """A complete iterative computation for the iMapReduce engine."""

    name: str
    phases: list[Phase]
    output_path: str
    conf: JobConf = field(default_factory=JobConf)
    distance_fn: DistanceFn | None = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    #: Number of persistent map/reduce task pairs (per phase).  ``None``
    #: lets the runtime pick one pair per worker.
    num_pairs: int | None = None
    aux: AuxPhase | None = None
    #: Optional vectorized compute kernel (see
    #: :mod:`repro.imapreduce.columnar`).  When set — and the job shape
    #: supports it (single phase, no aux, vectorizable partitioner) —
    #: both executors replace the per-record map/combine/reduce loops
    #: with one columnar ``map_kernel`` + merge per pair per iteration.
    #: The record-level ``phases`` stay authoritative as the
    #: differential reference.
    kernel: Any | None = None

    def __post_init__(self):
        if not self.phases:
            raise ConfigError(f"job {self.name!r}: needs at least one phase")
        if self.num_pairs is not None and self.num_pairs < 1:
            raise ConfigError(f"job {self.name!r}: num_pairs must be >= 1")
        if self.threshold is not None and self.distance_fn is None:
            raise ConfigError(
                f"job {self.name!r}: disthresh set but no distance function"
            )
        if self.max_iterations is None and self.threshold is None and self.aux is None:
            raise ConfigError(
                f"job {self.name!r}: set maxiter, disthresh or an aux phase "
                "so the iteration can terminate"
            )

    # -- paper-style conveniences -----------------------------------------------
    @classmethod
    def single_phase(
        cls,
        name: str,
        map_fn: MapFn,
        reduce_fn: ReduceFn,
        *,
        conf: JobConf,
        output_path: str,
        distance_fn: DistanceFn | None = None,
        partitioner: Partitioner | None = None,
        combiner: ReduceFn | None = None,
        num_pairs: int | None = None,
        aux: AuxPhase | None = None,
        kernel: Any | None = None,
        fold: str | None = None,
        wire: tuple = (),
    ) -> "IterativeJob":
        """The common case: one map-reduce phase per iteration (§3)."""
        phase = Phase(
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            static_path=conf.get(IterKeys.STATIC_PATH),
            mapping=conf.get(IterKeys.MAPPING, "one2one"),
            combiner=combiner,
            name=name,
            fold=fold,
            wire=wire,
        )
        return cls(
            name=name,
            phases=[phase],
            output_path=output_path,
            conf=conf,
            distance_fn=distance_fn,
            partitioner=partitioner or HashPartitioner(),
            num_pairs=num_pairs,
            aux=aux,
            kernel=kernel,
        )

    # -- paper §5.2/§5.3 chaining sugar ------------------------------------------
    def add_successor(self, phase: Phase) -> "IterativeJob":
        """Append another map-reduce phase to the iteration body — the
        paper's ``job1.addSuccessor(job2)``.  The final phase's reduce
        output loops back to phase 0 for the next iteration."""
        self.phases.append(phase)
        return self

    def add_auxiliary(self, aux: AuxPhase) -> "IterativeJob":
        """Attach an auxiliary phase — the paper's
        ``job1.addAuxiliray(job2)`` (sic)."""
        if self.aux is not None:
            raise ConfigError(f"job {self.name!r} already has an auxiliary phase")
        self.aux = aux
        return self

    # -- derived configuration ----------------------------------------------------
    @property
    def state_path(self) -> str:
        return self.conf.get_required(IterKeys.STATE_PATH)

    @property
    def static_paths(self) -> list[str | None]:
        """The static input each phase's map joins, in phase order."""
        return [phase.static_path for phase in self.phases]

    @property
    def max_iterations(self) -> int | None:
        return self.conf.get_int(IterKeys.MAX_ITER)

    @property
    def threshold(self) -> float | None:
        return self.conf.get_float(IterKeys.DIST_THRESH)

    @property
    def synchronous(self) -> bool:
        """Maps wait for the global iteration barrier (§5.1.2) — forced
        on when any phase uses one2all mapping."""
        if self.conf.get_boolean(IterKeys.SYNC, False):
            return True
        return any(p.mapping == "one2all" for p in self.phases)

    @property
    def checkpoint_interval(self) -> int:
        return self.conf.get_int(IterKeys.CHECKPOINT_INTERVAL, 3)

    @property
    def parallel_checkpoint_every(self) -> int | None:
        """Durable checkpoint cadence for the real multiprocess backend
        (``None`` = off).  A job can opt in through its conf; the
        ``checkpoint_every`` argument of :func:`run_parallel` overrides."""
        every = self.conf.get_int(IterKeys.PARALLEL_CHECKPOINT, 0)
        return every if every and every > 0 else None

    @property
    def buffer_records(self) -> int:
        """Reduce→map channel buffer threshold (§3.3)."""
        return self.conf.get_int(IterKeys.BUFFER_RECORDS, 2048)

    def part_path(self, pair: int) -> str:
        return f"{self.output_path}/part-{pair:05d}"


@dataclass
class IterativeRunResult:
    """Outcome of an iMapReduce run."""

    job: IterativeJob
    metrics: RunMetrics
    final_paths: list[str]
    iterations_run: int
    converged: bool
    terminated_by: str  # "maxiter" | "threshold" | "aux"
    final_distance: float | None = None
    migrations: list[dict] = field(default_factory=list)
    recoveries: int = 0
