"""Accumulative iteration (Maiter mode): delta propagation under a fold.

The synchronous engine ships and reprocesses *full* state every
superstep even when most keys have converged.  Maiter (by the
iMapReduce authors) reformulates fixpoint computations accumulatively:
state starts at the algebra's identity, every update is a *delta*
``v ← v ⊕ Δv``, and the work an applied delta creates is itself a set
of deltas for other keys.  Because ``⊕`` is commutative and
associative, deltas may be coalesced while queued, applied in any
order, and scheduled by impact — only keys whose pending delta would
actually change the state need touching, and only nonzero deltas ever
cross the wire.

This module holds the job model every backend shares:

* :data:`FOLDS` — the one table of algebras, ``sum`` and ``min``: each
  entry's merge ``⊕``, record identity, idempotence, priority rule (how
  much applying a pending delta would move the state) and the left fold
  a declared reducer (``Phase.fold``) is checked against.  Both are
  commutative monoids (identity, commutativity, associativity — which
  subsumes delta-composition ``s ⊕ (d₁ ⊕ d₂) = (s ⊕ d₁) ⊕ d₂``), which
  is all Maiter asks of ``⊕``; the columnar executor's numpy twins
  (:func:`~repro.imapreduce.columnar._reduction`) go by the same names.
* :class:`AccumJob` — the job model: a fold name plus a delta-emitting
  update function ``update(key, delta, state, static_value, emit)``
  called once per applied delta whose merge changed the state.

One executor runs every accumulative job, on every host (serial, the
seeded simulated one, the multiprocess mesh):
:class:`~repro.imapreduce.columnar.ColumnarAccum` — dense per-pair
``state``/``pending`` arrays and an active-key mask, rounds that cost
O(active keys) — with the job's delta kernel or, kernel-less, through
:class:`~repro.imapreduce.localrun.UpdateKernel`, which calls the job's
``update_fn`` once per changed key in application order.  Keys are
ints and routed by the partitioner's ``bind_array``; int64 state stands
its max in for ∞.  The tests hold it to a per-record reference
implementation of the same schedule.

Scheduling and termination
--------------------------

Execution is *round-synchronized asynchronous*: rounds keep the
all-to-all skip-empty exchange (the mesh's gather contract needs a
frame or manifest from every peer), but within a round each pair
drains only its highest-priority pending keys (``mode="async"``
applies the top ``mapred.accum.topfrac`` fraction of live keys by
priority, ties by ascending key; ``mode="sync"`` drains everything —
the synchronous reference the fixpoint-equivalence oracle compares
against).  Termination is a global accumulated-progress check instead
of the iteration-distance barrier: stop when the summed priority of
every pending delta (:func:`fold_mass`) is at or below
``mapred.iterjob.disthresh``.

Under an idempotent fold (:attr:`Fold.idempotent`: ``x ⊕ x = x`` —
``min``, not ``+``) the pending queue holds live deltas only: an offer
``d`` with ``s ⊕ d = s`` for the key's state ``s`` is dropped, which
changes neither the state any schedule reaches nor the updates it
fires, and saves parking a priority-0 entry that async rounds never
pop.

Correctness: for ``min`` algebras the fixpoint is unique and every
schedule reaches it exactly, so async results are *bit-equal* to the
synchronous reference.  For ``+`` algebras the fixpoint of a
contraction is unique but floats fold in schedule order; both runs
stop within ``threshold`` of the fixpoint (for PageRank the unapplied
mass ``m`` bounds the remaining state change by ``m·d/(1−d)``), so the
oracle compares with a tolerance derived from the threshold.  The
delta plane must be exactly-once for ``+`` algebras — a duplicated
delta is silently wrong — which the pipe mesh and the simulated
deferral schedule both guarantee by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Callable

from ..common.config import IterKeys, JobConf
from ..common.errors import ConfigError
from ..common.partition import HashPartitioner, Partitioner

__all__ = [
    "FOLDS",
    "AccumJob",
    "AccumRunResult",
    "DEFAULT_TOP_FRACTION",
    "partition_state",
    "partition_table",
]

#: :data:`IterKeys.TOP_FRACTION` when the job leaves it unset.
DEFAULT_TOP_FRACTION = 0.25

#: ``update(key, delta, state, static_value, emit)`` — called once per
#: applied delta whose merge changed the state; ``state`` is the
#: post-merge value and ``emit(dest_key, delta)`` queues propagation.
UpdateFn = Callable[[Any, Any, Any, Any, Callable[[Any, Any], None]], None]


@dataclass(frozen=True)
class Fold:
    """One accumulative algebra ``(identity, ⊕)`` — an entry of
    :data:`FOLDS`, the one place ``sum`` and ``min`` are defined."""

    name: str
    #: ``⊕``: how a delta merges into a state and into a queued delta.
    merge: Callable[[Any, Any], Any]
    #: The state of a key no delta has reached.
    identity: Any
    #: ``x ⊕ x = x``: a semilattice, whose pending queue drops no-op
    #: offers (module docstring).
    idempotent: bool
    #: The left fold of one key's values that a reducer declaring this
    #: fold (``Phase.fold``) must emit, as the columnar executors fold
    #: them: ``sum`` from ``0``, ``((0+a₀)+a₁)+…``; ``min`` the first
    #: of the least values.
    reduce: Callable[[list], Any]

    def priority(self, state: Any, delta: Any) -> float:
        """Impact of applying ``delta`` to ``state``: ``|state − (state
        ⊕ delta)|`` — 0 for a no-op, ``inf`` when a merge first leaves
        an infinite state."""
        merged = self.merge(state, delta)
        if merged == state:
            return 0.0
        try:
            return abs(state - merged)
        except TypeError:
            return 1.0  # non-numeric state: any change counts equally


#: The two folds, by the name a job declares (``AccumJob.fold``,
#: ``Phase.fold``); :func:`~repro.imapreduce.columnar._reduction` keys
#: their numpy twins by the same names.
FOLDS = {
    "sum": Fold("sum", add, 0.0, False, lambda values: reduce(add, values, 0)),
    "min": Fold("min", min, math.inf, True, min),
}


def bad_priority(fold: str, key, priority: float) -> ConfigError:
    """The refusal of a NaN or negative priority, on either executor."""
    return ConfigError(
        f"fold {fold!r}: priority of key {key!r} is {priority!r}; priorities must be >= 0"
    )


def fold_mass(priorities) -> float:
    """The pending mass: ``math.fsum`` of non-negative priorities, ``inf``
    when the exact sum overflows."""
    try:
        return math.fsum(priorities)
    except OverflowError:
        return math.inf


@dataclass
class AccumJob:
    """An accumulative (Maiter-mode) iterative computation.

    The job model twin of :class:`~repro.imapreduce.job.IterativeJob`:
    the state input (``mapred.iterjob.statepath``) holds the *initial
    deltas* (state starts at the identity everywhere), the static input
    is joined by key exactly as in §3.2, and termination is by global
    pending-progress threshold (``mapred.iterjob.disthresh``) and/or a
    round cap (``mapred.iterjob.maxiter``).
    """

    name: str
    #: ``"sum"`` or ``"min"``: the :data:`FOLDS` entry deltas merge by.
    fold: str
    update_fn: UpdateFn
    output_path: str
    conf: JobConf = field(default_factory=JobConf)
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    num_pairs: int | None = None
    #: Optional vectorised delta kernel (see
    #: :class:`~repro.imapreduce.columnar.AccumKernel`), run in place of
    #: a per-key ``update_fn`` call.
    kernel: Any | None = None

    def __post_init__(self):
        if self.fold not in FOLDS:
            raise ConfigError(
                f"job {self.name!r}: unknown fold {self.fold!r}; "
                f"expected one of {', '.join(FOLDS)}"
            )
        if self.num_pairs is not None and self.num_pairs < 1:
            raise ConfigError(f"job {self.name!r}: num_pairs must be >= 1")
        if self.max_rounds is None and self.threshold is None:
            raise ConfigError(
                f"job {self.name!r}: set maxiter or disthresh so the "
                "accumulative iteration can terminate"
            )
        frac = self.top_fraction
        if not 0.0 < frac <= 1.0:
            raise ConfigError(
                f"job {self.name!r}: {IterKeys.TOP_FRACTION} must be in (0, 1], "
                f"got {frac!r}"
            )

    # -- derived configuration --------------------------------------------
    @property
    def static_path(self) -> str | None:
        return self.conf.get(IterKeys.STATIC_PATH)

    @property
    def static_paths(self) -> list[str | None]:
        """The one static input, as :attr:`IterativeJob.static_paths`
        lists them."""
        return [self.static_path]

    @property
    def max_rounds(self) -> int | None:
        return self.conf.get_int(IterKeys.MAX_ITER)

    @property
    def threshold(self) -> float | None:
        """Global accumulated-progress termination threshold."""
        return self.conf.get_float(IterKeys.DIST_THRESH)

    @property
    def top_fraction(self) -> float:
        frac = self.conf.get_float(IterKeys.TOP_FRACTION, DEFAULT_TOP_FRACTION)
        return DEFAULT_TOP_FRACTION if frac is None else frac

    def part_path(self, pair: int) -> str:
        return f"{self.output_path}/part-{pair:05d}"


@dataclass
class AccumRunResult:
    """Outcome of an accumulative run (any backend, any mode)."""

    state: list
    rounds: int
    converged: bool
    terminated_by: str  # "progress" | "maxrounds"
    pending_mass: float
    updates_processed: int
    deltas_emitted: int
    #: Cross-pair delta records (the data the synchronous mode would
    #: have shipped as full state; async must ship strictly fewer).
    deltas_shipped: int
    mode: str  # "sync" | "async" | "simulated"
    #: Per-round convergence-vs-work rows (``keep_trace=True``):
    #: cumulative updates/emitted/shipped and the pending mass at the
    #: start of each round, plus the final termination row.
    trace: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    # Parallel-backend extras.
    num_workers: int | None = None
    worker_stats: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def state_dict(self) -> dict:
        return dict(self.state)

    def counter(self, name: str) -> int:
        """Sum a mesh counter over the parallel backend's workers."""
        return sum(int(s.get(name, 0)) for s in self.worker_stats)


def partition_state(records, num_pairs: int, part) -> list[list]:
    """``(key, value)`` records (``None``: none) split by ``part``, the
    job's bound partitioner, in one loop — so each pair's records keep
    their input order (the record executors' split)."""
    parts: list[list] = [[] for _ in range(num_pairs)]
    if records is not None:
        for rec in records:
            parts[part(rec[0])].append(rec)
    return parts


def partition_table(table: dict, num_pairs: int, part) -> list[dict]:
    """A static table split by ``part`` into one ``key → row`` dict per
    pair, in table order (§3.2.1: static data is partitioned with the
    function that shuffles the state)."""
    parts: list[dict] = [{} for _ in range(num_pairs)]
    for key, row in table.items():
        parts[part(key)][key] = row
    return parts


def check_mode(mode: str) -> None:
    if mode not in ("sync", "async"):
        raise ConfigError(f"unknown accumulative mode {mode!r}")
