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

This module holds the pieces every backend shares:

* :data:`FOLDS` — the one table of algebras, ``sum`` and ``min``: each
  entry's merge ``⊕``, record identity, idempotence, priority rule (how
  much applying a pending delta would move the state) and the left fold
  a declared reducer (``Phase.fold``) is checked against.  Both are
  commutative monoids (identity, commutativity, associativity — which
  subsumes delta-composition ``s ⊕ (d₁ ⊕ d₂) = (s ⊕ d₁) ⊕ d₂``), which
  is all Maiter asks of ``⊕``; the columnar executors' numpy twins
  (:func:`~repro.imapreduce.columnar._reduction`) go by the same names.
* :class:`AccumJob` — the job model: a fold name plus a delta-emitting
  update function ``update(key, delta, state, static_value, emit)``
  called once per applied delta.
* :class:`AccumPair` — one pair's engine state (state dict, pending
  delta queue, priority scheduling).  The record-accum pair executor
  (:class:`~repro.imapreduce.localrun.RecordAccum`, the same object on
  the serial and the multiprocess backend) and the simulated async
  schedule drive the *same* class through the same call sequence,
  which is what makes serial/parallel runs record-for-record identical
  per mode.

Kernel-less jobs run columnar: on the serial and the multiprocess
backend a job whose partitioner has ``bind_array`` runs
:class:`~repro.imapreduce.columnar.ColumnarAccum` — dense per-pair
arrays, rounds that cost O(active keys) — through
:class:`~repro.imapreduce.localrun.UpdateKernel`, which calls the job's
``update_fn`` once per changed key in :class:`AccumPair`'s application
order.  Its runs equal :class:`AccumPair`'s in state, rounds and work
counters, and in the pending-mass trace wherever the state dtype can
hold ∞ (int64 state stands its max in for it); :class:`AccumPair` stays
the reference, and what the seeded simulated host runs.

Scheduling and termination
--------------------------

Execution is *round-synchronized asynchronous*: rounds keep the
all-to-all skip-empty exchange (the mesh's gather contract needs a
frame or manifest from every peer), but within a round each pair
drains only its highest-priority pending keys (``mode="async"``
applies the top ``mapred.accum.topfrac`` fraction by priority;
``mode="sync"`` drains everything — the synchronous reference the
fixpoint-equivalence oracle compares against).  Termination is a
global accumulated-progress check instead of the iteration-distance
barrier: stop when the summed priority of every pending delta is at or
below ``mapred.iterjob.disthresh``.

The priority queue is kept between rounds (Maiter's state table holds a
priority field per key, updated when a delta is received).  Priority is
a pure function of ``(state[k], pending[k])``; ``pending[k]`` changes
only in ``absorb`` and ``state[k]`` only in ``apply``, which pops ``k``
— so :class:`AccumPair` caches each pending key's priority, ``absorb``
marks the keys it touches dirty, and one refresh step re-scores those
alone, never walking the queue.  ``priority_evals`` counts the
evaluations: each is caused by at least one absorbed record.

The queue holds live deltas only when the fold is idempotent
(:attr:`Fold.idempotent`: ``x ⊕ x = x``, which with commutativity and
associativity makes ``⊕`` a semilattice join — ``min`` is one, ``+``
is not).  There ``absorb`` drops an offer ``d``
with ``s ⊕ d = s`` for the key's state ``s``: ``s`` only moves while
the key is popped, to ``s' = s ⊕ p`` for some pending ``p``, and
``s ⊕ (p ⊕ d) = (s ⊕ d) ⊕ p = s'`` — with ``d`` or without, the same
state, so the same updates and the same default priorities.  Under a
total order (``min``) the pending value itself is unchanged too: a live
``p`` beats ``s``, hence beats ``d``.  Keeping ``d`` would only park a
priority-0 entry that async rounds never pop (on sssp, four for every
live one) and sync rounds drain for nothing.  The mass is
``math.fsum`` over the cached priorities — exactly rounded, so it does
not depend on the order keys entered the queue — and ``inf`` once the
exact sum leaves the float range.

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
from operator import add, itemgetter
from typing import Any, Callable

from ..common.config import IterKeys, JobConf
from ..common.errors import ConfigError
from ..common.partition import HashPartitioner, Partitioner
from ..common.records import sort_records

__all__ = [
    "FOLDS",
    "AccumJob",
    "AccumPair",
    "AccumRunResult",
    "DEFAULT_TOP_FRACTION",
    "partition_state",
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
    #: Optional columnar delta twin (see
    #: :class:`~repro.imapreduce.columnar.AccumKernel`): dense pending
    #: arrays with an active-key mask replace the per-record loops.
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


class AccumPair:
    """One pair's accumulative engine: state, pending queue, scheduler.

    Every backend drives this class through the identical sequence —
    ``mass → select → apply → absorb`` per round, pairs in ascending
    id, incoming batches in ascending source-pair order — so per-mode
    results are bit-identical across serial and parallel runs (dict
    iteration order is insertion order, and the insertion sequences
    match by construction).
    """

    __slots__ = (
        "pair",
        "fold",
        "state",
        "pending",
        "static",
        "updates_processed",
        "deltas_emitted",
        "priority_evals",
        "_prio",
        "_dirty",
        "_mass",
    )

    def __init__(self, pair: int, fold: str, static_table: dict,
                 keys=(), initial_state=None):
        self.pair = pair
        self.fold = FOLDS[fold]
        self.static = static_table
        ident = self.fold.identity
        #: Key universe materialized up front (static keys), so the
        #: final state covers unreached keys at the identity — matching
        #: the synchronous executors' full state records.
        self.state: dict[Any, Any] = {k: ident for k in keys}
        #: Warm start (incremental mode): memoized converged values are
        #: *preloaded* — written into the state without running the
        #: update function, so no propagation fires for them.  Feeding
        #: them through ``absorb`` instead would re-emit every key's
        #: downstream deltas (a full recomputation, and a wrong fixpoint
        #: for non-idempotent algebras like ``+``).
        if initial_state is not None:
            self.state.update(initial_state)
        self.pending: dict[Any, Any] = {}
        #: The priority queue kept between rounds: the cached priority of
        #: each scored pending delta, the keys ``absorb`` touched since
        #: (an insertion-ordered set), and the mass (``None`` once
        #: either changed).
        self._prio: dict[Any, float] = {}
        self._dirty: dict[Any, None] = {}
        self._mass: float | None = 0.0
        self.updates_processed = 0
        self.deltas_emitted = 0
        self.priority_evals = 0

    def absorb(self, records) -> None:
        """Coalesce arriving deltas into the pending queue with ``⊕``
        (exact by the delta-composition law); under an idempotent
        algebra an offer the state already absorbed is dropped."""
        fold = self.fold
        merge = fold.merge
        ident = fold.identity
        drop = fold.idempotent
        state_get = self.state.get
        pending = self.pending
        get = pending.get
        dirty = self._dirty
        for k, d in records:
            if drop:
                s = state_get(k, ident)
                if merge(s, d) == s:
                    continue
            pending[k] = merge(get(k, ident), d)
            dirty[k] = None
        if dirty:
            self._mass = None

    def _refresh(self) -> None:
        """Score the dirty keys still pending and re-fold the mass."""
        if self._mass is not None:
            return
        fold = self.fold
        ident = fold.identity
        state_get = self.state.get
        priority = fold.priority
        pending = self.pending
        prio = self._prio
        evals = 0
        for k in self._dirty:
            if k not in pending:
                continue  # applied before it was scored
            p = priority(state_get(k, ident), pending[k])
            if not p >= 0:  # NaN or negative: the mass check could never fire
                raise bad_priority(fold.name, k, p)
            prio[k] = p
            evals += 1
        self._dirty.clear()
        self.priority_evals += evals
        self._mass = fold_mass(prio.values())

    def mass(self) -> float:
        """Summed priority of every pending delta — this pair's
        contribution to the global accumulated-progress check."""
        self._refresh()
        return self._mass

    def select(self, mode: str, top_fraction: float) -> list:
        """Keys to drain this round.

        ``sync``: every pending key, in key order.  ``async``: the top
        ``top_fraction`` of *active* keys (priority > 0) by descending
        priority, ties broken by key order — the per-pair priority
        queue keyed by pending-delta magnitude.  Both sort like
        :func:`~repro.common.records.sort_records`: natively when the
        keys share one type, by ``order_key`` otherwise.
        """
        pending = self.pending
        if not pending:
            return []
        if mode == "sync":
            return [k for k, _d in sort_records(pending.items())]
        self._refresh()
        ranked = sort_records(kp for kp in self._prio.items() if kp[1] > 0)
        if not ranked:
            return []
        ranked.sort(key=itemgetter(1), reverse=True)  # stable: ties stay in key order
        count = max(1, math.ceil(top_fraction * len(ranked)))
        return [k for k, _p in ranked[:count]]

    def apply(self, job: AccumJob, selected: list, part, outboxes: list) -> int:
        """Pop and apply the selected pending deltas in order; emissions
        append to the ``(keys, values)`` columns ``outboxes[dest_pair]``
        in application order."""
        fold = self.fold
        merge = fold.merge
        ident = fold.identity
        state = self.state
        pending = self.pending
        prio = self._prio
        static_get = self.static.get
        update = job.update_fn
        before = sum(len(vs) for _ks, vs in outboxes)

        def emit(dest, d):
            keys, values = outboxes[part(dest)]
            keys.append(dest)
            values.append(d)

        applied = 0
        for k in selected:
            d = pending.pop(k)
            prio.pop(k, None)
            old = state.get(k, ident)
            new = merge(old, d)
            state[k] = new
            applied += 1
            if new == old:
                continue  # no-op delta: nothing to propagate
            update(k, d, new, static_get(k), emit)
        if applied:
            self._mass = None
        self.updates_processed += applied
        self.deltas_emitted += sum(len(vs) for _ks, vs in outboxes) - before
        return applied

    def final_records(self) -> list:
        return sort_records(self.state.items())


def partition_state(records, num_pairs: int, part) -> list[list]:
    """Partition warm-start state records with the same loop (and
    therefore insertion order) as the initial deltas
    (:func:`~repro.imapreduce.engine.partition_inputs`)."""
    parts: list[list] = [[] for _ in range(num_pairs)]
    if records is not None:
        for rec in records:
            parts[part(rec[0])].append(rec)
    return parts


def check_mode(mode: str) -> None:
    if mode not in ("sync", "async"):
        raise ConfigError(f"unknown accumulative mode {mode!r}")
