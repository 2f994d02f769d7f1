"""Accumulative iteration (Maiter mode): delta propagation under an algebra.

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

* :class:`Accumulator` — the algebra: identity element, merge op, and
  a priority measure (how much applying a pending delta would move the
  state).  The algebra laws (identity, commutativity, associativity —
  which subsumes delta-composition ``s ⊕ (d₁ ⊕ d₂) = (s ⊕ d₁) ⊕ d₂``)
  are checked over sample values at job build time, so a
  non-conforming merge op is a :class:`ConfigError`, not a silent
  wrong fixpoint.
* :class:`AccumJob` — the job model: an accumulator plus a
  delta-emitting update function ``update(key, delta, state,
  static_value, emit)`` called once per applied delta.
* :class:`AccumPair` — one pair's engine state (state dict, pending
  delta queue, priority scheduling).  The record-accum pair executor
  (:class:`~repro.imapreduce.localrun.RecordAccum`, the same object on
  the serial and the multiprocess backend) and the simulated async
  schedule drive the *same* class through the same call sequence,
  which is what makes serial/parallel runs record-for-record identical
  per mode.

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

The queue holds live deltas only when the algebra is idempotent
(:attr:`Accumulator.idempotent`: ``x ⊕ x = x`` on every sample, which
with commutativity and associativity makes ``⊕`` a semilattice join —
``min`` is one, ``+`` is not).  There ``absorb`` drops an offer ``d``
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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable

from ..common.config import IterKeys, JobConf
from ..common.errors import ConfigError
from ..common.partition import HashPartitioner, Partitioner
from ..common.records import sort_records

__all__ = [
    "Accumulator",
    "AccumJob",
    "AccumPair",
    "AccumRunResult",
    "SUM",
    "MIN",
    "TOP_FRACTION_KEY",
    "DEFAULT_TOP_FRACTION",
    "partition_state",
]

#: Conf key: fraction of a pair's *active* pending keys drained per
#: async round (by descending priority).  1.0 degenerates to sync.
TOP_FRACTION_KEY = "mapred.accum.topfrac"
DEFAULT_TOP_FRACTION = 0.25

#: ``update(key, delta, state, static_value, emit)`` — called once per
#: applied delta whose merge changed the state; ``state`` is the
#: post-merge value and ``emit(dest_key, delta)`` queues propagation.
UpdateFn = Callable[[Any, Any, Any, Any, Callable[[Any, Any], None]], None]


def _agree(a: Any, b: Any) -> bool:
    """Law-check equality: exact for non-floats, tight isclose for
    floats (so a genuine float ``+`` passes but ``mean`` cannot)."""
    if a == b:
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return False


@dataclass(frozen=True)
class Accumulator:
    """The accumulative algebra: ``(identity, ⊕)`` plus a priority.

    ``samples`` feed the build-time law validation — pick values
    representative of the job's state domain (include the identity and,
    for ``min``, ``inf``).  ``priority_fn(state, delta)`` overrides the
    default impact measure ``|state − (state ⊕ delta)|`` (0 when the
    merge is a no-op, ``inf`` when it first reaches an infinite state).
    """

    name: str
    identity: Any
    merge: Callable[[Any, Any], Any]
    samples: tuple = ()
    priority_fn: Callable[[Any, Any], float] | None = None

    def validate(self) -> None:
        """Check the algebra laws over the samples; raise ConfigError.

        Associativity subsumes the delta-composition law the pending
        queues rely on: ``merge(s, d1 ⊕ d2) == merge(merge(s, d1), d2)``
        is exactly associativity with ``s, d1, d2`` drawn from the same
        sample set.  Idempotence is not a law: :attr:`idempotent` reads
        it off the same samples.
        """
        samples = tuple(self.samples)
        if len(samples) < 3:
            raise ConfigError(
                f"accumulator {self.name!r}: needs >= 3 sample values to "
                "validate the algebra laws"
            )
        merge = self.merge
        ident = self.identity
        for x in samples:
            if not _agree(merge(x, ident), x) or not _agree(merge(ident, x), x):
                raise ConfigError(
                    f"accumulator {self.name!r}: {ident!r} is not an "
                    f"identity for sample {x!r}"
                )
        for a, b in itertools.product(samples, repeat=2):
            if not _agree(merge(a, b), merge(b, a)):
                raise ConfigError(
                    f"accumulator {self.name!r}: merge is not commutative "
                    f"on samples ({a!r}, {b!r})"
                )
        for a, b, c in itertools.product(samples, repeat=3):
            if not _agree(merge(merge(a, b), c), merge(a, merge(b, c))):
                raise ConfigError(
                    f"accumulator {self.name!r}: merge is not associative "
                    f"on samples ({a!r}, {b!r}, {c!r}) — pending deltas "
                    "cannot be coalesced"
                )

    @cached_property
    def idempotent(self) -> bool:
        """``merge(x, x) == x`` exactly on every sample: a semilattice,
        whose pending queue drops no-op offers (module docstring)."""
        return bool(self.samples) and all(self.merge(x, x) == x for x in self.samples)

    def priority(self, state: Any, delta: Any) -> float:
        """Impact of applying ``delta`` to ``state`` (0 = no-op)."""
        if self.priority_fn is not None:
            return self.priority_fn(state, delta)
        merged = self.merge(state, delta)
        if merged == state:
            return 0.0
        try:
            return abs(state - merged)
        except TypeError:
            return 1.0  # non-numeric state: any change counts equally


def _merge_sum(a, b):
    return a + b


def fold_mass(priorities) -> float:
    """The pending mass: ``math.fsum`` of non-negative priorities, ``inf``
    when the exact sum overflows."""
    try:
        return math.fsum(priorities)
    except OverflowError:
        return math.inf


#: The two algebras the shipped workloads use.  ``SUM`` samples are
#: dyadic rationals (exact float addition) of comparable magnitude, so
#: the associativity check is noise-free; ``MIN`` includes ``inf``
#: because unreached sssp/components state starts there.
SUM = Accumulator(
    "sum", 0.0, _merge_sum, samples=(0.0, 1.0, -0.75, 0.5, 2.25, 0.125)
)
MIN = Accumulator(
    "min", math.inf, min, samples=(math.inf, 0.0, 3.5, -2.0, 7.25, 1)
)


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
    accumulator: Accumulator
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
        self.accumulator.validate()
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
                f"job {self.name!r}: {TOP_FRACTION_KEY} must be in (0, 1], "
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
        frac = self.conf.get_float(TOP_FRACTION_KEY, DEFAULT_TOP_FRACTION)
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
        "acc",
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

    def __init__(self, pair: int, accumulator: Accumulator, static_table: dict,
                 keys=(), initial_state=None):
        self.pair = pair
        self.acc = accumulator
        self.static = static_table
        ident = accumulator.identity
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
        acc = self.acc
        merge = acc.merge
        ident = acc.identity
        drop = acc.idempotent
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
        acc = self.acc
        ident = acc.identity
        state_get = self.state.get
        priority = acc.priority
        pending = self.pending
        prio = self._prio
        evals = 0
        for k in self._dirty:
            if k not in pending:
                continue  # applied before it was scored
            p = priority(state_get(k, ident), pending[k])
            if not p >= 0:  # NaN or negative: the mass check could never fire
                raise ConfigError(
                    f"accumulator {acc.name!r}: priority of key {k!r} "
                    f"is {p!r}; priorities must be >= 0"
                )
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
        acc = self.acc
        merge = acc.merge
        ident = acc.identity
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
