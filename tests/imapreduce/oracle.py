"""The record oracle of the accumulative executor.

Every accumulative job runs on one executor,
:class:`~repro.imapreduce.columnar.ColumnarAccum`, on every host.  This
module is its per-record reference: :class:`AccumPair` (one pair's
state dict, pending queue and priority scheduler over Python records)
and :class:`RecordAccum` (the pair executor that drives one per hosted
pair), which :func:`run_oracle` runs on the serial and the seeded
simulated in-process hosts through their ``executor`` seam.  The
differential tests hold the columnar executor to it — state, rounds,
``terminated_by``, the work counters and the pending-mass trace — and
only the oracle counts ``priority_evals``.

The priority queue is kept between rounds (Maiter's state table holds a
priority field per key, updated when a delta is received).  Priority is
a pure function of ``(state[k], pending[k])``; ``pending[k]`` changes
only in ``absorb`` and ``state[k]`` only in ``apply``, which pops ``k``
— so :class:`AccumPair` caches each pending key's priority, ``absorb``
marks the keys it touches dirty, and one refresh step re-scores those
alone, never walking the queue.  ``priority_evals`` counts the
evaluations: each is caused by at least one absorbed record.

The drop rule.  The queue holds live deltas only when the fold is
idempotent (:attr:`~repro.imapreduce.accum.Fold.idempotent`: ``x ⊕ x =
x``, which with commutativity and associativity makes ``⊕`` a
semilattice join — ``min`` is one, ``+`` is not).  There ``absorb``
drops an offer ``d`` with ``s ⊕ d = s`` for the key's state ``s``:
``s`` only moves while the key is popped, to ``s' = s ⊕ p`` for some
pending ``p``, and ``s ⊕ (p ⊕ d) = (s ⊕ d) ⊕ p = s'`` — with ``d`` or
without, the same state, so the same updates and the same default
priorities.  Under a total order (``min``) the pending value itself is
unchanged too: a live ``p`` beats ``s``, hence beats ``d``.  Keeping
``d`` would only park a priority-0 entry that async rounds never pop
(on sssp, four for every live one) and sync rounds drain for nothing.
The mass is ``math.fsum`` over the cached priorities — exactly rounded,
so it does not depend on the order keys entered the queue — and ``inf``
once the exact sum leaves the float range.
"""

import dataclasses
import math
import time
from operator import itemgetter
from typing import Any

from repro.common.partition import bind_partitioner
from repro.common.records import sort_records
from repro.imapreduce import ExecutionPlan
from repro.imapreduce.accum import (
    FOLDS,
    AccumJob,
    AccumRunResult,
    bad_priority,
    fold_mass,
    partition_state,
    partition_table,
)
from repro.imapreduce.engine import SHUFFLE, AccumVerdict
from repro.imapreduce.localrun import RecordSync, host_loopback, host_simulated


class AccumPair:
    """One pair's accumulative engine: state, pending queue, scheduler.

    :class:`RecordAccum` drives it through the columnar executor's
    sequence — ``mass → select → apply → absorb`` per round, pairs in
    ascending id, incoming batches in ascending source-pair order — so
    per-mode results are reproducible on any host (dict iteration order
    is insertion order, and the insertion sequences match by
    construction).
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


class RecordAccum:
    """Accumulative (Maiter-mode) rounds over one :class:`AccumPair` per
    hosted pair: drain the priority queues (``accum_mode`` selects sync
    or top-fraction async scheduling), apply, and exchange only the
    nonzero delta batches, as ``(dest, src, keys, values)`` columns.
    Pairs ascending, batches absorbed in ascending source-pair order:
    the round protocol of the columnar executor."""

    report_lag = 0
    plan = [(SHUFFLE, 0)]
    max_steps = 10**9  # the verdict policy enforces ``max_rounds``
    join = staticmethod(RecordSync.join)

    @classmethod
    def split_inputs(cls, job, delta_records, static_records, num_pairs: int, part,
                     warm=None):
        """Each pair's ``(initial deltas, warm-start records)`` and ``key
        → static value`` table, by the record partition loop (one
        insertion order: the deltas', the warm state's and the table's)."""
        table = dict((static_records or {}).get(job.static_paths[0] or "", ()))
        deltas = partition_state(delta_records, num_pairs, part)
        return (list(zip(deltas, partition_state(warm, num_pairs, part))),
                [partition_table(table, num_pairs, part)])

    def __init__(self, cfg, timings: dict):
        self.job = job = cfg.job
        self.timings = timings
        self.num_pairs = cfg.num_pairs
        self.pairs = sorted(cfg.state_parts)
        self.mode = cfg.accum_mode
        self.part = bind_partitioner(job.partitioner, cfg.num_pairs)
        self.shipped = 0  # cumulative cross-pair delta records
        tables = cfg.static_parts[0]
        self.engines = {}
        for p in self.pairs:
            deltas, warm = cfg.state_parts[p]
            self.engines[p] = AccumPair(p, job.fold, tables[p], keys=tables[p],
                                        initial_state=warm)
            self.engines[p].absorb(deltas)

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
        # Every pair's fraction first, pairs ascending: the simulated
        # host's jitter draws once per pair per round.
        selections = {
            p: self.engines[p].select(self.mode, self.fraction(p)) for p in self.pairs
        }
        self.timings["schedule"] += perf() - started
        started = perf()
        items = []
        for p in self.pairs:
            outboxes = [([], []) for _ in range(self.num_pairs)]
            self.engines[p].apply(self.job, selections[p], self.part, outboxes)
            for q, (keys, values) in enumerate(outboxes):
                if values:
                    items.append((q, p, keys, values))
                    if q != p:
                        self.shipped += len(values)
        self.timings["delta"] += perf() - started
        return items

    def absorb(self, kind, phase, merged) -> None:
        started = time.perf_counter()
        for q in self.pairs:
            for _q, _src, keys, values in merged.get(q, ()):
                self.engines[q].absorb(zip(keys, values))
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


def run_oracle(job: AccumJob, deltas, static=None, plan: ExecutionPlan | None = None, *,
               initial_state=None, **fields) -> AccumRunResult:
    """The oracle's run of ``job``: what ``execute(job, deltas, static,
    plan)`` runs — with ``initial_state``, what ``run_accum_local``'s
    warm start runs — on :class:`RecordAccum`.  ``plan`` (default
    ``ExecutionPlan(**fields)``) names an in-process host, ``serial`` or
    ``simulated``; ``mode`` defaults to ``"async"``."""
    plan = plan or ExecutionPlan(**fields)
    plan = dataclasses.replace(plan, mode=plan.mode or "async")
    policy = AccumVerdict(job, plan.num_pairs, plan.keep_trace)
    part = bind_partitioner(job.partitioner, plan.num_pairs)
    parts = RecordAccum.split_inputs(job, deltas, static, plan.num_pairs, part, initial_state)
    host = {"serial": host_loopback, "simulated": host_simulated}[plan.backend]
    finals, _mesh = host(job, RecordAccum, policy, *parts, plan, {"accum_mode": plan.mode})
    mode = "simulated" if plan.backend == "simulated" else plan.mode
    return AccumRunResult(mode=mode, **policy.outcome(finals, RecordAccum))
