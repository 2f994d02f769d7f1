"""Incremental recomputation for evolving inputs (i2MapReduce mode).

A production graph changes continuously — edges appear, disappear, and
re-weight between refreshes — but every engine in this repository so
far answers a change with a cold full rerun.  i2MapReduce (by the
iMapReduce authors) shows the alternative: *memoize* the converged
per-pair state of the previous run (their MRBG-Store), compute the set
of keys a :class:`DataDelta` can actually affect (*change
propagation*), and recompute only those, warm-starting everything else
from the memo.  This module is that mode for all three executors:

* :class:`DataDelta` — edge/point inserts, deletes, and weight updates
  against the static partitions, validated against the resident tables.
* :class:`MemoStore` — converged-state memoization on the
  protocol-5/blake2b checkpoint spool plane
  (:class:`~repro.imapreduce.checkpoint.CheckpointStore`): per-pair
  state payloads under an atomically-committed, digest-validated
  manifest, with retention GC.
* :func:`patch_static_table` — applies a delta to a resident static
  partition *in place*, preserving the adjacency-row order a direct
  rebuild from the mutated edge list would produce, so the columnar
  kernels' ``prepare`` CSR columns rebuilt from the patched table are
  bit-identical to ones built from scratch (the round-trip property
  test's contract).
* :class:`ChangeModel` — one algorithm's change rules in one record,
  built by :func:`change_model` from the ``_ALGORITHMS`` table: the
  adjacency shape, the algebra and its identity, the keys a cold run
  seeds (:meth:`~ChangeModel.seeds`) and the change-propagation logic
  (:meth:`~ChangeModel.plan`): from the delta and the memoized state it
  derives the *dirty frontier* (keys that receive perturbation deltas),
  the *reset set* (keys whose memoized value may no longer be a valid
  fixpoint component), and the perturbation deltas themselves.
  :func:`plan_changes` is that call by algorithm name.
* :func:`warm_sync_state` — the memo as a synchronous engine's initial
  state.  Warm-started *execution* — both algebras, every backend — is
  :func:`repro.imapreduce.plan.execute` with a
  :class:`~repro.imapreduce.plan.WarmStart` (a model and a delta) in
  the plan.

Change propagation per algebra
------------------------------

**Sum algebras (pagerank).**  The fixpoint solves the linear system
``x = b + d·Mᵀx``.  The memoized ``x*`` satisfies the *old* system, so
on the accumulative engine a delta becomes an injected residual, not a
restart: for every source ``u`` whose out-row changed, retract the old
contribution ``d·x*[u]/|N_old(u)|`` from each old neighbour and grant
``d·x*[u]/|N_new(u)|`` to each new neighbour — together exactly
``d·(M_new − M_old)ᵀ·x*``, plus the ``Δb`` teleport correction when the
node count changed.  Because the system is a contraction, iterating
these perturbations from the preloaded ``x*`` converges to the new
fixpoint; no keys are reset.

**Min algebras (sssp, components).**  Inserted edges and weight
*decreases* are monotone improvements: inject the offer
``state[u] ⊕ w`` at the target and let it drain.  Deletions and weight
*increases* are non-monotone — a memoized distance may have routed
through the removed edge — so the plan conservatively *invalidates*
the forward-reachable set (old graph) of every worsened edge's head:
those keys restart at the identity, re-seeded by their cold-run seeds
and by boundary offers from every surviving in-edge whose source kept
its memo.  Keys outside the reset set cannot have routed through a
worsened edge (they would be reachable from its head), so their memo
stands.  Every surviving value is the same left-folded path sum the
cold rerun computes, which is why warm min-algebra runs are *bit
exact* against the cold rerun — the bar the
``incremental-differential`` oracle enforces.
"""

from __future__ import annotations

import math
import random
from collections import ChainMap, deque
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..common.errors import JobError
from ..common.partition import bind_partitioner
from ..common.records import order_key, sort_records
import numpy as np

from .accum import FOLDS
from .checkpoint import CheckpointStore
from .columnar import StateColumns, _by_pair, concat_broadcast, decode_columnar
from .columnar import narrow_ints, widen_ints

__all__ = [
    "DeltaError",
    "DataDelta",
    "AdjacencyKind",
    "ADJACENCY_KINDS",
    "MemoStore",
    "ChangePlan",
    "ChangeModel",
    "change_model",
    "patch_static_table",
    "plan_changes",
    "cold_rerun_inputs",
    "warm_sync_state",
    "random_edge_churn",
]


class DeltaError(JobError):
    """A :class:`DataDelta` is malformed or inconsistent with the data."""


@dataclass(frozen=True)
class AdjacencyKind:
    """Shape of one algorithm's static adjacency rows.

    ``weighted`` rows hold ``(target, weight)`` entries, unweighted rows
    bare targets; ``symmetric`` tables store every undirected edge in
    both endpoint rows (components); ``sorted_rows`` keeps each row in
    sorted order after a patch (the direct-build convention of
    :func:`repro.algorithms.components.static_records`) — unsorted
    kinds preserve edge-list order: survivors keep their position,
    insertions append, matching what
    :meth:`~repro.graph.digraph.Digraph.from_edges`'s stable sort
    produces from the mutated edge list.
    """

    weighted: bool = False
    symmetric: bool = False
    sorted_rows: bool = False


#: algorithm -> (adjacency shape, fold, the planner parameter it
#: takes).  The one table a :class:`ChangeModel` is built from.
_ALGORITHMS = {
    "pagerank": (AdjacencyKind(), "sum", "damping"),
    "sssp": (AdjacencyKind(weighted=True), "min", "source"),
    "components": (AdjacencyKind(symmetric=True, sorted_rows=True), "min", None),
}

#: The adjacency shapes by algorithm name: the lookup the benchmark
#: imports.  The package itself reads ``ChangeModel.kind``.
ADJACENCY_KINDS = {name: row[0] for name, row in _ALGORITHMS.items()}


def _row(algorithm: str) -> tuple:
    if algorithm not in _ALGORITHMS:
        raise DeltaError(f"no incremental support for algorithm {algorithm!r} "
                         f"(supported: {', '.join(_ALGORITHMS)})")
    return _ALGORITHMS[algorithm]


@dataclass(frozen=True)
class DataDelta:
    """One batch of mutations against the static input.

    * ``insert_edges`` — ``(u, v)`` for unweighted kinds, ``(u, v, w)``
      for weighted ones; both endpoints must already exist (or arrive
      via ``insert_nodes`` in the same delta).
    * ``delete_edges`` — ``(u, v)``; the edge must exist.
    * ``update_edges`` — ``(u, v, w)`` weight updates, weighted kinds
      only.
    * ``insert_nodes`` — point inserts: new keys with (initially) empty
      adjacency.  Point *deletes* are expressed by deleting every
      incident edge — the key stays in the universe, inert.
    """

    insert_edges: tuple = ()
    delete_edges: tuple = ()
    update_edges: tuple = ()
    insert_nodes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "insert_edges", tuple(self.insert_edges))
        object.__setattr__(self, "delete_edges", tuple(self.delete_edges))
        object.__setattr__(self, "update_edges", tuple(self.update_edges))
        object.__setattr__(self, "insert_nodes", tuple(self.insert_nodes))

    @property
    def size(self) -> int:
        """Total mutation count."""
        return (
            len(self.insert_edges)
            + len(self.delete_edges)
            + len(self.update_edges)
            + len(self.insert_nodes)
        )

    def is_empty(self) -> bool:
        return self.size == 0

    def validate(self, kind: AdjacencyKind) -> None:
        want = 3 if kind.weighted else 2
        for name, edges, arity in (
            ("insert_edges", self.insert_edges, want),
            ("delete_edges", self.delete_edges, 2),
            ("update_edges", self.update_edges, 3),
        ):
            for edge in edges:
                if len(edge) != arity:
                    raise DeltaError(
                        f"{name} entries must have {arity} fields for this "
                        f"input, got {edge!r}"
                    )
        if self.update_edges and not kind.weighted:
            raise DeltaError("weight updates need a weighted input")
        seen: set = set()
        for edge in (*self.insert_edges, *self.delete_edges, *self.update_edges):
            key = (edge[0], edge[1])
            if key in seen:
                raise DeltaError(f"edge {key!r} is mutated twice in one delta")
            seen.add(key)
            if kind.symmetric:
                seen.add((edge[1], edge[0]))
        if len(set(self.insert_nodes)) != len(self.insert_nodes):
            raise DeltaError("duplicate keys in insert_nodes")

    def to_tuple(self) -> tuple:
        """JSON-friendly form (campaign specs pin these)."""
        return (
            tuple(tuple(e) for e in self.insert_edges),
            tuple(tuple(e) for e in self.delete_edges),
            tuple(tuple(e) for e in self.update_edges),
            tuple(self.insert_nodes),
        )

    @staticmethod
    def from_tuple(spec) -> "DataDelta":
        ins, dels, upds, nodes = spec
        return DataDelta(
            insert_edges=tuple(tuple(e) for e in ins),
            delete_edges=tuple(tuple(e) for e in dels),
            update_edges=tuple(tuple(e) for e in upds),
            insert_nodes=tuple(nodes),
        )


# ------------------------------------------------------ static patching --
def _row_target(entry, weighted: bool):
    return entry[0] if weighted else entry


def _directed(edges, symmetric: bool):
    """Expand undirected edge ops to both stored directions (directed
    kinds store them as they are)."""
    if not symmetric:
        return edges
    return (e for u, v, *rest in edges for e in ((u, v, *rest), (v, u, *rest)))


def patch_static_table(
    table: dict, delta: DataDelta, kind: AdjacencyKind
) -> set:
    """Apply ``delta`` to a resident static partition table *in place*.

    Returns the set of source keys whose rows changed (plus inserted
    nodes).  Row order is preserved exactly as a direct rebuild from
    the mutated edge list would produce it — deletions keep survivors
    in position, insertions append, ``sorted_rows`` kinds re-sort —
    which is what makes rebuilt kernel ``prepare`` columns bit-equal to
    from-scratch ones.  The edits are grouped by source and checked in
    delta order (deletes, updates, inserts) against their row's targets,
    and each dirty row is rebuilt once; a refused delta — the message
    names a refused edit — leaves ``table`` as it was.
    """
    delta.validate(kind)
    weighted = kind.weighted
    for u in delta.insert_nodes:
        if u in table:
            raise DeltaError(f"insert_nodes key {u!r} already exists")
    rows = {u: () for u in delta.insert_nodes}
    known = set(table) | set(rows)
    by_row: dict = {}  # source -> its edits, in delta order
    for u, v in _directed(delta.delete_edges, kind.symmetric):
        by_row.setdefault(u, []).append(("delete_edges", v, None))
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        by_row.setdefault(u, []).append(("update_edges", v, w))
    for u, v, *rest in _directed(delta.insert_edges, kind.symmetric):
        for end, key in (("source", u), ("target", v)):
            if key not in known:
                raise DeltaError(f"insert_edges names unknown {end} {key!r}")
        by_row.setdefault(u, []).append(("insert_edges", v, rest[0] if weighted else None))
    for u, edits in by_row.items():
        row = rows.get(u, table.get(u))
        if row is None:
            raise DeltaError(f"{edits[0][0]} names unknown source {u!r}")
        # One pass over the row while it is hot: its targets, then each
        # edit checked against them in order, then one rebuild.
        targets = set(map(itemgetter(0), row)) if weighted else set(row)
        deleted, updated, appended = set(), {}, []
        for name, v, w in edits:
            present = v in targets
            if present == (name == "insert_edges"):
                raise DeltaError(f"{name} edge ({u!r}, {v!r}) "
                                 f"{'already present' if present else 'not present'}")
            if name == "insert_edges":
                targets.add(v)
                appended.append((v, w) if weighted else v)
            elif name == "delete_edges":
                targets.discard(v)
                deleted.add(v)
            else:
                updated[v] = w
        if deleted:
            row = tuple(e for e in row if (e[0] if weighted else e) not in deleted)
        if updated:  # an entry not re-weighted is kept, not rebuilt
            row = tuple([e if e[0] not in updated else (e[0], updated[e[0]]) for e in row])
        rows[u] = row + tuple(appended) if appended else row
    if kind.sorted_rows:
        rows = {u: tuple(sorted(row)) for u, row in rows.items()}
    table.update(rows)
    return set(rows)


# ---------------------------------------------------- change propagation --
@dataclass
class ChangePlan:
    """What a delta obliges the warm run to recompute.

    ``perturbation`` is the injected-delta record list for the
    accumulative engines; ``reset_keys`` are memo entries that must
    restart at the algebra identity (min algebras only); ``frontier``
    is the dirty-key set (perturbation targets ∪ resets) — the
    affected-key frontier i2MapReduce's change propagation computes;
    ``dirty_sources`` are the static keys whose rows were patched.
    """

    algorithm: str
    perturbation: list = field(default_factory=list)
    reset_keys: frozenset = frozenset()
    dirty_sources: frozenset = frozenset()
    delta_size: int = 0

    @property
    def frontier(self) -> frozenset:
        return frozenset(k for k, _d in self.perturbation) | self.reset_keys

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "delta_size": self.delta_size,
            "frontier_keys": len(self.frontier),
            "reset_keys": len(self.reset_keys),
            "dirty_sources": len(self.dirty_sources),
            "perturbation_deltas": len(self.perturbation),
        }


@dataclass(frozen=True)
class ChangeModel:
    """One algorithm's change rules: what a warm refresh needs to know.

    ``kind`` is the adjacency shape a delta is patched into; ``fold``
    (``"sum"`` / ``"min"``, a :data:`~repro.imapreduce.accum.FOLDS`
    name) picks the planner and the identity a reset key restarts at;
    :meth:`seeds` are the keys a cold run seeds; ``damping`` (pagerank)
    and ``source`` (sssp) are the one parameter each algorithm's rules
    read.  Built only by :func:`change_model`.
    """

    algorithm: str
    kind: AdjacencyKind
    fold: str
    damping: float | None = None
    source: Any = None

    @property
    def identity(self) -> float:
        return FOLDS[self.fold].identity

    def seeds(self, table: dict) -> list:
        """The initial deltas a cold accumulative run on ``table`` seeds
        (and the offer a reset key re-seeds from)."""
        if self.algorithm == "sssp":
            return [(self.source, 0.0)]
        keys = sorted(table)
        if self.algorithm == "pagerank":
            return [(u, (1.0 - self.damping) / len(keys)) for u in keys]
        return [(u, u) for u in keys]  # components: every key its own label

    def plan(self, table: dict, delta: DataDelta, memo_state: StateColumns) -> ChangePlan:
        """Patch ``table`` in place and derive the change-propagation
        plan; ``memo_state`` is the prior run's converged state, read
        through its arrays (:func:`_lookup`)."""
        planner = _plan_pagerank if self.fold == "sum" else _plan_min
        return planner(self, table, delta, memo_state)


def change_model(
    algorithm: str, *, damping: float | None = None, source: Any = None
) -> ChangeModel:
    """``algorithm``'s :class:`ChangeModel`, keeping the one parameter it
    takes (``damping`` for pagerank, ``source`` for sssp, none for
    components).  :class:`DeltaError` for an algorithm without
    incremental support or a missing parameter."""
    kind, fold, takes = _row(algorithm)
    params = {takes: {"damping": damping, "source": source}[takes]} if takes else {}
    if None in params.values():
        raise DeltaError(f"{algorithm} change planning needs {takes}")
    return ChangeModel(algorithm, kind, fold, **params)


def _lookup(state: StateColumns, keys: list, default) -> list:
    """``state``'s value at each of ``keys`` (the values it would decode
    to), ``default`` where it has none: one ``searchsorted`` over its
    arrays."""
    if not len(state):
        return [default] * len(keys)
    want = np.array(keys, dtype=np.int64)
    idx = np.minimum(np.searchsorted(state.key_array, want), len(state) - 1)
    found = (state.key_array[idx] == want).tolist()
    values = decode_columnar(state.key_array[idx], state.value_array[idx])
    return [v if hit else default for (_k, v), hit in zip(values, found)]


def _plan_pagerank(
    model: ChangeModel, table: dict, delta: DataDelta, state: StateColumns
) -> ChangePlan:
    """Residual injection for the linear sum algebra (see module doc)."""
    touched = {u for u, _v in delta.delete_edges}
    touched |= {u for u, _v in delta.insert_edges}
    old_rows = {u: table.get(u, ()) for u in touched}
    n_old = len(table)
    dirty = patch_static_table(table, delta, model.kind)
    n_new = len(table)

    pert: dict[Any, float] = {}

    def add(key, value):
        if value:
            pert[key] = pert.get(key, 0.0) + value

    touched = sorted(old_rows)
    for u, x in zip(touched, _lookup(state, touched, 0.0)):
        if x == 0.0:
            continue
        old_row, new_row = old_rows[u], table[u]
        if old_row == new_row:
            continue
        if old_row:
            share = model.damping * x / len(old_row)
            for v in old_row:
                add(v, -share)
        if new_row:
            share = model.damping * x / len(new_row)
            for v in new_row:
                add(v, share)
    if n_new != n_old:
        # The teleport vector b = (1−d)/n shifts for *every* node when
        # the universe grows — a full frontier, priced honestly.
        db = (1.0 - model.damping) * (1.0 / n_new - 1.0 / n_old)
        new_nodes = set(delta.insert_nodes)
        for u in sorted(table):
            if u in new_nodes:
                add(u, (1.0 - model.damping) / n_new)
            else:
                add(u, db)
    perturbation = [(k, d) for k, d in pert.items() if d != 0.0]
    return ChangePlan(
        algorithm=model.algorithm,
        perturbation=perturbation,
        dirty_sources=frozenset(dirty),
        delta_size=delta.size,
    )


def _reachable(adjacency: dict, roots: Iterable, weighted: bool) -> set:
    """Forward-reachable closure of ``roots`` (roots included)."""
    seen = set()
    queue = deque(r for r in roots if r in adjacency)
    seen.update(queue)
    while queue:
        u = queue.popleft()
        for entry in adjacency.get(u, ()):
            v = _row_target(entry, weighted)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _plan_min(
    model: ChangeModel, table: dict, delta: DataDelta, state: StateColumns
) -> ChangePlan:
    """Invalidate-and-reseed for min algebras (see module doc)."""
    kind = model.kind
    inf = math.inf
    # The pre-delta adjacency: the rows the patch replaces, over the
    # patched table (read after the patch, while those rows are hot).
    edited = (*delta.delete_edges, *delta.update_edges, *delta.insert_edges)
    sources = {e[0] for e in edited} | ({e[1] for e in edited} if kind.symmetric else set())
    old_rows = {u: table[u] for u in sources if u in table}
    worsened_heads: set = set()
    improvements: list[tuple] = []  # (u, v, offer-weight)
    for u, v in _directed(delta.delete_edges, kind.symmetric):
        worsened_heads.add(v)
    dirty = patch_static_table(table, delta, kind)
    old_table = ChainMap(old_rows, table)
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        ow = dict(old_rows.get(u, ())).get(v)
        if ow is not None and w > ow:
            worsened_heads.add(v)
        elif ow is not None and w < ow:
            improvements.append((u, v, w))
    for u, v, *rest in _directed(delta.insert_edges, kind.symmetric):
        improvements.append((u, v, rest[0] if kind.weighted else 0))

    reset = (
        _reachable(old_table, worsened_heads, kind.weighted)
        if worsened_heads
        else set()
    )

    pert: dict[Any, Any] = {}

    def offer(key, value):
        old = pert.get(key)
        pert[key] = value if old is None else min(old, value)

    if reset:
        seeds = dict(model.seeds(table))
        for k in sorted(reset, key=order_key):
            if k in seeds:
                offer(k, seeds[k])
        # Boundary offers: every surviving in-edge from a non-reset
        # source re-seeds its reset target from the standing memo.
        sources = [a for a in sorted(table, key=order_key) if a not in reset]
        for a, sa in zip(sources, _lookup(state, sources, inf)):
            if sa == inf:
                continue
            for entry in table[a]:
                if kind.weighted:
                    b, w = entry
                else:
                    b, w = entry, 0
                if b in reset:
                    offer(b, sa + w)
    # An edge touching the reset set is covered by its recomputation
    # and boundary offers.
    improvements = [e for e in improvements if e[0] not in reset and e[1] not in reset]
    at_u = _lookup(state, [u for u, _v, _w in improvements], inf)
    at_v = _lookup(state, [v for _u, v, _w in improvements], inf)
    for (_u, v, w), su, sv in zip(improvements, at_u, at_v):
        if su == inf:
            continue
        candidate = su + w
        if candidate < sv:
            offer(v, candidate)
    return ChangePlan(
        algorithm=model.algorithm,
        perturbation=sort_records(pert.items()),
        reset_keys=frozenset(reset),
        dirty_sources=frozenset(dirty),
        delta_size=delta.size,
    )


def plan_changes(
    algorithm: str,
    table: dict,
    delta: DataDelta,
    memo_state: dict,
    *,
    damping: float | None = None,
    source: Any = None,
) -> ChangePlan:
    """:meth:`ChangeModel.plan` of ``change_model(algorithm, damping=…,
    source=…)`` — the signature the benchmark calls, with the memo as a
    ``key → value`` dict."""
    return change_model(algorithm, damping=damping, source=source).plan(
        table, delta, StateColumns.of(memo_state.items()))


def cold_rerun_inputs(
    model: ChangeModel, table: dict, delta: DataDelta
) -> tuple[list, dict]:
    """``(initial deltas, mutated table)`` of the cold rerun a warm
    refresh is judged against; ``table`` itself is left untouched."""
    mutated = dict(table)
    patch_static_table(mutated, delta, model.kind)
    return model.seeds(mutated), mutated


def warm_sync_state(
    memo_state: Iterable[tuple[Any, Any]],
    plan: ChangePlan,
    model: ChangeModel,
) -> list:
    """Warm-start records for the *synchronous* engines: the memo with
    every reset key knocked back to the algebra identity (a stale min
    value would otherwise pin the sync reduce below the true fixpoint
    forever — min never un-improves), and — for the min algebras — the
    plan's offers min-folded back in so the reset region re-seeds
    (source@0, boundary offers) instead of converging to all-∞.  Sum
    perturbations are *residuals* meaningful only to the accumulative
    engine; the sync map recomputes contributions from the state each
    iteration, so the memo passes through untouched there."""
    reset = plan.reset_keys
    state = [(k, model.identity if k in reset else v) for k, v in memo_state]
    if model.fold == "min":
        offers = dict(plan.perturbation)
        known = {k for k, _v in state}
        state = [
            (k, min(v, offers[k]) if k in offers else v) for k, v in state
        ]
        # Inserted nodes have no memo record yet — seed them fresh.
        state.extend(sort_records(
            (k, offers[k]) for k in offers if k not in known
        ))
    return state


# ------------------------------------------------------------ memo store --
#: The memo layout :meth:`MemoStore.save` writes and :meth:`MemoStore.load`
#: reads: 2 spools each pair's state as its key and value arrays.
MEMO_FORMAT = 2


class MemoStore:
    """Converged-state memoization on the checkpoint spool plane.

    The i2MapReduce MRBG-Store analogue: after a run converges, its
    per-pair final state is spooled through
    :meth:`CheckpointStore.write` (the same length-prefixed protocol-5
    frames, blake2b-digested, fsync + atomic rename) and published
    under a committed manifest.  Each ``save`` bumps the manifest
    iteration — the memo *version* — and prunes old versions through
    the store's retention GC, so the directory never grows unboundedly.
    A pair's entry holds its ``keys`` and ``values`` arrays (format
    :data:`MEMO_FORMAT`; ints in their narrowest signed dtype,
    :func:`~repro.imapreduce.columnar.narrow_ints`), out of band in its
    frame.  A trailing meta entry (worker id ``num_pairs``) records the
    format, job name, pair count, and caller metadata, validated on load.
    """

    def __init__(self, root: str, *, keep: int = 2):
        self.store = CheckpointStore(root)
        self.keep = keep

    @property
    def root(self) -> str:
        return self.store.root

    def versions(self) -> list[int]:
        """Committed memo versions, newest first."""
        return [m["iteration"] for m in self.store.manifests()]

    def save(
        self,
        state_records: Iterable[tuple[Any, Any]],
        *,
        job_name: str,
        num_pairs: int,
        partitioner,
        meta: dict | None = None,
    ) -> int:
        """Persist one converged state — a
        :class:`~repro.imapreduce.columnar.StateColumns` as it is, records
        encoded once — split by pair with the partitioner's
        ``bind_array`` (or, without one, its per-key function); returns
        the new memo version."""
        state = StateColumns.of(state_records)
        keys, values = state.key_array, state.value_array
        bind, part = getattr(partitioner, "bind_array", None), bind_partitioner(
            partitioner, num_pairs)
        route = bind(num_pairs) if bind else (
            lambda ks: np.fromiter(map(part, ks.tolist()), np.int64, ks.size))
        manifests = self.store.manifests()
        version = manifests[0]["iteration"] + 1 if manifests else 0
        entries = [
            self.store.write(0, version, p, {"pair": p, "keys": narrow_ints(ks),
                                             "values": narrow_ints(vs)})
            for p, (ks, vs) in enumerate(_by_pair(route, num_pairs, keys, values))
        ]
        entries.append(
            self.store.write(
                0,
                version,
                num_pairs,
                {
                    "memo_meta": {
                        "format": MEMO_FORMAT,
                        "job": job_name,
                        "num_pairs": num_pairs,
                        "meta": dict(meta or {}),
                    }
                },
            )
        )
        self.store.commit(version, 0, entries)
        self.store.gc(keep=self.keep)
        return version

    def load(self, *, job_name: str | None = None) -> tuple[list, dict]:
        """Newest memoized state as ``(state, meta)``: the state is a
        :class:`~repro.imapreduce.columnar.StateColumns`, globally
        key-sorted — the order the engines emit final state in, so a
        memo round-trip is record-for-record stable.  A memo in an older
        format is refused (:class:`DeltaError`): rerun cold."""
        manifests = self.store.manifests()
        if not manifests:
            raise DeltaError(f"no memoized state under {self.root!r}")
        manifest = manifests[0]
        payloads = {
            e["worker"]: self.store.read_payload(e)
            for e in manifest["entries"]
        }
        meta_entry = payloads.pop(max(payloads))
        inner = meta_entry["memo_meta"]
        if inner.get("format") != MEMO_FORMAT:
            raise DeltaError(f"memo under {self.root!r} is format {inner.get('format', 1)}, "
                             f"not {MEMO_FORMAT}: rerun cold to memoize it again")
        # User meta keys surface at the top level beside the reserved
        # job/num_pairs/version bookkeeping.
        meta = dict(inner["meta"])
        meta.update(
            job=inner["job"],
            num_pairs=inner["num_pairs"],
            version=manifest["iteration"],
        )
        if job_name is not None and meta["job"] != job_name:
            raise DeltaError(
                f"memo under {self.root!r} belongs to job {meta['job']!r}, "
                f"not {job_name!r}"
            )
        parts = [(widen_ints(payloads[p]["keys"]), widen_ints(payloads[p]["values"]))
                 for p in sorted(payloads)]
        return StateColumns(*concat_broadcast(parts)), meta

    def has(self) -> bool:
        return bool(self.store.manifests())

    def gc(self, keep: int | None = None) -> dict:
        return self.store.gc(keep=self.keep if keep is None else keep)


# ------------------------------------------------------- delta synthesis --
def random_edge_churn(
    table: dict,
    algorithm: str,
    *,
    insert: int = 0,
    delete: int = 0,
    update: int = 0,
    seed: int = 0,
    monotone: bool = False,
) -> DataDelta:
    """Synthesize a seeded churn delta against a static table.

    Samples ``delete`` existing edges to remove, ``insert`` absent
    pairs to add (weighted kinds draw a weight), and ``update`` weight
    rewrites — exactly that many, or :class:`DeltaError`.
    ``monotone=True`` turns deletions and weight increases into weight
    *decreases* — the improvement-only churn min-algebra
    serving workloads refresh fastest on (new/faster roads), used by
    the sssp benchmark.  Deterministic per seed.  :class:`DeltaError`
    for an algorithm without incremental support, or for ``update`` on
    an unweighted kind or with ``monotone`` (which rewrites only the
    ``delete`` draws).
    """
    kind = _row(algorithm)[0]
    if update and not kind.weighted:
        raise DeltaError(f"update={update}: {algorithm} edges carry no weight")
    if update and monotone:
        raise DeltaError(f"update={update} with monotone=True: monotone churn "
                         "rewrites only the delete draws' weights")
    rng = random.Random(seed)
    nodes = sorted(table)
    if len(nodes) < 2:
        raise DeltaError("churn needs at least two nodes")
    existing = [(u, entry) for u in nodes for entry in table[u]]
    if kind.symmetric:
        # One entry per undirected edge, the direction met first
        # (``set.add`` returns None: the filter records what it keeps).
        met: set = set()
        existing = [
            (u, entry) for u, entry in existing
            if (_row_target(entry, kind.weighted), u) not in met
            and not met.add((u, _row_target(entry, kind.weighted)))
        ]

    def linked(u, v) -> bool:
        """Does the table hold ``u -> v`` (or ``v -> u``, if symmetric)?"""
        rows = ((u, v), (v, u)) if kind.symmetric else ((u, v),)
        return any(
            _row_target(entry, kind.weighted) == b for a, b in rows for entry in table[a]
        )

    def weight() -> float:
        return round(rng.uniform(0.5, 4.0), 3)

    delete_edges: list[tuple] = []
    update_edges: list[tuple] = []
    if delete > len(existing):
        raise DeltaError(f"delete={delete}: the table holds {len(existing)} edge(s)")
    doomed = rng.sample(existing, delete) if delete else []
    if monotone and kind.weighted:
        for u, entry in doomed:
            v, ow = entry
            update_edges.append((u, v, round(ow * rng.uniform(0.2, 0.8), 6)))
    else:
        delete_edges = [
            (u, _row_target(entry, kind.weighted)) for u, entry in doomed
        ]
    mutated = {(u, v) for u, v in delete_edges}
    mutated |= {(u, v) for u, v, _w in update_edges}
    if kind.symmetric:
        mutated |= {(v, u) for u, v in list(mutated)}
    if update:
        pool = [
            (u, entry)
            for u, entry in existing
            if (u, entry[0]) not in mutated
        ]
        if update > len(pool):
            raise DeltaError(f"update={update}: {len(pool)} edge(s) left to update")
        for u, entry in rng.sample(pool, update):
            v, _ow = entry
            update_edges.append((u, v, weight()))
            mutated.add((u, v))
            if kind.symmetric:
                mutated.add((v, u))
    insert_edges: list[tuple] = []
    attempts = 0
    while len(insert_edges) < insert and attempts < insert * 50 + 100:
        attempts += 1
        u, v = rng.sample(nodes, 2)
        if (u, v) in mutated or linked(u, v):
            continue
        insert_edges.append((u, v, weight()) if kind.weighted else (u, v))
        mutated.add((u, v))
        if kind.symmetric:
            mutated.add((v, u))
    if len(insert_edges) < insert:
        raise DeltaError(f"insert={insert}: found only {len(insert_edges)} absent pairs")
    return DataDelta(
        insert_edges=tuple(insert_edges),
        delete_edges=tuple(delete_edges),
        update_edges=tuple(update_edges),
    )
