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
* :func:`plan_changes` — the change-propagation logic: from the delta
  and the memoized state it derives the *dirty frontier* (keys that
  receive perturbation deltas), the *reset set* (keys whose memoized
  value may no longer be a valid fixpoint component), and the
  perturbation deltas themselves.
* :func:`warm_sync_state` — the memo as a synchronous engine's initial
  state.  Warm-started *execution* — both algebras, every backend — is
  :func:`repro.imapreduce.plan.execute` with a
  :class:`~repro.imapreduce.plan.WarmStart` in the plan.

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
those keys restart at the identity, re-seeded by their initial deltas
and by boundary offers from every surviving in-edge whose source kept
its memo.  Keys outside the reset set cannot have routed through a
worsened edge (they would be reachable from its head), so their memo
stands.  Every surviving value is the same left-folded path sum the
cold rerun computes, which is why warm min-algebra runs are *bit
exact* against the cold rerun — the bar the
``incremental-differential`` oracle enforces.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..common.errors import JobError
from ..common.partition import bind_partitioner
from ..common.records import sort_records
from .checkpoint import CheckpointStore

__all__ = [
    "DeltaError",
    "DataDelta",
    "AdjacencyKind",
    "ADJACENCY_KINDS",
    "MemoStore",
    "ChangePlan",
    "patch_static_table",
    "plan_changes",
    "cold_initial_deltas",
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


#: The shipped graph algorithms' adjacency shapes.
ADJACENCY_KINDS: dict[str, AdjacencyKind] = {
    "pagerank": AdjacencyKind(),
    "sssp": AdjacencyKind(weighted=True),
    "components": AdjacencyKind(symmetric=True, sorted_rows=True),
}


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
        for u, v, *_w in (*self.insert_edges, *self.delete_edges,
                          *self.update_edges):
            key = (u, v)
            if key in seen:
                raise DeltaError(f"edge {key!r} is mutated twice in one delta")
            seen.add(key)
            if kind.symmetric:
                seen.add((v, u))
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
    """Expand undirected edge ops to both stored directions."""
    for edge in edges:
        u, v, *rest = edge
        yield (u, v, *rest)
        if symmetric:
            yield (v, u, *rest)


def patch_static_table(
    table: dict, delta: DataDelta, kind: AdjacencyKind
) -> set:
    """Apply ``delta`` to a resident static partition table *in place*.

    Returns the set of source keys whose rows changed (plus inserted
    nodes).  Row order is preserved exactly as a direct rebuild from
    the mutated edge list would produce it — deletions keep survivors
    in position, insertions append, ``sorted_rows`` kinds re-sort —
    which is what makes rebuilt kernel ``prepare`` columns bit-equal to
    from-scratch ones.
    """
    delta.validate(kind)
    dirty: set = set()
    known = set(table) | set(delta.insert_nodes)
    for u in delta.insert_nodes:
        if u in table:
            raise DeltaError(f"insert_nodes key {u!r} already exists")
        table[u] = ()
        dirty.add(u)
    for u, v in _directed(delta.delete_edges, kind.symmetric):
        row = table.get(u)
        if row is None:
            raise DeltaError(f"delete_edges names unknown source {u!r}")
        kept = tuple(e for e in row if _row_target(e, kind.weighted) != v)
        if len(kept) == len(row):
            raise DeltaError(f"delete_edges edge ({u!r}, {v!r}) not present")
        table[u] = kept
        dirty.add(u)
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        row = table.get(u)
        if row is None:
            raise DeltaError(f"update_edges names unknown source {u!r}")
        updated = tuple(
            (t, w) if t == v else (t, ow) for t, ow in row
        )
        if updated == row and not any(t == v for t, _ow in row):
            raise DeltaError(f"update_edges edge ({u!r}, {v!r}) not present")
        table[u] = updated
        dirty.add(u)
    for u, v, *rest in _directed(delta.insert_edges, kind.symmetric):
        if u not in known:
            raise DeltaError(f"insert_edges names unknown source {u!r}")
        if v not in known:
            raise DeltaError(f"insert_edges names unknown target {v!r}")
        row = table.get(u, ())
        if any(_row_target(e, kind.weighted) == v for e in row):
            raise DeltaError(f"insert_edges edge ({u!r}, {v!r}) already present")
        entry = (v, rest[0]) if kind.weighted else v
        table[u] = row + (entry,)
        dirty.add(u)
    if kind.sorted_rows:
        for u in dirty:
            table[u] = tuple(sorted(table[u]))
    return dirty


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


def _plan_pagerank(
    table: dict, delta: DataDelta, state: dict, *, damping: float
) -> ChangePlan:
    """Residual injection for the linear sum algebra (see module doc)."""
    kind = ADJACENCY_KINDS["pagerank"]
    touched = {u for u, _v in delta.delete_edges}
    touched |= {u for u, _v in delta.insert_edges}
    old_rows = {u: table.get(u, ()) for u in touched}
    n_old = len(table)
    dirty = patch_static_table(table, delta, kind)
    n_new = len(table)

    pert: dict[Any, float] = {}

    def add(key, value):
        if value:
            pert[key] = pert.get(key, 0.0) + value

    for u in sorted(old_rows):
        x = state.get(u, 0.0)
        if x == 0.0:
            continue
        old_row, new_row = old_rows[u], table[u]
        if old_row == new_row:
            continue
        if old_row:
            share = damping * x / len(old_row)
            for v in old_row:
                add(v, -share)
        if new_row:
            share = damping * x / len(new_row)
            for v in new_row:
                add(v, share)
    if n_new != n_old:
        # The teleport vector b = (1−d)/n shifts for *every* node when
        # the universe grows — a full frontier, priced honestly.
        db = (1.0 - damping) * (1.0 / n_new - 1.0 / n_old)
        new_nodes = set(delta.insert_nodes)
        for u in sorted(table):
            if u in new_nodes:
                add(u, (1.0 - damping) / n_new)
            else:
                add(u, db)
    perturbation = [(k, d) for k, d in pert.items() if d != 0.0]
    return ChangePlan(
        algorithm="pagerank",
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
    table: dict,
    delta: DataDelta,
    state: dict,
    *,
    algorithm: str,
    initial_delta_fn,
) -> ChangePlan:
    """Invalidate-and-reseed for min algebras (see module doc)."""
    import math

    kind = ADJACENCY_KINDS[algorithm]
    inf = math.inf
    old_table = dict(table)
    old_weight: dict[tuple, Any] = {}
    worsened_heads: set = set()
    improvements: list[tuple] = []  # (u, v, offer-weight)
    for u, v in _directed(delta.delete_edges, kind.symmetric):
        worsened_heads.add(v)
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        row = old_table.get(u, ())
        for t, ow in row:
            if t == v:
                old_weight[(u, v)] = ow
    dirty = patch_static_table(table, delta, kind)
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        ow = old_weight.get((u, v))
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

    for k in sorted(reset, key=lambda k: (type(k).__name__, k)):
        seed = initial_delta_fn(k)
        if seed is not None:
            offer(k, seed)
    if reset:
        # Boundary offers: every surviving in-edge from a non-reset
        # source re-seeds its reset target from the standing memo.
        for a in sorted(table, key=lambda k: (type(k).__name__, k)):
            if a in reset:
                continue
            sa = state.get(a, inf)
            if sa == inf:
                continue
            for entry in table[a]:
                if kind.weighted:
                    b, w = entry
                else:
                    b, w = entry, 0
                if b in reset:
                    offer(b, sa + w)
    for u, v, w in improvements:
        if u in reset or v in reset:
            continue  # covered by the reset recomputation / boundary
        su = state.get(u, inf)
        if su == inf:
            continue
        candidate = su + w
        if candidate < state.get(v, inf):
            offer(v, candidate)
    perturbation = sorted(
        pert.items(), key=lambda kv: (type(kv[0]).__name__, kv[0])
    )
    return ChangePlan(
        algorithm=algorithm,
        perturbation=perturbation,
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
    """Patch ``table`` in place and derive the change-propagation plan.

    ``memo_state`` is the prior run's converged state (a dict view);
    ``damping`` parameterizes pagerank, ``source`` sssp.  Components
    needs neither (every key re-offers its own id when reset).
    """
    if algorithm == "pagerank":
        if damping is None:
            raise DeltaError("pagerank change planning needs damping")
        return _plan_pagerank(table, delta, memo_state, damping=damping)
    if algorithm == "sssp":
        if source is None:
            raise DeltaError("sssp change planning needs the source node")
        return _plan_min(
            table,
            delta,
            memo_state,
            algorithm="sssp",
            initial_delta_fn=lambda k: 0.0 if k == source else None,
        )
    if algorithm == "components":
        return _plan_min(
            table,
            delta,
            memo_state,
            algorithm="components",
            initial_delta_fn=lambda k: k,
        )
    raise DeltaError(f"no incremental support for algorithm {algorithm!r}")


def cold_initial_deltas(
    algorithm: str,
    table: dict,
    *,
    damping: float | None = None,
    source: Any = None,
) -> list:
    """The full (cold-rerun) initial deltas for a static table — what a
    from-scratch accumulative run of the same algorithm would seed."""
    if algorithm == "pagerank":
        n = len(table)
        return [(u, (1.0 - damping) / n) for u in sorted(table)]
    if algorithm == "sssp":
        return [(source, 0.0)]
    if algorithm == "components":
        return [(u, u) for u in sorted(table)]
    raise DeltaError(f"no incremental support for algorithm {algorithm!r}")


def cold_rerun_inputs(
    algorithm: str, table: dict, delta: DataDelta, **planner
) -> tuple[list, dict]:
    """``(initial deltas, mutated table)`` of the cold rerun a warm
    refresh is judged against; ``table`` itself is left untouched."""
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS[algorithm])
    return cold_initial_deltas(algorithm, mutated, **planner), mutated


def warm_sync_state(
    memo_state: Iterable[tuple[Any, Any]],
    plan: ChangePlan,
    identity: Any,
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
    state = [(k, identity if k in reset else v) for k, v in memo_state]
    if plan.algorithm in ("sssp", "components"):
        offers = dict(plan.perturbation)
        known = {k for k, _v in state}
        state = [
            (k, min(v, offers[k]) if k in offers else v) for k, v in state
        ]
        # Inserted nodes have no memo record yet — seed them fresh.
        state.extend(
            (k, offers[k]) for k in sorted(
                (k for k in offers if k not in known),
                key=lambda k: (type(k).__name__, k),
            )
        )
    return state


# ------------------------------------------------------------ memo store --
class MemoStore:
    """Converged-state memoization on the checkpoint spool plane.

    The i2MapReduce MRBG-Store analogue: after a run converges, its
    per-pair final state is spooled through
    :meth:`CheckpointStore.write` (the same length-prefixed protocol-5
    frames, blake2b-digested, fsync + atomic rename) and published
    under a committed manifest.  Each ``save`` bumps the manifest
    iteration — the memo *version* — and prunes old versions through
    the store's retention GC, so the directory never grows unboundedly.
    A trailing meta entry (worker id ``num_pairs``) records the job
    name, pair count, and caller metadata, validated on load.
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
        """Persist one converged state; returns the new memo version."""
        part = bind_partitioner(partitioner, num_pairs)
        parts: list[list] = [[] for _ in range(num_pairs)]
        for rec in state_records:
            parts[part(rec[0])].append(rec)
        manifests = self.store.manifests()
        version = manifests[0]["iteration"] + 1 if manifests else 0
        entries = [
            self.store.write(0, version, p, {"pair": p, "state": parts[p]})
            for p in range(num_pairs)
        ]
        entries.append(
            self.store.write(
                0,
                version,
                num_pairs,
                {
                    "memo_meta": {
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
        """Newest memoized state as ``(records, meta)``; records arrive
        globally key-sorted — the same order the engines emit final
        state in, so a memo round-trip is record-for-record stable."""
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
        records: list = []
        for p in sorted(payloads):
            records.extend(payloads[p]["state"])
        return sort_records(records), meta

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
    rewrites.  ``monotone=True`` turns deletions and weight increases
    into weight *decreases* — the improvement-only churn min-algebra
    serving workloads refresh fastest on (new/faster roads), used by
    the sssp benchmark.  Deterministic per seed.
    """
    kind = ADJACENCY_KINDS[algorithm]
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
    doomed = rng.sample(existing, min(delete, len(existing))) if delete else []
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
    if update and kind.weighted and not monotone:
        pool = [
            (u, entry)
            for u, entry in existing
            if (u, entry[0]) not in mutated
        ]
        for u, entry in rng.sample(pool, min(update, len(pool))):
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
    return DataDelta(
        insert_edges=tuple(insert_edges),
        delete_edges=tuple(delete_edges),
        update_edges=tuple(update_edges),
    )
