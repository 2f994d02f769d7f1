"""Property tests for the accumulative folds (hypothesis).

The engine's core assumption is that ``⊕`` is a commutative monoid:
pending deltas are coalesced with ``⊕`` while queued (the record
oracle's :meth:`~tests.imapreduce.oracle.AccumPair.absorb`, and
``ColumnarAccum``'s indexed fold), applied in priority order rather than
arrival order, and split arbitrarily across rounds.  Each fold of the
one table (``accum.FOLDS``) therefore has to satisfy identity /
commutativity / associativity over its whole state domain — and the
*delta-composition* law the pending queue leans on, ``s ⊕ (d₁ ⊕ d₂) =
(s ⊕ d₁) ⊕ d₂``, has to hold so coalescing a batch is
indistinguishable from applying it delta by delta.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import components, pagerank, sssp
from repro.common import IterKeys, JobConf
from repro.common.records import order_key
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import AccumJob, run_accum_local, select_executor
from repro.imapreduce.accum import FOLDS
from tests.imapreduce.oracle import AccumPair, run_oracle

# SUM state space: dyadic rationals of bounded magnitude, so float
# addition is exact and the laws can be asserted with == instead of a
# tolerance that might mask a genuinely broken merge.
_dyadic = st.integers(min_value=-(2**20), max_value=2**20).map(
    lambda n: n / 1024.0
)
# MIN state space: finite floats plus the identity (∞) — sssp and
# components genuinely hold ∞ for unreached keys.
_min_values = st.one_of(
    st.just(math.inf),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)

_VALUES = {"sum": _dyadic, "min": _min_values}


def _values(name):
    return _VALUES[name]


@pytest.mark.parametrize("name", sorted(FOLDS))
class TestAlgebraLaws:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_identity(self, name, data):
        fold = FOLDS[name]
        x = data.draw(_values(name))
        assert fold.merge(x, fold.identity) == x
        assert fold.merge(fold.identity, x) == x

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_commutativity(self, name, data):
        fold = FOLDS[name]
        a, b = data.draw(_values(name)), data.draw(_values(name))
        assert fold.merge(a, b) == fold.merge(b, a)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, name, data):
        fold = FOLDS[name]
        a = data.draw(_values(name))
        b = data.draw(_values(name))
        c = data.draw(_values(name))
        assert fold.merge(fold.merge(a, b), c) == fold.merge(a, fold.merge(b, c))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_delta_composition(self, name, data):
        """Coalescing two queued deltas then merging once must equal
        merging them one at a time — the law absorb() relies on."""
        fold = FOLDS[name]
        s = data.draw(_values(name))
        d1 = data.draw(_values(name))
        d2 = data.draw(_values(name))
        coalesced = fold.merge(s, fold.merge(d1, d2))
        one_by_one = fold.merge(fold.merge(s, d1), d2)
        assert coalesced == one_by_one

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_priority_zero_iff_noop(self, name, data):
        """The scheduler skips priority-0 deltas; that must be exactly
        the deltas whose merge would not move the state."""
        fold = FOLDS[name]
        s = data.draw(_values(name))
        d = data.draw(_values(name))
        p = fold.priority(s, d)
        assert p >= 0.0
        assert (p == 0.0) == (fold.merge(s, d) == s)


@given(
    deltas=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), _dyadic),
        max_size=40,
    ),
    splits=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_absorb_is_batch_split_invariant(deltas, splits):
    """Absorbing one big batch or the same records cut into arbitrary
    sub-batches yields the identical pending queue (keys and values) —
    the property that lets the mesh frame deltas however it likes."""
    whole = AccumPair(0, "sum", {})
    whole.absorb(deltas)
    cut = AccumPair(0, "sum", {})
    bounds = sorted(min(s, len(deltas)) for s in splits)
    prev = 0
    for b in bounds:
        cut.absorb(deltas[prev:b])
        prev = b
    cut.absorb(deltas[prev:])
    assert cut.pending == whole.pending


@given(
    deltas=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), _min_values),
        max_size=40,
    ),
    seed=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_min_absorb_is_order_invariant(deltas, seed):
    """For ``min`` the pending queue is also permutation-invariant —
    the slack the simulated deferral schedule exploits."""
    ordered = AccumPair(0, "min", {})
    ordered.absorb(deltas)
    shuffled = list(deltas)
    seed.shuffle(shuffled)
    permuted = AccumPair(0, "min", {})
    permuted.absorb(shuffled)
    assert permuted.pending == ordered.pending


def _conf():
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, "/dfs/deltas")
    conf.set_int(IterKeys.MAX_ITER, 5)
    return conf


# ------------------------------------- the scheduler's priority cache --
class _FromScratch(AccumPair):
    """The reference scheduler: nothing remembered.  ``absorb`` drops an
    offer the state already absorbed under an idempotent fold and
    queues everything else; ``mass`` and ``select`` re-score every
    pending key on every call, ``mass`` folding with ``fsum``."""

    __slots__ = ()

    def absorb(self, records):
        fold = self.fold
        for k, d in records:
            s = self.state.get(k, fold.identity)
            if fold.idempotent and fold.merge(s, d) == s:
                continue
            self.pending[k] = fold.merge(self.pending.get(k, fold.identity), d)

    def _scored(self):
        fold = self.fold
        return [
            (fold.priority(self.state.get(k, fold.identity), d), k)
            for k, d in self.pending.items()
        ]

    def mass(self):
        try:
            return math.fsum(p for p, _k in self._scored())
        except OverflowError:
            return math.inf

    def select(self, mode, top_fraction):
        pending = self.pending
        if not pending:
            return []
        if mode == "sync":
            return sorted(pending, key=order_key)
        scored = [(p, k) for p, k in self._scored() if p > 0]
        if not scored:
            return []
        scored.sort(key=lambda t: (-t[0], order_key(t[1])))
        count = max(1, math.ceil(top_fraction * len(scored)))
        return [k for _p, k in scored[:count]]


class _KeepsDead(_FromScratch):
    """The queue before it dropped anything: every offer is coalesced,
    one that no longer improves the state waits at priority 0."""

    __slots__ = ()

    def absorb(self, records):
        fold = self.fold
        for k, d in records:
            self.pending[k] = fold.merge(self.pending.get(k, fold.identity), d)


#: Mixed int/tuple/str keys, so the ``order_key`` tie-break is in play;
#: each key's static value is the keys its applied delta propagates to.
_KEYS = [0, 1, 2, 3, (0,), (1, 2), "a"]
_STATIC = {k: [_KEYS[(i + 1) % 7], _KEYS[(i + 3) % 7]] for i, k in enumerate(_KEYS)}

#: fold name -> (value strategy, value an update emits).  Small
#: value domains make equal priorities, dead offers (``min`` of a larger
#: delta, a sum back at 0.0) and their later revival all common.
_small_dyadic = st.integers(min_value=-8, max_value=8).map(lambda n: n / 4.0)
_small_min = st.one_of(st.just(math.inf), st.integers(0, 12).map(float))
_SCHEDULES = {
    "sum": (_small_dyadic, lambda d, new: d / 2.0),
    "min": (_small_min, lambda d, new: new + 1.0),
}


def _schedule_job(fold, emitted):
    def update(key, delta, state, targets, emit):
        for dest in targets:
            emit(dest, emitted(delta, state))

    return AccumJob(name="cache", fold=fold, update_fn=update,
                    output_path="/dfs/out", conf=_conf())


def _steps(values):
    records = st.lists(st.tuples(st.sampled_from(_KEYS), values), max_size=6)
    fracs = st.sampled_from([0.1, 0.25, 0.5, 1.0])
    return st.lists(
        st.one_of(
            st.tuples(st.just("absorb"), records),
            st.tuples(st.just("mass")),
            # select, apply the first ``keep`` of the selection, and feed
            # the emissions back (or drop them: a deferred batch).
            st.tuples(st.just("drain"), st.sampled_from(["sync", "async"]),
                      fracs, st.integers(0, 7), st.booleans()),
        ),
        max_size=25,
    )


def _drain(pair, job, selected):
    """Apply ``selected``; the emitted ``(keys, values)`` columns."""
    outboxes = [([], [])]
    pair.apply(job, selected, lambda key: 0, outboxes)
    return outboxes[0]


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cached_scheduler_matches_from_scratch(name, data):
    """Any interleaving of absorb / mass / select / apply — select before
    mass, mass twice running, partial drains, a warm start — leaves the
    cached scheduler indistinguishable from re-scoring everything: the
    mass is the same float (``==`` and ``repr``), the selection the same
    list, ``pending`` (order included) and ``state`` the same dicts."""
    values, emitted = _SCHEDULES[name]
    job = _schedule_job(name, emitted)
    warm = data.draw(st.dictionaries(st.sampled_from(_KEYS), values, max_size=3))
    cached, scratch = (
        cls(0, name, _STATIC, keys=_STATIC, initial_state=warm)
        for cls in (AccumPair, _FromScratch)
    )
    for step in data.draw(_steps(values)):
        if step[0] == "absorb":
            cached.absorb(step[1])
            scratch.absorb(step[1])
        elif step[0] == "mass":
            got, want = cached.mass(), scratch.mass()
            assert got == want and repr(got) == repr(want)
        else:
            _op, mode, frac, keep, feed_back = step
            selected = cached.select(mode, frac)
            assert selected == scratch.select(mode, frac)
            out = _drain(cached, job, selected[:keep])
            assert out == _drain(scratch, job, selected[:keep])
            if feed_back:
                cached.absorb(zip(*out))
                scratch.absorb(zip(*out))
        assert list(cached.pending.items()) == list(scratch.pending.items())
        assert cached.state == scratch.state
    assert cached.mass() == scratch.mass()
    assert cached.updates_processed == scratch.updates_processed


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_dropping_dead_min_offers_changes_nothing(data):
    """The semilattice argument as a property: under ``min`` an offer
    ``d`` with ``s ⊕ d = s`` can never change a later state, selection
    or emission.  For every absorb / drain interleaving, the live-only
    queue and one that keeps such offers at priority 0 hold the same
    state, make the same async selections, emit the same deltas and
    report the same mass; the live-only queue is exactly the other's
    live entries.  (A sync drain applies its whole selection: the old
    queue's includes its dead keys, whose application is a no-op.)"""
    values, emitted = _SCHEDULES["min"]
    job = _schedule_job("min", emitted)
    warm = data.draw(st.dictionaries(st.sampled_from(_KEYS), values, max_size=3))
    live, dead = (
        cls(0, "min", _STATIC, keys=_STATIC, initial_state=warm)
        for cls in (AccumPair, _KeepsDead)
    )
    for step in data.draw(_steps(values)):
        if step[0] == "absorb":
            live.absorb(step[1])
            dead.absorb(step[1])
        elif step[0] == "mass":
            assert live.mass() == dead.mass()
        else:
            _op, mode, frac, keep, feed_back = step
            selected = live.select(mode, frac)
            if mode == "async":
                assert selected == dead.select(mode, frac)
                selected = selected[:keep]
                out = _drain(dead, job, selected)
            else:
                out = _drain(dead, job, dead.select(mode, frac))
            assert _drain(live, job, selected) == out
            if feed_back:
                live.absorb(zip(*out))
                dead.absorb(zip(*out))
        assert live.state == dead.state
        assert live.pending == {
            k: d for k, d in dead.pending.items() if min(dead.state[k], d) != dead.state[k]
        }
    assert live.mass() == dead.mass()


def test_dead_offer_is_dropped_unscored_and_a_better_one_taken():
    """Under ``min`` an offer that does not improve the state never
    enters the queue — no entry, no evaluation, nothing to drain in
    either mode — and a later, better delta on the same key is taken."""
    pair = AccumPair(0, "min", {}, initial_state={"k": 5.0})
    pair.absorb([("k", 7.0)])
    assert pair.pending == {} and pair.mass() == 0.0
    assert pair.select("async", 0.25) == [] and pair.select("sync", 1.0) == []
    assert pair.priority_evals == 0
    pair.absorb([("k", 3.0), ("k", 9.0)])
    assert pair.pending == {"k": 3.0}
    assert pair.select("async", 0.25) == ["k"] and pair.mass() == 2.0
    assert pair.priority_evals == 1


def test_sum_keeps_a_zero_offer():
    """``+`` is not idempotent: a zero-priority delta still queues (a
    later delta on the key adds to it, so it cannot be dropped)."""
    pair = AccumPair(0, "sum", {}, initial_state={"k": 5.0})
    pair.absorb([("k", 0.0)])
    assert pair.pending == {"k": 0.0} and pair.mass() == 0.0
    assert pair.select("async", 1.0) == [] and pair.select("sync", 1.0) == ["k"]
    assert FOLDS["sum"].idempotent is False and FOLDS["min"].idempotent is True


def test_mass_overflow_is_inf():
    """Two finite priorities whose exact sum leaves the float range:
    ``fsum`` raises, the mass is ``inf`` — never a termination."""
    pair = AccumPair(0, "sum", {})
    pair.absorb([("a", 1e308), ("b", 1e308)])
    assert pair.mass() == math.inf
    assert pair.select("async", 1.0) == ["a", "b"]


@pytest.mark.parametrize("keys", [
    [1, "a", (1,)], [True, "a", (1,)], [1.0, "a", (1,)], [True, 0.5],
], ids=repr)
def test_select_orders_mixed_key_types_by_order_key(keys):
    """Keys of more than one type rank by ``order_key`` — type name
    first — even where a native sort would not raise (``True`` and
    ``0.5``: natively ``0.5 < True``, by type name ``bool < float``)."""
    pair = AccumPair(0, "min", {}, initial_state={k: 10.0 for k in keys})
    pair.absorb([(k, 3.0) for k in keys])  # one priority: all tie
    want = sorted(keys, key=order_key)
    assert pair.select("async", 1.0) == want
    assert pair.select("sync", 1.0) == want
    lead = want[-1]
    pair.absorb([(lead, 1.0)])  # a larger priority ranks first
    assert pair.select("async", 1.0) == [lead] + want[:-1]


# ------------------------------------- the kernel-less columnar adapter --
def _graph_job(name, n, seed):
    """A seeded ≤ 40-node accumulative job, its initial deltas and its
    static records; the value an i2MapReduce-style refresh offers."""
    paths = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}
    if name == "pagerank":
        graph = pagerank_graph(n, seed=seed)
        return (pagerank.build_accum_job(**paths, threshold=1e-9, max_rounds=5_000),
                pagerank.accum_initial_deltas(n), {"/st": pagerank.static_records(graph)},
                _dyadic.map(lambda d: abs(d) / 2**20))
    if name == "sssp":
        graph = sssp_graph(n, seed=seed)
        return (sssp.build_accum_job(**paths, max_rounds=5_000), sssp.accum_initial_deltas(0),
                {"/st": sssp.static_records(graph)}, st.integers(0, 40).map(float))
    graph = sssp_graph(n, mean_degree=1.5, seed=seed)
    return (components.build_accum_job(**paths, max_rounds=5_000),
            components.accum_initial_deltas(n), {"/st": components.static_records(graph)},
            st.integers(0, n - 1))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_update_adapter_replays_the_record_twin(data):
    """A kernel-less job runs columnar through its own ``update_fn``; the
    record oracle is the reference.  Cold or warm-started (every
    key preloaded with a converged value, a few keys offered a new
    delta), on 1–4 pairs, sync or async, both hold the same final state
    (value types included), ``rounds``, ``terminated_by``, work
    counters and pending-mass trace — components' too, whose int64
    labels stand the int64 max in for ∞ and score a first offer ``inf``
    as the record path does."""
    name = data.draw(st.sampled_from(["components", "pagerank", "sssp"]))
    n = data.draw(st.integers(2, 40))
    job, deltas, static, offers = _graph_job(name, n, data.draw(st.integers(0, 999)))
    kwargs = {"num_pairs": data.draw(st.integers(1, 4)),
              "mode": data.draw(st.sampled_from(["sync", "async"])), "keep_trace": True}
    if data.draw(st.booleans(), label="warm"):
        kwargs["initial_state"] = run_oracle(job, deltas, static, **kwargs).state
        deltas = data.draw(st.lists(st.tuples(st.integers(0, n - 1), offers), max_size=4))
    assert select_executor(job)[0].__name__ == "UpdateAccum"
    got = run_accum_local(job, deltas, static, **kwargs)
    want = run_oracle(job, deltas, static, **kwargs)
    assert repr(got.state) == repr(want.state)
    for field in ("rounds", "terminated_by", "updates_processed", "deltas_emitted",
                  "deltas_shipped"):
        assert getattr(got, field) == getattr(want, field), field
    assert [row["pending_mass"] for row in got.trace] == [
        row["pending_mass"] for row in want.trace]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_int_labels_above_float_resolution_schedule_as_the_record_twin(data):
    """Above ~2¹⁰, ``int64 max − label`` is no longer one float: an
    unreached key scored that way ranks by its offer, and the mass is
    finite.  A small graph relabelled onto sparse keys above 10⁴ must
    run, on the kernel and the kernel-less columnar executor alike, as
    the record oracle: state, rounds, counters and mass trace."""
    n = data.draw(st.integers(2, 12))
    graph = sssp_graph(n, mean_degree=1.5, seed=data.draw(st.integers(0, 999)))
    label = data.draw(st.permutations(data.draw(
        st.lists(st.integers(10**4, 10**6), min_size=n, max_size=n, unique=True))))
    static = {"/st": [(label[u], tuple(label[v] for v in row))
                      for u, row in components.static_records(graph)]}
    deltas = [(label[u], label[u]) for u in range(n)]
    job = components.build_accum_job(state_path="/s", static_path="/st", output_path="/o",
                                     use_kernel=data.draw(st.booleans()))
    kwargs = {"num_pairs": data.draw(st.integers(1, 3)),
              "mode": data.draw(st.sampled_from(["sync", "async"])), "keep_trace": True}
    got = run_accum_local(job, deltas, static, **kwargs)
    want = run_oracle(job, deltas, static, **kwargs)
    assert repr(got.state) == repr(want.state)
    for field in ("rounds", "terminated_by", "updates_processed", "deltas_emitted",
                  "deltas_shipped"):
        assert getattr(got, field) == getattr(want, field), field
    assert [row["pending_mass"] for row in got.trace] == [
        row["pending_mass"] for row in want.trace]


def test_a_pair_seeded_with_no_delta_takes_the_jobs_dtype():
    """The state dtype is the job's, inferred once from every initial
    delta: pair 1 receives none here, yet its int labels stay ints."""
    graph = sssp_graph(12, mean_degree=1.5, seed=6)
    job = components.build_accum_job(state_path="/s", static_path="/st", output_path="/o")
    static = {"/st": components.static_records(graph)}
    deltas = [(0, 0), (2, 2)]
    got = run_accum_local(job, deltas, static, num_pairs=2).state
    assert (1, 0) in got and repr(dict(got)[1]) == "0"
    assert repr(got) == repr(run_oracle(job, deltas, static, num_pairs=2).state)
