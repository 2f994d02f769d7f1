"""Property tests for the accumulative algebras (hypothesis).

The engine's core assumption is that ``⊕`` is a commutative monoid:
pending deltas are coalesced with ``⊕`` while queued
(:meth:`AccumPair.absorb`), applied in priority order rather than
arrival order, and split arbitrarily across rounds.  Each shipped
algebra therefore has to satisfy identity / commutativity /
associativity not just on the build-time samples but over its whole
state domain — and the *delta-composition* law the pending queue leans
on, ``s ⊕ (d₁ ⊕ d₂) = (s ⊕ d₁) ⊕ d₂``, has to hold so coalescing a
batch is indistinguishable from applying it delta by delta.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigError, IterKeys, JobConf
from repro.common.records import order_key
from repro.imapreduce import MIN, SUM, Accumulator, AccumJob
from repro.imapreduce.accum import AccumPair

ALGEBRAS = {"sum": SUM, "min": MIN}

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


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
class TestAlgebraLaws:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_identity(self, name, data):
        acc = ALGEBRAS[name]
        x = data.draw(_values(name))
        assert acc.merge(x, acc.identity) == x
        assert acc.merge(acc.identity, x) == x

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_commutativity(self, name, data):
        acc = ALGEBRAS[name]
        a, b = data.draw(_values(name)), data.draw(_values(name))
        assert acc.merge(a, b) == acc.merge(b, a)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, name, data):
        acc = ALGEBRAS[name]
        a = data.draw(_values(name))
        b = data.draw(_values(name))
        c = data.draw(_values(name))
        assert acc.merge(acc.merge(a, b), c) == acc.merge(a, acc.merge(b, c))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_delta_composition(self, name, data):
        """Coalescing two queued deltas then merging once must equal
        merging them one at a time — the law absorb() relies on."""
        acc = ALGEBRAS[name]
        s = data.draw(_values(name))
        d1 = data.draw(_values(name))
        d2 = data.draw(_values(name))
        coalesced = acc.merge(s, acc.merge(d1, d2))
        one_by_one = acc.merge(acc.merge(s, d1), d2)
        assert coalesced == one_by_one

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_priority_zero_iff_noop(self, name, data):
        """The scheduler skips priority-0 deltas; that must be exactly
        the deltas whose merge would not move the state."""
        acc = ALGEBRAS[name]
        s = data.draw(_values(name))
        d = data.draw(_values(name))
        p = acc.priority(s, d)
        assert p >= 0.0
        assert (p == 0.0) == (acc.merge(s, d) == s)


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
    whole = AccumPair(0, SUM, {})
    whole.absorb(deltas)
    cut = AccumPair(0, SUM, {})
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
    ordered = AccumPair(0, MIN, {})
    ordered.absorb(deltas)
    shuffled = list(deltas)
    seed.shuffle(shuffled)
    permuted = AccumPair(0, MIN, {})
    permuted.absorb(shuffled)
    assert permuted.pending == ordered.pending


def _conf():
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, "/dfs/deltas")
    conf.set_int(IterKeys.MAX_ITER, 5)
    return conf


# ----------------------------------------------- deliberate-bug tests --
@pytest.mark.parametrize("bad,pattern", [
    # Averaging: commutative but not associative, and 0.0 is no identity.
    (Accumulator("mean", 0.0, lambda a, b: (a + b) / 2.0,
                 samples=(0.0, 1.0, 2.0, 4.0)),
     "not associative|not an identity"),
    # Subtraction: not commutative.
    (Accumulator("sub", 0.0, lambda a, b: a - b,
                 samples=(0.0, 1.0, 2.0, 3.0)),
     "not commutative|not an identity"),
    # max with the wrong identity.
    (Accumulator("max0", 1.0, max, samples=(0.0, 1.0, 2.0)),
     "not an identity"),
])
def test_broken_algebras_rejected_at_build(bad, pattern):
    """Self-test: every class of law violation is caught when the job
    is constructed, before a single delta flows."""
    conf = _conf()
    with pytest.raises(ConfigError, match=pattern):
        AccumJob(name="broken", accumulator=bad,
                 update_fn=lambda *a: None, output_path="/dfs/out",
                 conf=conf)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_float_mean_never_sneaks_past_validation(data):
    """hypothesis can't find a sample set that makes averaging look
    associative to the validator (the check uses a tight tolerance
    precisely so float noise can't blur a real violation)."""
    samples = tuple(
        data.draw(st.lists(_dyadic.filter(lambda x: x != 0.0), min_size=3,
                           max_size=6, unique=True))
    )
    mean = Accumulator("mean", 0.0, lambda a, b: (a + b) / 2.0,
                       samples=samples)
    with pytest.raises(ConfigError):
        mean.validate()


# ------------------------------------- the scheduler's priority cache --
class _FromScratch(AccumPair):
    """The reference scheduler: ``mass`` and ``select`` as they were
    before priorities were cached (bodies verbatim from 78ccec3) —
    every pending key re-scored on every call, nothing remembered."""

    __slots__ = ()

    def mass(self):
        acc = self.acc
        ident = acc.identity
        state_get = self.state.get
        priority = acc.priority
        total = 0.0
        for k, d in self.pending.items():
            total += priority(state_get(k, ident), d)
        return total

    def select(self, mode, top_fraction):
        pending = self.pending
        if not pending:
            return []
        if mode == "sync":
            return sorted(pending, key=order_key)
        acc = self.acc
        ident = acc.identity
        state_get = self.state.get
        priority = acc.priority
        scored = []
        for k, d in pending.items():
            p = priority(state_get(k, ident), d)
            if p > 0:
                scored.append((p, k))
        if not scored:
            return []
        scored.sort(key=lambda t: (-t[0], order_key(t[1])))
        count = max(1, math.ceil(top_fraction * len(scored)))
        return [k for _p, k in scored[:count]]


#: Mixed int/tuple/str keys, so the ``order_key`` tie-break is in play;
#: each key's static value is the keys its applied delta propagates to.
_KEYS = [0, 1, 2, 3, (0,), (1, 2), "a"]
_STATIC = {k: [_KEYS[(i + 1) % 7], _KEYS[(i + 3) % 7]] for i, k in enumerate(_KEYS)}

#: name -> (accumulator, value strategy, value an update emits).  Small
#: value domains make equal priorities, dead offers (``min`` of a larger
#: delta, a sum back at 0.0) and their later revival all common.
_small_dyadic = st.integers(min_value=-8, max_value=8).map(lambda n: n / 4.0)
_small_min = st.one_of(st.just(math.inf), st.integers(0, 12).map(float))
_SCHEDULES = {
    "sum": (SUM, _small_dyadic, lambda d, new: d / 2.0),
    "min": (MIN, _small_min, lambda d, new: new + 1.0),
    "custom": (
        Accumulator("sum-by-delta", 0.0, SUM.merge, samples=SUM.samples,
                    priority_fn=lambda state, delta: abs(delta) / (1.0 + abs(state))),
        _small_dyadic, lambda d, new: d / 2.0,
    ),
}


def _schedule_job(acc, emitted):
    def update(key, delta, state, targets, emit):
        for dest in targets:
            emit(dest, emitted(delta, state))

    return AccumJob(name="cache", accumulator=acc, update_fn=update,
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


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cached_scheduler_matches_from_scratch(name, data):
    """Any interleaving of absorb / mass / select / apply — select before
    mass, mass twice running, partial drains, a warm start — leaves the
    cached scheduler indistinguishable from re-scoring everything: the
    mass is the same float (``==`` and ``repr``), the selection the same
    list, ``pending`` (order included) and ``state`` the same dicts."""
    acc, values, emitted = _SCHEDULES[name]
    job = _schedule_job(acc, emitted)
    warm = data.draw(st.dictionaries(st.sampled_from(_KEYS), values, max_size=3))
    cached, scratch = (
        cls(0, acc, _STATIC, keys=_STATIC, initial_state=warm)
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
            outs = [[]], [[]]
            cached.apply(job, selected[:keep], lambda key: 0, outs[0])
            scratch.apply(job, selected[:keep], lambda key: 0, outs[1])
            assert outs[0] == outs[1]
            if feed_back:
                cached.absorb(outs[0][0])
                scratch.absorb(outs[1][0])
        assert list(cached.pending.items()) == list(scratch.pending.items())
        assert cached.state == scratch.state
    assert cached.mass() == scratch.mass()
    assert cached.updates_processed == scratch.updates_processed


def test_dead_offer_is_kept_scored_once_and_revived():
    """Async mode never pops an offer that no longer improves the state:
    it stays in ``pending`` at priority 0, costs no further evaluation,
    and a later, better delta on the same key brings it back."""
    pair = AccumPair(0, MIN, {}, initial_state={"k": 5.0})
    pair.absorb([("k", 7.0)])
    assert pair.mass() == 0.0 and pair.select("async", 0.25) == []
    assert pair.mass() == 0.0 and pair.pending == {"k": 7.0}
    assert pair.priority_evals == 1
    pair.absorb([("k", 3.0)])
    assert pair.select("async", 0.25) == ["k"] and pair.mass() == 2.0
    assert pair.priority_evals == 2
