"""Accumulative (Maiter-mode) iteration: the fold table, the serial
sync/async fixpoint equivalence, external references, and the counters
the bench gates rest on."""

import hashlib
import math

import numpy as np
import pytest

from repro.algorithms import components, pagerank, sssp
from repro.common import ConfigError, IterKeys
from repro.common.partition import ModPartitioner
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import (
    AccumJob,
    ExecutionPlan,
    KernelContractError,
    execute,
    run_accum_local,
)
from repro.imapreduce.accum import FOLDS, check_mode
from repro.testing.oracles import fixpoints_agree
from tests.imapreduce.oracle import run_oracle

STATE, STATIC, OUT = "/dfs/deltas", "/dfs/static", "/dfs/out"


def _sssp_case(n=80, seed=3, **kwargs):
    graph = sssp_graph(n, seed=seed)
    job = sssp.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_rounds=10_000, **kwargs,
    )
    return graph, job, sssp.accum_initial_deltas(0), {
        STATIC: sssp.static_records(graph)
    }


def _pagerank_case(n=80, seed=3, threshold=1e-10, max_rounds=100_000, **kwargs):
    graph = pagerank_graph(n, seed=seed)
    job = pagerank.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        threshold=threshold, max_rounds=max_rounds, **kwargs,
    )
    return graph, job, pagerank.accum_initial_deltas(n, pagerank.DAMPING), {
        STATIC: pagerank.static_records(graph)
    }


def _components_case(n=80, seed=3, **kwargs):
    graph = sssp_graph(n, seed=seed)
    job = components.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_rounds=10_000, **kwargs,
    )
    return graph, job, components.accum_initial_deltas(n), {
        STATIC: components.static_records(graph)
    }


# ------------------------------------------------------------- folds --
def test_shipped_algebras_validate():
    """Each fold's declared idempotence is what its merge does — the
    flag decides whether the pending queue drops no-op offers.  (The
    monoid laws are hypothesis properties in test_accum_properties.py.)"""
    samples = (math.inf, 0.0, 3.5, -2.0, 7.25, 1)
    for fold in FOLDS.values():
        assert fold.idempotent == all(fold.merge(a, a) == a for a in samples)
    assert [name for name, fold in FOLDS.items() if fold.idempotent] == ["min"]


def _min_conf():
    from repro.common import IterKeys, JobConf

    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, STATE)
    conf.set_int(IterKeys.MAX_ITER, 5)
    return conf


@pytest.mark.parametrize("fold", ["mean", "max", "SUM", None])
def test_unknown_fold_rejected_at_job_build(fold):
    """Only the table's names build a job — a typo is refused before a
    single delta flows, not run as some other algebra."""
    with pytest.raises(ConfigError, match=f"unknown fold {fold!r}.*sum, min"):
        AccumJob(name="bad", fold=fold, update_fn=lambda *a: None,
                 output_path=OUT, conf=_min_conf())


def test_a_kernel_runs_its_jobs_fold():
    """The kernel declares no algebra of its own: a ``min`` job whose
    kernel class still says ``merge = "sum"`` runs ``min``, to the
    record oracle's state."""

    class SaysSum(sssp.SsspAccumKernel):
        __slots__ = ()
        merge = "sum"

    _g, job, deltas, static = _sssp_case(n=30)
    _g, kjob, _d, _s = _sssp_case(n=30, use_kernel=True)
    kjob.kernel = SaysSum()
    rec = run_oracle(job, deltas, static, num_pairs=2)
    assert run_accum_local(kjob, deltas, static, num_pairs=2).state == rec.state
    assert rec.state[1][1] > 0.0


def test_job_requires_termination_condition():
    from repro.common import IterKeys, JobConf

    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, STATE)
    with pytest.raises(ConfigError, match="terminate"):
        AccumJob(name="forever", fold="min",
                 update_fn=lambda *a: None, output_path=OUT, conf=conf)


@pytest.mark.parametrize("use_kernel", [False, True], ids=["record", "kernel"])
def test_bad_priority_is_refused_not_spun_on(use_kernel):
    """A NaN priority makes the pending mass NaN — never ``<=`` the
    threshold, never selected — so a threshold-only job would spin
    forever.  A NaN delta under ``sum`` scores one, on either executor."""
    # max_rounds stays set so a lost check fails here instead of hanging.
    _g, job, deltas, static = _pagerank_case(n=20, max_rounds=500, use_kernel=use_kernel)
    deltas[0] = (0, math.nan)
    with pytest.raises(ConfigError, match=r"'sum'.*key 0\b.*nan.*>= 0"):
        (run_accum_local if use_kernel else run_oracle)(job, deltas, static, num_pairs=2)


def test_top_fraction_bounds():
    for frac in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="topfrac"):
            _sssp_case(top_fraction=frac)


def test_check_mode_rejects_unknown():
    check_mode("sync")
    check_mode("async")
    with pytest.raises(ConfigError, match="mode"):
        check_mode("eventual")


# ------------------------------------- fixpoint equivalence (serial) --
def test_sssp_async_bitexact_and_matches_dijkstra():
    graph, job, deltas, static = _sssp_case()
    sync = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    async_ = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    assert sync.terminated_by == "progress"
    assert async_.terminated_by == "progress"
    # min fixpoint is unique: every schedule lands bit-identically.
    assert async_.state == sync.state
    ref = sssp.reference_exact(graph, 0)
    got = np.array([v for _k, v in sync.state])
    assert np.array_equal(got, ref)


def test_components_async_bitexact_and_matches_scipy():
    graph, job, deltas, static = _components_case()
    sync = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    async_ = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    assert async_.state == sync.state
    ref = components.reference_components(graph)
    got = np.array([v for _k, v in sync.state])
    assert np.array_equal(got, ref)


def test_pagerank_async_within_threshold_tolerance():
    graph, job, deltas, static = _pagerank_case()
    sync = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    async_ = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    assert sync.terminated_by == "progress"
    assert async_.terminated_by == "progress"
    # Unapplied mass m bounds the distance to the fixpoint by
    # m·d/(1−d); both runs stopped at m ≤ threshold, so they agree to
    # ~2× that bound (keys line up because both cover the key universe).
    bound = 2 * job.threshold * pagerank.DAMPING / (1 - pagerank.DAMPING)
    for (ka, va), (kb, vb) in zip(async_.state, sync.state):
        assert ka == kb
        assert abs(va - vb) <= bound + 1e-15
    ref = pagerank.reference_networkx(graph)
    got = np.array([v for _k, v in sync.state])
    assert np.allclose(got, ref, atol=1e-6)


def test_pagerank_accum_matches_classic_iterative_fixpoint():
    graph, job, deltas, static = _pagerank_case(threshold=1e-12)
    accum = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    ref = pagerank.reference_iterations(graph, 200)
    got = np.array([v for _k, v in accum.state])
    assert np.allclose(got, ref, atol=1e-8)


# ------------------------------------------------------- kernel twins --
@pytest.mark.parametrize("case,exact", [
    (_sssp_case, True), (_components_case, True), (_pagerank_case, False),
])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_kernel_twin_parity(case, exact, mode):
    """The columnar delta kernels replay the record oracle per mode."""
    _g, job, deltas, static = case()
    _g, kjob, _d, _s = case(use_kernel=True)
    assert kjob.kernel is not None
    rec = run_oracle(job, deltas, static, num_pairs=4, mode=mode)
    ker = run_accum_local(kjob, deltas, static, num_pairs=4, mode=mode)
    assert ker.rounds == rec.rounds
    assert ker.deltas_shipped == rec.deltas_shipped
    if exact:
        assert ker.state == rec.state
    else:
        assert [k for k, _v in ker.state] == [k for k, _v in rec.state]
        assert np.allclose([v for _k, v in ker.state],
                           [v for _k, v in rec.state],
                           rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("case", [_sssp_case, _components_case],
                         ids=["sssp", "components"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_min_kernel_twin_does_the_record_work(case, mode):
    """Both layouts hold live ``min`` deltas only — an offer the state
    already absorbed is dropped by the oracle's ``AccumPair.absorb`` and
    deactivated by ``ColumnarAccum`` — so the kernel does exactly the
    record oracle's work.  sssp's state is float64 in both layouts, so
    every traced ``pending_mass`` is the same float as well (both fold
    with ``fsum``)."""
    _g, job, deltas, static = case()
    _g, kjob, _d, _s = case(use_kernel=True)
    rec = run_oracle(job, deltas, static, num_pairs=4, mode=mode, keep_trace=True)
    ker = run_accum_local(kjob, deltas, static, num_pairs=4, mode=mode, keep_trace=True)
    assert ker.state == rec.state
    for name in ("rounds", "updates_processed", "deltas_emitted", "deltas_shipped"):
        assert getattr(ker, name) == getattr(rec, name), name
    if case is _sssp_case:
        assert [r["pending_mass"] for r in ker.trace] == [
            r["pending_mass"] for r in rec.trace
        ]


def _emit_outside(key, delta, state, successors, emit):
    emit(99, state + 1.0)


@pytest.mark.parametrize("update,deltas,match", [
    # Key 99 is neither a static key nor an initial-delta key.
    (_emit_outside, [(0, 0.0)], r"outside the owned set: \[99\]"),
    # An int-seeded sssp: int64 state, float offers.
    (sssp.accum_update, [(0, 0)], "emits float64 values into int64 state"),
], ids=["unowned-key", "dtype"])
def test_kernel_less_contract_is_refused(update, deltas, match):
    """A kernel-less job runs columnar through its ``update_fn``, under
    the columnar contract: a closed key universe and one state dtype.
    The record oracle runs both of these jobs."""
    job = AccumJob("chain", "min", update, OUT, conf=_min_conf(), partitioner=ModPartitioner())
    job.conf.set(IterKeys.STATIC_PATH, STATIC)
    static = {STATIC: [(0, ((1, 0.5),)), (1, ())]}
    with pytest.raises(KernelContractError, match=match):
        run_accum_local(job, deltas, static, num_pairs=2)
    assert run_oracle(job, deltas, static, num_pairs=2).rounds > 0


# ------------------------------------------------- counters and trace --
def test_async_ships_fewer_deltas_than_sync_pagerank():
    """The tentpole's headline property at unit scale: to the same
    threshold, the priority scheduler moves less data."""
    _g, job, deltas, static = _pagerank_case(n=200, threshold=1e-9)
    sync = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    async_ = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    assert async_.deltas_shipped < sync.deltas_shipped
    assert async_.pending_mass <= job.threshold


def test_trace_is_cumulative_and_mass_terminates():
    _g, job, deltas, static = _pagerank_case()
    result = run_accum_local(job, deltas, static, num_pairs=4, mode="async",
                             keep_trace=True)
    assert len(result.trace) == result.rounds + 1  # plus termination row
    for prev, curr in zip(result.trace, result.trace[1:]):
        assert curr["round"] == prev["round"] + 1
        for key in ("updates", "emitted", "shipped"):
            assert curr[key] >= prev[key]
    assert result.trace[0]["pending_mass"] > job.threshold
    assert result.trace[-1]["pending_mass"] <= job.threshold
    assert result.trace[-1]["shipped"] == result.deltas_shipped


#: ``sha256(repr((state, trace)))`` with ``keep_trace=True`` (for the
#: ``simulated`` rows ``mode`` is the run's keywords).  First printed by
#: the commit before the scheduler cached priorities (78ccec3) and by the
#: last commit whose simulated backend was its own round loop (53c59c8);
#: re-printed when the queue began dropping dead ``min`` offers and
#: folding the mass with ``fsum``.  That re-pin moved only the last bits
#: of some ``pending_mass`` floats and components-sync's ``updates``
#: (240 → 194: sync rounds no longer drain dead offers); every state,
#: round count and other trace field stayed identical.
PINNED = {
    "sssp-async": (_sssp_case, {}, "async",
                   "9fea59a377e4694f3bfdfc1f58d6f12c4238779f363c152939f10cb2bafa61f8"),
    "pagerank-async": (_pagerank_case, {"threshold": 1e-6}, "async",
                       "9208262935a590d4d6c4241c3deb78cd9d5229398d19582a017021755edec766"),
    "components-sync": (_components_case, {}, "sync",
                        "3c22389d01fa87bd704f844b4932b5b78a2c891f4ef374c3b421fa800bc3cdcd"),
    "pagerank-simulated": (_pagerank_case, {"threshold": 1e-6}, {"seed": 3},
                           "8705c4ebbd5c4d1f90bc5e60c6a3c51d6e495641457e4763bb456b7968144c0a"),
    "sssp-simulated": (_sssp_case, {}, {"seed": 17},
                       "4a1bae33fec07f228615c16cc716ee73b198acbcf9861969a94aa7a9d4bc1bb2"),
    # No schedule jitter: deferral alone.
    "pagerank-simulated-sync": (_pagerank_case, {"threshold": 1e-6},
                                {"seed": 5, "mode": "sync"},
                                "0f5e649bed2da031aa290e4c8c8801c63b50fc5f38084f7593d8373ddde55dd3"),
    # Stops on maxrounds with six batches still in flight.
    "pagerank-simulated-maxrounds": (_pagerank_case,
                                     {"threshold": 1e-6, "max_rounds": 3},
                                     {"seed": 1},
                                     "6fe0d7d0675a810a887b27b0192e2f81ddc6836587d1e1e922e7e690b7374eb2"),
}


@pytest.mark.parametrize("name", PINNED)
def test_schedule_is_pinned_bit_for_bit(name):
    """Final state and every trace row — ``pending_mass`` floats
    included — are pinned.  A change that alters the schedule on purpose
    re-pins."""
    case, kwargs, mode, digest = PINNED[name]
    _g, job, deltas, static = case(**kwargs)
    # The record oracle's schedule, on the serial and the simulated host
    # (which also takes the --mode sync no repro-run cell offers).
    if isinstance(mode, dict):
        plan = ExecutionPlan(backend="simulated", num_pairs=4, keep_trace=True, **mode)
        result = run_oracle(job, deltas, static, plan)
    else:
        result = run_oracle(job, deltas, static, num_pairs=4, mode=mode, keep_trace=True)
    got = hashlib.sha256(repr((result.state, result.trace)).encode()).hexdigest()
    assert got == digest


def test_maxrounds_termination():
    _g, job, deltas, static = _pagerank_case()
    from repro.common import IterKeys

    job.conf.set_int(IterKeys.MAX_ITER, 3)
    result = run_accum_local(job, deltas, static, num_pairs=4, mode="async")
    assert result.terminated_by == "maxrounds"
    assert result.rounds == 3
    assert not result.converged


# --------------------------------------------------- simulated backend --
def _simulated(job, deltas, static, seed, **fields):
    return execute(job, deltas, static, ExecutionPlan(
        backend="simulated", num_pairs=4, seed=seed, **fields))


def test_simulated_deferral_reaches_the_min_fixpoint():
    """Seeded delivery deferral reorders delta batches but never drops
    or duplicates them, so the (unique) min fixpoint still lands
    bit-exactly — the chaos harness's async coverage."""
    _g, job, deltas, static = _sssp_case()
    serial = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    for seed in (0, 1, 17):
        sim = _simulated(job, deltas, static, seed)
        assert sim.terminated_by == "progress"
        assert sim.state == serial.state


def test_simulated_is_seed_deterministic():
    _g, job, deltas, static = _pagerank_case()
    a = _simulated(job, deltas, static, 7, keep_trace=True)
    b = _simulated(job, deltas, static, 7, keep_trace=True)
    assert a.state == b.state
    assert a.trace == b.trace
    assert a.rounds == b.rounds


def test_simulated_deferral_delivers_exactly_once():
    """A ``+`` algebra absorbs a duplicated delta and misses a dropped
    one — either of which the min fixpoint above can mask — so every
    deferred run must land on the synchronous serial fixpoint within
    the ``async-fixpoint`` oracle's sum tolerance."""
    _g, job, deltas, static = _pagerank_case()
    serial = run_accum_local(job, deltas, static, num_pairs=4, mode="sync")
    for seed in range(8):
        sim = _simulated(job, deltas, static, seed)
        assert sim.terminated_by == "progress"
        assert fixpoints_agree(sim.state, serial.state, exact=False)


def test_state_covers_key_universe_at_identity():
    """Unreached keys appear in the output at the algebra's identity —
    matching the synchronous executors' full state records."""
    graph = sssp_graph(40, seed=5)
    # Cut every edge out of the source's component tail by pointing the
    # initial delta at a fresh job over a graph where node 0 reaches
    # only part of the graph; unreached nodes must still be reported.
    job = sssp.build_accum_job(state_path=STATE, static_path=STATIC,
                               output_path=OUT, max_rounds=10_000)
    result = run_accum_local(job, sssp.accum_initial_deltas(0),
                             {STATIC: sssp.static_records(graph)},
                             num_pairs=4, mode="async")
    assert len(result.state) == graph.num_nodes
    ref = sssp.reference_exact(graph, 0)
    for (k, v) in result.state:
        if math.isinf(ref[k]):
            assert math.isinf(v)
