"""Incremental recomputation (i2MapReduce mode) — the warm-vs-cold
differential contract.

The module under test memoizes a converged run, derives the affected-key
frontier from a :class:`DataDelta`, patches the resident static tables in
place, and warm-starts iteration from the memo restricted to the dirty
frontier.  The identity to prove everywhere: a warm run on the *old*
input plus a delta converges to the same fixpoint a cold rerun computes
on the *mutated* input — bit-exactly for the min algebras (sssp,
components), threshold-bounded for the sum algebra (pagerank) — while
touching strictly fewer pairs at small deltas.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import components, pagerank, sssp
from repro.algorithms.workloads import MAX_ROUNDS, build_workload
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import (
    DataDelta,
    DeltaError,
    ExecutionPlan,
    MemoStore,
    WarmStart,
    execute,
    patch_static_table,
    plan_changes,
    run_incremental_accum,
)
from repro.imapreduce.incremental import (
    ADJACENCY_KINDS,
    change_model,
    random_edge_churn,
)
from repro.imapreduce.plan import run_accum_local, run_local
from repro.imapreduce.plan import refresh_vs_cold

RTOL, ATOL = 1e-9, 1e-12


def states_close(a, b):
    da, db = dict(a), dict(b)
    assert set(da) == set(db)
    for k in da:
        assert da[k] == pytest.approx(db[k], rel=RTOL, abs=ATOL), k


# ------------------------------------------------------------ DataDelta --
class TestDataDelta:
    def test_arity_validation(self):
        with pytest.raises(DeltaError, match="3 fields"):
            DataDelta(insert_edges=((0, 1),)).validate(ADJACENCY_KINDS["sssp"])
        with pytest.raises(DeltaError, match="2 fields"):
            DataDelta(insert_edges=((0, 1, 2.0),)).validate(
                ADJACENCY_KINDS["pagerank"]
            )

    def test_update_needs_weighted(self):
        with pytest.raises(DeltaError, match="weighted"):
            DataDelta(update_edges=((0, 1, 2.0),)).validate(
                ADJACENCY_KINDS["pagerank"]
            )

    def test_double_mutation_rejected(self):
        with pytest.raises(DeltaError, match="twice"):
            DataDelta(
                insert_edges=((0, 1),), delete_edges=((0, 1),)
            ).validate(ADJACENCY_KINDS["pagerank"])

    def test_symmetric_double_mutation_rejected(self):
        # (1, 0) is the same undirected edge as (0, 1) for components.
        with pytest.raises(DeltaError, match="twice"):
            DataDelta(
                insert_edges=((0, 1),), delete_edges=((1, 0),)
            ).validate(ADJACENCY_KINDS["components"])

    def test_size_and_empty(self):
        assert DataDelta().is_empty()
        d = DataDelta(insert_edges=((0, 1),), insert_nodes=(5,))
        assert d.size == 2 and not d.is_empty()

    def test_tuple_round_trip(self):
        d = DataDelta(
            insert_edges=((0, 1, 2.5),),
            delete_edges=((2, 3),),
            update_edges=((4, 5, 0.25),),
            insert_nodes=(9,),
        )
        assert DataDelta.from_tuple(d.to_tuple()) == d


# ---------------------------------------------------- patch_static_table --
class TestPatchStaticTable:
    def test_delete_keeps_survivor_order(self):
        table = {0: (3, 1, 2), 1: (), 2: (), 3: ()}
        dirty = patch_static_table(
            table, DataDelta(delete_edges=((0, 1),)), ADJACENCY_KINDS["pagerank"]
        )
        assert table[0] == (3, 2) and dirty == {0}

    def test_insert_appends(self):
        table = {0: (2,), 1: (), 2: (), 3: ()}
        patch_static_table(
            table, DataDelta(insert_edges=((0, 1), (0, 3))),
            ADJACENCY_KINDS["pagerank"],
        )
        assert table[0] == (2, 1, 3)

    def test_weighted_update_in_place(self):
        table = {0: ((1, 5.0), (2, 7.0)), 1: (), 2: ()}
        patch_static_table(
            table, DataDelta(update_edges=((0, 2, 1.5),)),
            ADJACENCY_KINDS["sssp"],
        )
        assert table[0] == ((1, 5.0), (2, 1.5))

    def test_symmetric_patch_touches_both_rows_sorted(self):
        table = {0: (2,), 1: (), 2: (0,)}
        dirty = patch_static_table(
            table, DataDelta(insert_edges=((1, 0),)),
            ADJACENCY_KINDS["components"],
        )
        assert dirty == {0, 1}
        assert table[0] == (1, 2) and table[1] == (0,)

    def test_insert_node_then_edge(self):
        table = {0: (), 1: ()}
        patch_static_table(
            table, DataDelta(insert_nodes=(2,), insert_edges=((0, 2),)),
            ADJACENCY_KINDS["pagerank"],
        )
        assert table[2] == () and table[0] == (2,)

    def test_errors(self):
        kind = ADJACENCY_KINDS["pagerank"]
        with pytest.raises(DeltaError, match="not present"):
            patch_static_table({0: (), 1: ()}, DataDelta(delete_edges=((0, 1),)), kind)
        with pytest.raises(DeltaError, match="already present"):
            patch_static_table({0: (1,), 1: ()}, DataDelta(insert_edges=((0, 1),)), kind)
        with pytest.raises(DeltaError, match="unknown target"):
            patch_static_table({0: (), 1: ()}, DataDelta(insert_edges=((0, 9),)), kind)
        with pytest.raises(DeltaError, match="already exists"):
            patch_static_table({0: ()}, DataDelta(insert_nodes=(0,)), kind)


# --------------------------------------------------------- change plans --
class TestChangePlan:
    def test_pagerank_plan_is_pure_perturbation(self):
        g = pagerank_graph(60, seed=1)
        table = dict(pagerank.static_records(g))
        memo = {u: 1.0 for u in table}
        delta = random_edge_churn(table, "pagerank", insert=2, delete=2, seed=5)
        plan = plan_changes("pagerank", table, delta, memo,
                            damping=pagerank.DAMPING)
        assert not plan.reset_keys  # sum algebra never invalidates
        assert plan.perturbation and len(plan.frontier) >= 1
        assert plan.summary()["delta_size"] == delta.size

    def test_min_plan_resets_reachable_closure(self):
        # 0 -> 1 -> 2 -> 3, plus 0 -> 3 shortcut.  Deleting 1 -> 2 must
        # invalidate 2 and 3 (both forward-reachable from the head).
        table = {0: ((1, 1.0), (3, 9.0)), 1: ((2, 1.0),), 2: ((3, 1.0),), 3: ()}
        memo = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        plan = plan_changes("sssp", dict(table),
                            DataDelta(delete_edges=((1, 2),)), memo, source=0)
        assert plan.reset_keys == frozenset({2, 3})
        # 3 is re-seeded by the surviving boundary edge 0 -> 3.
        offers = dict(plan.perturbation)
        assert offers[3] == pytest.approx(9.0)

    def test_min_plan_insert_is_monotone_offer(self):
        table = {0: ((1, 1.0),), 1: (), 2: ()}
        memo = {0: 0.0, 1: 1.0, 2: math.inf}
        plan = plan_changes("sssp", dict(table),
                            DataDelta(insert_edges=((1, 2, 0.5),)), memo,
                            source=0)
        assert not plan.reset_keys
        assert dict(plan.perturbation)[2] == pytest.approx(1.5)

    def test_missing_params_rejected(self):
        with pytest.raises(DeltaError):
            plan_changes("pagerank", {0: ()}, DataDelta(), {})  # no damping
        with pytest.raises(DeltaError):
            plan_changes("sssp", {0: ()}, DataDelta(), {})  # no source
        with pytest.raises(DeltaError):
            plan_changes("tsp", {0: ()}, DataDelta(), {})


# -------------------------------------------------------- churn synthesis --
@pytest.mark.parametrize(
    "records, build, algorithm, kwargs, pin",
    [
        # sha256(repr(delta))[:16] at commit 5002b67, whose churn walked
        # every edge in a statement loop; one pin per adjacency kind.
        pytest.param(pagerank.static_records, pagerank_graph, "pagerank",
                     {}, "fc0c47f2ad764e69", id="pagerank"),
        pytest.param(sssp.static_records, sssp_graph, "sssp",
                     {"monotone": True}, "9004f12d3f4f0bb0", id="sssp-monotone"),
        pytest.param(sssp.static_records, sssp_graph, "sssp",
                     {"update": 9}, "685200e492a38586", id="sssp-update"),
        pytest.param(components.static_records, pagerank_graph, "components",
                     {}, "bf751bc60aeddf6a", id="components"),
    ],
)
def test_random_edge_churn_is_pinned(records, build, algorithm, kwargs, pin):
    table = dict(records(build(300, seed=1)))
    delta = random_edge_churn(table, algorithm, insert=12, delete=12, seed=5, **kwargs)
    assert hashlib.sha256(repr(delta).encode()).hexdigest()[:16] == pin
    delta.validate(ADJACENCY_KINDS[algorithm])
    patch_static_table(table, delta, ADJACENCY_KINDS[algorithm])


@pytest.mark.parametrize(
    "algorithm, kwargs, message",
    [
        pytest.param("pagerank", {"update": 5}, "carry no weight",
                     id="update-unweighted"),
        pytest.param("sssp", {"update": 5, "monotone": True}, "monotone=True",
                     id="update-monotone"),
        pytest.param("tsp", {"insert": 5}, "supported: pagerank, sssp, components",
                     id="unknown-algorithm"),
    ],
)
def test_random_edge_churn_refuses_what_it_cannot_draw(algorithm, kwargs, message):
    """A churn it cannot draw is an error, not a smaller delta."""
    if algorithm == "sssp":
        table = dict(sssp.static_records(sssp_graph(40, seed=1)))
    else:
        table = dict(pagerank.static_records(pagerank_graph(40, seed=1)))
    with pytest.raises(DeltaError, match=message):
        random_edge_churn(table, algorithm, seed=5, **kwargs)


@pytest.mark.parametrize(
    "algorithm, kwargs, message",
    [
        pytest.param("pagerank", {"delete": 3}, "delete=3: the table holds 2 edge\\(s\\)",
                     id="delete"),
        pytest.param("pagerank", {"insert": 5}, "found only 4 absent pairs", id="insert"),
        pytest.param("sssp", {"delete": 1, "update": 2}, "update=2: 1 edge\\(s\\) left",
                     id="update"),
    ],
)
def test_random_edge_churn_refuses_a_shortfall(algorithm, kwargs, message):
    """Three nodes and two edges (``0 -> 1``, ``1 -> 0``) hold fewer
    edits than asked for: an error, not a smaller delta."""
    weighted = algorithm == "sssp"
    table = {0: ((1, 1.0),) if weighted else (1,),
             1: ((0, 2.0),) if weighted else (0,), 2: ()}
    with pytest.raises(DeltaError, match=message):
        random_edge_churn(table, algorithm, seed=5, **kwargs)


# ------------------------------------------------------- the seed rule --
#: algorithm -> (graph generator, static records, cold seeds for ``n``
#: nodes from ``source``).
COLD_SEEDS = {
    "sssp": (sssp_graph, sssp.static_records,
             lambda n, source: sssp.accum_initial_deltas(source)),
    "pagerank": (pagerank_graph, pagerank.static_records,
                 lambda n, source: pagerank.accum_initial_deltas(n, pagerank.DAMPING)),
    "components": (pagerank_graph, components.static_records,
                   lambda n, source: components.accum_initial_deltas(n)),
}


@settings(max_examples=40, deadline=None)
@given(algorithm=st.sampled_from(sorted(COLD_SEEDS)),
       n=st.integers(min_value=2, max_value=80), seed=st.integers(0, 2**16))
def test_change_model_seeds_are_the_algorithm_cold_seeds(algorithm, n, seed):
    """The seed rule's two homes agree.  The chaos ``cold-base`` row
    seeds from the workload table (the algorithm's
    ``accum_initial_deltas``), ``cold-rerun`` from the change model; a
    drift would skew every warm-vs-cold verdict."""
    generate, records, cold_seeds = COLD_SEEDS[algorithm]
    source = seed % n
    table = dict(records(generate(n, seed=seed)))
    model = change_model(algorithm, damping=pagerank.DAMPING, source=source)
    assert model.seeds(table) == cold_seeds(n, source)


# ----------------------------------------------- warm-vs-cold: pagerank --
def _pagerank_setup(n=120, seed=3, use_kernel=False):
    g = pagerank_graph(n, seed=seed)
    table = dict(pagerank.static_records(g))
    job = pagerank.build_accum_job(
        state_path="/s", static_path="/st", output_path="/o",
        threshold=1e-12, use_kernel=use_kernel,
    )
    cold = run_accum_local(
        job, pagerank.accum_initial_deltas(g.num_nodes), {"/st": table},
        num_pairs=4, mode="async",
    )
    return table, job, cold


@pytest.mark.parametrize("use_kernel", [False, True])
@pytest.mark.parametrize("mode", ["async", "sync"])
def test_pagerank_warm_matches_cold_fixpoint(mode, use_kernel):
    table, job, cold = _pagerank_setup(use_kernel=use_kernel)
    delta = random_edge_churn(table, "pagerank", insert=3, delete=3, seed=7)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["pagerank"])
    cold2 = run_accum_local(
        job, change_model("pagerank", damping=pagerank.DAMPING).seeds(mutated),
        {"/st": mutated}, num_pairs=4, mode=mode,
    )
    warm = run_incremental_accum(
        job, "pagerank", delta, cold.state, {"/st": table},
        num_pairs=4, mode=mode, damping=pagerank.DAMPING,
    )
    states_close(warm.state, cold2.state)
    assert warm.counters["incremental"]["delta_size"] == delta.size


def test_pagerank_warm_touches_strictly_less():
    table, job, cold = _pagerank_setup(n=300, seed=11)
    delta = random_edge_churn(table, "pagerank", insert=2, delete=2, seed=13)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["pagerank"])
    cold2 = run_accum_local(
        job, change_model("pagerank", damping=pagerank.DAMPING).seeds(mutated),
        {"/st": mutated}, num_pairs=4, mode="async",
    )
    warm = run_incremental_accum(
        job, "pagerank", delta, cold.state, {"/st": table},
        num_pairs=4, mode="async", damping=pagerank.DAMPING,
    )
    states_close(warm.state, cold2.state)
    assert warm.updates_processed < cold2.updates_processed
    assert warm.deltas_shipped < cold2.deltas_shipped


def test_pagerank_node_insert_corrects_teleport():
    # Adding a node changes 1/N: the plan must carry the Δb correction
    # to *every* key, and still land on the cold fixpoint.
    table, job, cold = _pagerank_setup(n=80, seed=5)
    new = len(table)
    delta = DataDelta(insert_nodes=(new,),
                      insert_edges=((new, 0), (3, new)))
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["pagerank"])
    cold2 = run_accum_local(
        job, change_model("pagerank", damping=pagerank.DAMPING).seeds(mutated),
        {"/st": mutated}, num_pairs=4, mode="async",
    )
    warm = run_incremental_accum(
        job, "pagerank", delta, cold.state, {"/st": table},
        num_pairs=4, mode="async", damping=pagerank.DAMPING,
    )
    states_close(warm.state, cold2.state)
    assert dict(warm.state)[new] > 0.0


# ------------------------------------------------- warm-vs-cold: sssp --
def _sssp_setup(n=100, seed=5, use_kernel=False):
    g = sssp_graph(n, seed=seed)
    table = dict(sssp.static_records(g))
    job = sssp.build_accum_job(
        state_path="/s", static_path="/st", output_path="/o",
        use_kernel=use_kernel,
    )
    cold = run_accum_local(
        job, sssp.accum_initial_deltas(0), {"/st": table},
        num_pairs=4, mode="async",
    )
    return table, job, cold


@pytest.mark.parametrize("use_kernel", [False, True])
@pytest.mark.parametrize("mode", ["async", "sync"])
def test_sssp_warm_bit_exact_with_deletions(mode, use_kernel):
    table, job, cold = _sssp_setup(use_kernel=use_kernel)
    delta = random_edge_churn(table, "sssp", insert=4, delete=4, seed=11)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    cold2 = run_accum_local(job, [(0, 0.0)], {"/st": mutated},
                            num_pairs=4, mode=mode)
    warm = run_incremental_accum(
        job, "sssp", delta, cold.state, {"/st": table},
        num_pairs=4, mode=mode, source=0,
    )
    assert warm.state == cold2.state  # bit-exact, not approx


def test_sssp_monotone_churn_is_cheap_and_exact():
    table, job, cold = _sssp_setup(n=200, seed=8)
    delta = random_edge_churn(table, "sssp", insert=3, delete=3, seed=13,
                              monotone=True)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    cold2 = run_accum_local(job, [(0, 0.0)], {"/st": mutated},
                            num_pairs=4, mode="async")
    warm = run_incremental_accum(
        job, "sssp", delta, cold.state, {"/st": table},
        num_pairs=4, mode="async", source=0,
    )
    assert warm.state == cold2.state
    assert warm.updates_processed < cold2.updates_processed
    assert warm.deltas_shipped < cold2.deltas_shipped


def test_sssp_weight_increase_invalidates():
    # Raising a shortest-path edge weight must not leave the stale
    # (smaller) memo distance in place.
    table = {0: ((1, 1.0),), 1: ((2, 1.0),), 2: ()}
    job = sssp.build_accum_job(state_path="/s", static_path="/st",
                               output_path="/o")
    cold = run_accum_local(job, [(0, 0.0)], {"/st": table},
                           num_pairs=2, mode="async")
    delta = DataDelta(update_edges=((0, 1, 5.0),))
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    cold2 = run_accum_local(job, [(0, 0.0)], {"/st": mutated},
                            num_pairs=2, mode="async")
    warm = run_incremental_accum(
        job, "sssp", delta, cold.state, {"/st": table},
        num_pairs=2, mode="async", source=0,
    )
    assert warm.state == cold2.state
    assert dict(warm.state)[1] == pytest.approx(5.0)


# ------------------------------------- warm-vs-cold: the churn sweep --
@pytest.mark.parametrize("algorithm", ["pagerank", "sssp"])
def test_refresh_vs_cold_across_churn_levels(algorithm):
    """What ``repro run --delta`` prints, swept over edge churn on a
    300-node graph: at every level the warm refresh lands on the cold
    rerun's fixpoint, and at 1 % churn or less it recomputes strictly
    fewer pairs and ships strictly fewer delta records.  At 10 % a warm
    refresh legitimately approaches cold-rerun work, so only agreement
    is asserted there."""
    generator = {"pagerank": pagerank_graph, "sssp": sssp_graph}[algorithm]
    workload = build_workload(algorithm, "accumulative",
                              generator(300, seed=42), steps=MAX_ROUNDS,
                              num_pairs=8)
    job, deltas, statics = workload[:3]
    table = dict(statics[job.static_path])
    memo = run_accum_local(job, deltas, statics, num_pairs=8, mode="sync")
    for churn in (0.001, 0.01, 0.1):
        _delta, (warm, _), (cold, _), agree = refresh_vs_cold(
            workload, memo.state, table, churn, 13,
            ExecutionPlan(num_pairs=8, mode="async"),
        )
        assert agree, churn
        if churn <= 0.01:
            assert warm.updates_processed < cold.updates_processed, churn
            assert warm.deltas_shipped < cold.deltas_shipped, churn


# ------------------------------------------ warm-vs-cold: components --
def _components_table(edges, n):
    table = {u: () for u in range(n)}
    for u, v in edges:
        table[u] = tuple(sorted(table[u] + (v,)))
        table[v] = tuple(sorted(table[v] + (u,)))
    return table


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_components_split_and_merge(mode):
    edges = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (2, 5)]
    table = _components_table(edges, 9)
    job = components.build_accum_job(state_path="/s", static_path="/st",
                                     output_path="/o")
    cold = run_accum_local(job, components.accum_initial_deltas(9),
                           {"/st": table}, num_pairs=3, mode=mode)
    # Deleting 2-5 splits {0..2, 5..7}; inserting 7-8 merges 8 in.
    delta = DataDelta(insert_edges=((7, 8),), delete_edges=((2, 5),))
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["components"])
    cold2 = run_accum_local(job, components.accum_initial_deltas(9),
                            {"/st": mutated}, num_pairs=3, mode=mode)
    warm = run_incremental_accum(
        job, "components", delta, cold.state, {"/st": table},
        num_pairs=3, mode=mode,
    )
    assert warm.state == cold2.state
    labels = dict(warm.state)
    assert labels[5] == 5 and labels[8] == 5  # split component relabelled


# -------------------------------------------------- sync-engine warm --
def test_sync_engine_warm_sssp_matches_cold():
    g = sssp_graph(80, seed=6)
    table = dict(sssp.static_records(g))
    job = sssp.build_imr_job(state_path="/s", static_path="/st",
                             output_path="/o", threshold=0.0)
    cold = run_local(job, sssp.initial_state(g, 0), {"/st": table},
                     num_pairs=4)
    delta = random_edge_churn(table, "sssp", insert=3, delete=3, seed=4)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    ref = run_local(
        job, [(u, 0.0 if u == 0 else math.inf) for u in mutated],
        {"/st": mutated}, num_pairs=4,
    )
    warm = execute(job, cold.state, {"/st": table}, ExecutionPlan(
        num_pairs=4, warm=WarmStart(change_model("sssp", source=0), delta)))
    assert dict(warm.state) == dict(ref.state)


def test_sync_engine_warm_converges_faster_on_monotone_churn():
    g = sssp_graph(120, seed=9)
    table = dict(sssp.static_records(g))
    job = sssp.build_imr_job(state_path="/s", static_path="/st",
                             output_path="/o", threshold=0.0)
    cold = run_local(job, sssp.initial_state(g, 0), {"/st": table},
                     num_pairs=4)
    delta = random_edge_churn(table, "sssp", insert=2, delete=2, seed=3,
                              monotone=True)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    ref = run_local(
        job, [(u, 0.0 if u == 0 else math.inf) for u in mutated],
        {"/st": mutated}, num_pairs=4,
    )
    warm = execute(job, cold.state, {"/st": table}, ExecutionPlan(
        num_pairs=4, warm=WarmStart(change_model("sssp", source=0), delta)))
    assert dict(warm.state) == dict(ref.state)
    assert warm.iterations_run < ref.iterations_run


def test_sync_engine_warm_pagerank_threshold_bounded():
    g = pagerank_graph(90, seed=2)
    table = dict(pagerank.static_records(g))
    job = pagerank.build_imr_job(g.num_nodes, state_path="/s",
                                 static_path="/st", output_path="/o",
                                 threshold=1e-10)
    cold = run_local(job, pagerank.initial_state(g), {"/st": table},
                     num_pairs=4)
    delta = random_edge_churn(table, "pagerank", insert=2, delete=2, seed=3)
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["pagerank"])
    ref = run_local(job, [(u, 1.0 / g.num_nodes) for u in mutated],
                    {"/st": mutated}, num_pairs=4)
    warm = execute(job, cold.state, {"/st": table}, ExecutionPlan(
        num_pairs=4,
        warm=WarmStart(change_model("pagerank", damping=pagerank.DAMPING), delta)))
    da, db = dict(warm.state), dict(ref.state)
    for k in db:
        assert da[k] == pytest.approx(db[k], rel=1e-6, abs=1e-8)


# ------------------------------------------------------------ MemoStore --
class TestMemoStore:
    def _converged(self):
        table, job, cold = _sssp_setup(n=40, seed=2)
        return table, job, cold

    def test_round_trip_preserves_engine_order(self, tmp_path):
        _table, job, cold = self._converged()
        store = MemoStore(str(tmp_path))
        version = store.save(cold.state, job_name=job.name, num_pairs=4,
                             partitioner=job.partitioner,
                             meta={"algorithm": "sssp", "source": 0})
        assert version == 0 and store.has()
        records, meta = store.load(job_name=job.name)
        assert records == list(cold.state)
        assert meta["algorithm"] == "sssp"
        assert meta["version"] == 0 and meta["num_pairs"] == 4

    def test_versions_bump_and_retention(self, tmp_path):
        _table, job, cold = self._converged()
        store = MemoStore(str(tmp_path), keep=2)
        for _ in range(4):
            store.save(cold.state, job_name=job.name, num_pairs=4,
                       partitioner=job.partitioner)
        assert store.versions() == [3, 2]  # keep=2 pruned 0 and 1

    def test_job_name_mismatch_rejected(self, tmp_path):
        _table, job, cold = self._converged()
        store = MemoStore(str(tmp_path))
        store.save(cold.state, job_name=job.name, num_pairs=4,
                   partitioner=job.partitioner)
        with pytest.raises(DeltaError, match="belongs to job"):
            store.load(job_name="some-other-job")

    def test_load_empty_store_raises(self, tmp_path):
        with pytest.raises(DeltaError, match="no memoized state"):
            MemoStore(str(tmp_path)).load()

    def test_memoized_warm_refresh_end_to_end(self, tmp_path):
        table, job, cold = self._converged()
        store = MemoStore(str(tmp_path))
        store.save(cold.state, job_name=job.name, num_pairs=4,
                   partitioner=job.partitioner,
                   meta={"algorithm": "sssp", "source": 0})
        memo, meta = store.load(job_name=job.name)
        delta = random_edge_churn(table, "sssp", insert=2, delete=2, seed=6)
        mutated = dict(table)
        patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
        cold2 = run_accum_local(job, [(0, 0.0)], {"/st": mutated},
                                num_pairs=meta["num_pairs"], mode="async")
        warm = run_incremental_accum(
            job, meta["algorithm"], delta, memo, {"/st": table},
            num_pairs=meta["num_pairs"], mode="async", source=meta["source"],
        )
        assert warm.state == cold2.state
