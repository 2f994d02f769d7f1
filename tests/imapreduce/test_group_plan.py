"""The record path's remembered shuffle grouping (``GroupPlan``).

``RecordSync`` replays a slot's grouping only under exact key-sequence
equality, so with or without a plan it must hand the combiner and the
reducer what the reference does — ``map_pair`` / ``group_by_key`` —
record for record *and in order*.  The property test drives one
executor through sequences that repeat, change in one position and
repeat again, comparing ``repr`` (which tells ``1`` / ``1.0`` / ``True``
and ``0.0`` / ``-0.0`` apart where ``==`` does not); the rest pins the
exact plan counters, the combiner-destination contract on all three
backends and the profiler's coverage of the wall clock.
"""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import pagerank, sssp
from repro.cluster import local_cluster
from repro.common import IterKeys, JobConf
from repro.common.partition import HashPartitioner, ModPartitioner, bind_partitioner
from repro.common.records import GroupPlan, group_by_dest, group_by_key, plannable
from repro.dfs import DFS
from repro.graph.generators import pagerank_graph
from repro.imapreduce import IMapReduceRuntime, IterativeJob, run_local, run_parallel
from repro.imapreduce.engine import PHASE_COUNTERS, SHUFFLE, by_dest, host_config
from repro.imapreduce.localrun import RecordSync, map_pair
from repro.simulation import Engine
from tests.imapreduce.test_runtime_basic import read_final

STATE, STATIC, OUT = "/gp/state", "/gp/static", "/gp/out"


# ------------------------------------------------------------ exactness --
def scripted_map(key, emissions, static, ctx):
    """The state value *is* the emission list, so a test scripts each
    step's key sequence by setting the executor's state."""
    for k, v in emissions:
        ctx.emit(k, v)


def ordered_fold(key, values, ctx):
    """A combiner/reducer whose output shows the values' order, and that
    clears its input — harmless only if the list was its own."""
    assert type(values) is list
    ctx.emit(key, tuple(values))
    values.clear()


def scripted_executor(partitioner, num_pairs, combiner):
    job = IterativeJob.single_phase(
        "scripted", scripted_map, ordered_fold,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 1}),
        output_path=OUT, partitioner=partitioner,
        combiner=ordered_fold if combiner else None,
    )
    cfg = host_config(
        0, range(num_pairs), [[] for _ in range(num_pairs)], [[{}] * num_pairs],
        num_workers=1, num_pairs=num_pairs, job=job,
        send_state=False, wait_verdict=False,
    )
    return job.phases[0], RecordSync(cfg, dict.fromkeys(PHASE_COUNTERS, 0.0))


def reference_step(phase, part, current):
    """The unplanned path: ``map_pair`` per pair, its output routed by
    key in order of first appearance, then ``group_by_key`` at each
    destination over its batches in ascending source order."""
    items = []
    for p, records in current.items():
        routed: dict[int, list] = {}
        for rec in map_pair(phase, records, {}, None, None, part):
            routed.setdefault(part(rec[0]), []).append(rec)
        items += [(q, p, recs) for q, recs in routed.items()]
    merged = by_dest(items)
    reduced = {}
    for q in current:
        arrived = [rec for _q, _p, recs in merged.get(q, ()) for rec in recs]
        reduced[q] = [(k, tuple(vs)) for k, vs in group_by_key(arrived)]
    return items, reduced


INT_KEYS = st.integers(min_value=-3, max_value=9)
STR_KEYS = st.sampled_from(["a", "b", "c", "1", ""])
#: Keys that compare equal to an int (or to each other) under ``==`` yet
#: partition and repr differently, plus the unorderable int/tuple mix.
TRAP_KEYS = st.sampled_from(
    [1, 0, 2, True, False, 1.0, 0.0, -0.0, 2.0, "1", (0, 1), (1, 0)])
KEY_FAMILIES = [INT_KEYS, INT_KEYS, STR_KEYS, TRAP_KEYS, st.one_of(INT_KEYS, TRAP_KEYS)]


@st.composite
def scripts(draw):
    """Per step, per pair: the emission key sequence.  A step either
    repeats the previous sequences or replaces one key in one pair."""
    num_pairs = draw(st.integers(min_value=1, max_value=4))
    keys = draw(st.sampled_from(KEY_FAMILIES))
    seqs = [draw(st.lists(keys, max_size=12)) for _ in range(num_pairs)]
    steps = [seqs]
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        seqs = [list(seq) for seq in seqs]
        pair = draw(st.integers(min_value=0, max_value=num_pairs - 1))
        if seqs[pair] and draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(seqs[pair]) - 1))
            seqs[pair][at] = draw(st.one_of(keys, TRAP_KEYS))
        steps.append(seqs)
    return steps


@settings(max_examples=120, deadline=None)
@given(
    steps=scripts(),
    partitioner=st.sampled_from([ModPartitioner(), HashPartitioner()]),
    combiner=st.booleans(),
)
def test_planned_equals_reference_in_order(steps, partitioner, combiner):
    num_pairs = len(steps[0])
    if not combiner:
        # Uncombined records are routed through ``route_cache``, a dict,
        # which (before this test existed, and still) sends ``True`` or
        # ``1.0`` where it first sent ``1`` — ROADMAP item 3 has it.
        # Combined output, and every grouping, is held to the traps.
        keys = [k for seqs in steps for seq in seqs for k in seq]
        assume(len(set(keys)) == len(set(map(repr, keys))))
    part = bind_partitioner(partitioner, num_pairs)
    phase, executor = scripted_executor(partitioner, num_pairs, combiner)
    for step, seqs in enumerate(steps):
        # Values differ at every step and position: order is visible.
        current = {
            p: [(p, [(k, (step, p, i)) for i, k in enumerate(seq)])]
            for p, seq in enumerate(seqs)
        }
        want_items, want_reduced = reference_step(phase, part, current)
        executor.current = dict(current)
        items = executor.emit(SHUFFLE, 0, None)
        assert repr(items) == repr(want_items)
        executor.absorb(SHUFFLE, 0, by_dest(items))
        assert repr(executor.current) == repr(want_reduced)
    stats = executor.final_stats()
    # At most one plan and one candidate per (side, phase, pair).
    assert len(executor.group_plans) <= 2 * num_pairs
    assert len(executor.key_seqs) <= 2 * num_pairs
    assert stats["plans_built"] >= len(executor.group_plans)


@pytest.mark.parametrize("other", [1.0, True])
def test_a_plan_built_on_ints_is_not_replayed_on_equal_floats_or_bools(other):
    """``[1, 2, 1] == [1.0, 2, 1] == [True, 2, 1]``, but ``ModPartitioner``
    sends ``1`` to pair 1 and hashes the other two elsewhere."""
    part = bind_partitioner(ModPartitioner(), 4)
    plan = GroupPlan([1, 2, 1], part)
    assert plan.covers([1, 2, 1])
    trap = [other, 2, 1]
    assert trap == plan.keys and not plan.covers(trap)
    assert not plannable(trap)
    # Not even a sequence of one such type is planned.
    assert not plannable([1.0, 2.0]) and not plannable([(0, 1)])
    assert plannable(["a", "b"]) and not plannable([])


def test_replay_takes_each_key_object_from_the_current_emission():
    big = 10**6  # ints this large are not interned: equal, not identical
    plan = GroupPlan([big, 7, big + 0])
    keys = [int("1000000"), 7, int("1000000")]
    records = [(k, i) for i, k in enumerate(keys)]
    assert plan.covers(keys)
    ((_dest, groups),) = plan.apply(keys, records)
    groups = list(groups)
    assert groups == group_by_key(records) == [(7, [1]), (big, [0, 2])]
    assert groups[1][0] is keys[0]
    # The same shape the reference yields, destination by destination.
    part = bind_partitioner(ModPartitioner(), 2)
    planned = [(d, list(g)) for d, g in GroupPlan(keys, part).apply(keys, records)]
    assert planned == [(d, list(g)) for d, g in group_by_dest(records, part)]


# ---------------------------------------------------------- the counters --
def _pagerank(nodes, iterations, num_pairs, combiner=True):
    graph = pagerank_graph(nodes, seed=3)
    job = pagerank.build_imr_job(
        nodes, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=iterations, num_pairs=num_pairs, combiner=combiner,
    )
    return job, pagerank.initial_state(graph), {STATIC: pagerank.static_records(graph)}


def test_pagerank_builds_each_plan_once_at_step_1():
    """A pagerank map walks a fixed static partition: every slot's
    sequence first repeats at step 1 — 4 send + 4 receive plans — and
    steps 2–5 replay all eight.  Same counts on the mesh, summed."""
    job, state, static = _pagerank(200, 6, 4)
    ref = run_local(job, state, static, num_pairs=4)
    (stats,) = ref.worker_stats
    assert (stats["plans_built"], stats["plan_hits"]) == (8, 8 * 4)
    assert stats["route_cache_size"] == 0  # combiner output is never re-routed
    par = run_parallel(job, state, static, num_pairs=4, num_workers=2)
    assert par.state == ref.state
    assert (par.counter("plans_built"), par.counter("plan_hits")) == (8, 8 * 4)
    # Without a combiner only the receiving side groups.
    job, state, static = _pagerank(200, 6, 4, combiner=False)
    (stats,) = run_local(job, state, static, num_pairs=4).worker_stats
    assert (stats["plans_built"], stats["plan_hits"]) == (4, 4 * 4)
    assert stats["route_cache_size"] == 200


def test_sync_sssp_plans_nothing_while_its_frontier_grows():
    """A ladder of six rungs, two pairs: each step the frontier reaches
    the next rung — one node in each pair — and that rung starts
    offering distances to the one after it, so every slot's key sequence
    changes at steps 1–4 and nothing is planned.  The last rung has no
    out-edges: step 5 repeats step 4 and builds the four plans, steps 6
    and 7 replay them."""
    rungs = 6
    last = rungs - 1
    static = [
        (2 * r + side, () if r == last else ((2 * r + 2, 1.0), (2 * r + 3, 1.0)))
        for r in range(rungs) for side in (0, 1)
    ]
    state = [(u, 0.0 if u < 2 else sssp.INFINITY) for u in range(2 * rungs)]

    def counters(iterations):
        job = sssp.build_imr_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            max_iterations=iterations, num_pairs=2, combiner=True,
        )
        (stats,) = run_local(job, state, {STATIC: static}, num_pairs=2).worker_stats
        return stats["plans_built"], stats["plan_hits"]

    assert counters(5) == (0, 0)
    assert counters(6) == (4, 0)
    assert counters(8) == (4, 4 * 2)


# ------------------------------------------- where combiner output lands --
def join_map(key, state, static, ctx):
    """Adds the pair's static value — or 1000 where the state record has
    strayed from the pair that holds it."""
    ctx.emit(key, state + (static if static is not None else 1000.0))


def shift_up_combiner(key, values, ctx):
    """Key-changing: the output's key belongs to the *next* partition."""
    ctx.emit(key + 1, sum(values))


def shift_down_reduce(key, values, ctx):
    ctx.emit(key - 1, sum(values))


def test_combiner_output_stays_in_the_partition_it_was_grouped_for():
    """Hadoop's contract, and ``Phase.combiner``'s: records combined for
    pair ``k mod 3`` are reduced there whatever key the combiner gave
    them, so the reducer hands key ``k`` back to the pair that holds its
    static record and the second iteration's join finds it.  Routing the
    combiner's output by its new key would strand every record (+1000).
    All three backends agree."""
    job = IterativeJob.single_phase(
        "rekey", join_map, shift_down_reduce,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.STATIC_PATH: STATIC,
                      IterKeys.MAX_ITER: 2}),
        output_path=OUT, partitioner=ModPartitioner(),
        combiner=shift_up_combiner, num_pairs=3,
    )
    state = [(k, 0.5) for k in range(6)]
    static = [(k, float(k)) for k in range(6)]
    want = [(k, 0.5 + 2 * k) for k in range(6)]
    assert run_local(job, state, {STATIC: static}, num_pairs=3).state == want
    mesh = run_parallel(job, state, {STATIC: static}, num_pairs=3, num_workers=2)
    assert mesh.state == want

    engine = Engine()
    cluster = local_cluster(engine)
    dfs = DFS(cluster, replication=2)
    dfs.ingest(STATE, state)
    dfs.ingest(STATIC, static)
    result = IMapReduceRuntime(cluster, dfs).submit(job)
    assert sorted(read_final(engine, dfs, result.final_paths)) == want


# ------------------------------------------------- the profiler's coverage --
def test_phase_seconds_cover_the_serial_wall():
    """Routing, plan upkeep and the release of a step's records are all
    charged to a phase: the profiler explains ≥ 95 % of ``run_local``'s
    wall on the benchmark's record workload (scaled down; a ratio inside
    one process, so host speed cancels)."""
    job, state, static = _pagerank(10_000, 6, 8)
    started = time.perf_counter()
    result = run_local(job, state, static, num_pairs=8)
    wall = time.perf_counter() - started
    explained = sum(result.worker_stats[0]["phase_seconds"].values())
    assert 0.95 <= explained / wall <= 1.0
