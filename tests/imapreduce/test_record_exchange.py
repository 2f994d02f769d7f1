"""The record path's column data plane.

``RecordSync`` moves emissions as ``(keys, values)`` columns, so it
must ship and reduce what the reference does — ``map_pair`` /
``group_by_dest`` over ``(key, value)`` tuples — record for record *and
in order*.  The property test drives one executor, single-phase or
two-phase (a ``REPART`` hop between), through sequences that repeat,
change in one position and repeat again, comparing ``repr`` (which
tells ``1`` / ``1.0`` / ``True`` and ``0.0`` / ``-0.0`` apart where
``==`` does not); the rest pins ``Context.take``, the
combiner-destination contract on all three backends and the profiler's
coverage of the wall clock.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import pagerank
from repro.cluster import local_cluster
from repro.common import IterKeys, JobConf
from repro.common.partition import HashPartitioner, ModPartitioner
from repro.common.records import group_by_key
from repro.dfs import DFS
from repro.graph.generators import pagerank_graph
from repro.imapreduce import IMapReduceRuntime, IterativeJob, Phase, run_local, run_parallel
from repro.imapreduce.engine import PHASE_COUNTERS, REPART, SHUFFLE, by_dest, host_config
from repro.imapreduce.localrun import RecordSync, map_pair
from repro.mapreduce.api import Context
from repro.simulation import Engine
from tests.imapreduce.support import undeclared
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


def relay_map(key, value, static, ctx):
    """The second phase's map: re-emits what ``REPART`` delivered."""
    ctx.emit(key, value)


def scripted_executor(partitioner, num_pairs, combiner, two_phase=False):
    combiner = ordered_fold if combiner else None
    job = IterativeJob.single_phase(
        "scripted", scripted_map, ordered_fold,
        conf=JobConf({IterKeys.STATE_PATH: STATE, IterKeys.MAX_ITER: 1}),
        output_path=OUT, partitioner=partitioner, combiner=combiner,
    )
    if two_phase:
        job.add_successor(Phase(relay_map, ordered_fold, combiner=combiner))
    cfg = host_config(
        0, range(num_pairs), [[] for _ in range(num_pairs)],
        [[{}] * num_pairs for _ in job.phases],
        num_workers=1, num_pairs=num_pairs, job=job,
        send_state=False, wait_verdict=False,
    )
    return job, RecordSync(cfg, dict.fromkeys(PHASE_COUNTERS, 0.0))


def reference_exchange(kind, phase, part, inputs):
    """The reference path over ``(key, value)`` tuples: per pair,
    ``map_pair`` (a ``SHUFFLE``) or the reduce output as it stands (a
    ``REPART``), routed by key in order of first appearance; then, at
    each destination over its batches in ascending source order,
    ``group_by_key`` and the reduce (a ``SHUFFLE``) or nothing."""
    items = []
    for p, records in inputs.items():
        if kind == SHUFFLE:
            records = map_pair(phase, records, {}, None, None, part)
        routed: dict[int, list] = {}
        for rec in records:
            routed.setdefault(part(rec[0]), []).append(rec)
        items += [(q, p, recs) for q, recs in routed.items()]
    merged = by_dest(items)
    out = {}
    for q in inputs:
        arrived = [rec for _q, _p, recs in merged.get(q, ()) for rec in recs]
        if kind == SHUFFLE:
            arrived = [(k, tuple(vs)) for k, vs in group_by_key(arrived)]
        out[q] = arrived
    return items, out


def as_records(items):
    """Column wire items ``(dest, src, keys, values)`` as the reference's
    ``(dest, src, records)``."""
    out = []
    for q, p, keys, values in items:
        assert type(keys) is list and type(values) is list
        assert len(keys) == len(values) > 0
        out.append((q, p, list(zip(keys, values))))
    return out


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
    two_phase=st.booleans(),
)
def test_exchange_equals_reference_in_order(steps, partitioner, combiner, two_phase):
    num_pairs = len(steps[0])

    def part(key):  # unbound, so a memo in ``bind`` is held to the traps
        return partitioner(key, num_pairs)

    job, executor = scripted_executor(partitioner, num_pairs, combiner, two_phase)
    assert executor.plan == (
        [(SHUFFLE, 0), (REPART, 0), (SHUFFLE, 1)] if two_phase else [(SHUFFLE, 0)]
    )
    for step, seqs in enumerate(steps):
        # Values differ at every step and position: order is visible.
        state = {
            p: [(p, [(k, (step, p, i)) for i, k in enumerate(seq)])]
            for p, seq in enumerate(seqs)
        }
        executor.current = dict(state)
        for kind, phase in executor.plan:
            want_items, state = reference_exchange(kind, job.phases[phase], part, state)
            items = executor.emit(kind, phase, None)
            assert repr(as_records(items)) == repr(want_items)
            executor.absorb(kind, phase, by_dest(items))
        assert repr(executor.current) == repr(state)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TRAP_KEYS, st.integers()), max_size=20))
def test_context_take_returns_tuples_in_emission_order(emissions):
    """``take()`` gives the records a list of tuples would have held;
    ``take_columns()`` the same emissions as two columns."""
    ctx = Context()
    for key, value in emissions:
        ctx.emit(key, value)
    taken = ctx.take()
    assert repr(taken) == repr(emissions)
    assert all(type(rec) is tuple for rec in taken)
    assert ctx.take() == [] and ctx.take_columns() == ([], [])
    for key, value in emissions:
        ctx.emit(key, value)
    keys, values = ctx.take_columns()
    assert repr(list(zip(keys, values))) == repr(emissions)


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
def _pagerank(nodes, iterations, num_pairs, declared):
    """The record executor's pagerank (its fold undeclared), or with
    ``declared`` the job as built, its sum fold declared."""
    graph = pagerank_graph(nodes, seed=3)
    job = pagerank.build_imr_job(
        nodes, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=iterations, num_pairs=num_pairs, combiner=True,
    )
    return (job if declared else undeclared(job), pagerank.initial_state(graph),
            {STATIC: pagerank.static_records(graph)})


def test_phase_seconds_cover_the_serial_wall():
    """Routing, the input partition and the release of a step's records
    are all charged to a phase: the profiler explains ≥ 95 % of
    ``run_local``'s wall on the benchmark's record workload
    (scaled down; a ratio inside one process, so host speed cancels) —
    as built, its sum fold declared, and on its record twin."""
    for declared in (True, False):
        job, state, static = _pagerank(10_000, 6, 8, declared=declared)
        started = time.perf_counter()
        result = run_local(job, state, static, num_pairs=8)
        wall = time.perf_counter() - started
        explained = sum(result.worker_stats[0]["phase_seconds"].values())
        assert 0.95 <= explained / wall <= 1.0, f"declared={declared}"
