"""Property test: for randomly composed iterative jobs, the simulated
cluster and the serial reference executor produce identical results —
bit for bit.

The simulated tasks call the engine's own per-pair functions (map,
grouping, distance, aux, termination) and gather in ascending sender
order, the engine's delivery-order rule, so nothing is left to
tolerance: final records are compared with ``records_identical``, and
the iteration count, the termination reason and every per-iteration
distance must match exactly.

The job family: the map applies a random arithmetic transform to the
state and scatters shares to the next ``fan_in - 1`` keys, so every key
reduces values from ``fan_in`` >= 3 senders (two-term float sums
commute, three-term ones do not: a reduce that folded in arrival order
would show); the reduce folds with a random associative operation.
Shapes: one2one (sync or async, with or without the fold as combiner,
with or without a distance threshold), one2all broadcast, two phases,
and an observing aux phase.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import IterKeys, JobConf, ModPartitioner
from repro.common.records import sort_records
from repro.imapreduce import AuxPhase, IterativeJob, Phase, run_local
from repro.testing import records_identical

from tests.imapreduce.test_simulated_clock import simulate

NUM_PAIRS = 4
STATE_PATH = "/sim/state"
STATIC_PATH = "/sim/static"

TRANSFORMS = {
    "scale": lambda x, c: x * c,
    "shift": lambda x, c: x + c,
    "cap": lambda x, c: min(x, c),
}
FOLDS = {
    "sum": lambda values: sum(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
}
SHAPES = ("one2one", "one2all", "two-phase", "aux")


def distance(key, prev, curr):
    return abs(curr) if prev is None else abs(prev - curr)


def make_job(n_keys, transform, const, fold, fan_in, shape, *, sync=False,
             combiner=False, iterations=3, threshold=None):
    f = TRANSFORMS[transform]
    fold_fn = FOLDS[fold]

    def scatter(key, value, ctx):
        ctx.emit(key, value)
        for hop in range(1, fan_in):
            ctx.emit((key + hop) % n_keys, value / (hop + 1.5))

    def map_fn(key, state, static, ctx):
        scatter(key, f(state, const), ctx)

    def broadcast_map(key, states, static, ctx):
        mean = sum(v for _, v in states) / len(states)
        scatter(key, f(mean * static, const), ctx)

    def reduce_fn(key, values, ctx):
        ctx.emit(key, fold_fn(values))

    conf = JobConf({IterKeys.STATE_PATH: STATE_PATH})
    conf.set_int(IterKeys.MAX_ITER, iterations)
    conf.set_int(IterKeys.BUFFER_RECORDS, 3)
    if sync:
        conf.set_boolean(IterKeys.SYNC, True)
    if threshold is not None:
        conf.set_float(IterKeys.DIST_THRESH, threshold)
    fold_combiner = reduce_fn if combiner else None
    phases = [Phase(map_fn, reduce_fn, combiner=fold_combiner)]
    if shape == "one2all":
        phases = [Phase(broadcast_map, reduce_fn, static_path=STATIC_PATH,
                        mapping="one2all", combiner=fold_combiner)]
    elif shape == "two-phase":
        phases.append(Phase(map_fn, reduce_fn, combiner=fold_combiner))
    aux = None
    if shape == "aux":
        # Observes every iteration, keeps task state, never fires: a
        # firing aux stops the simulated run up to an iteration late by
        # design (§5.3 runs beside the main phase), which
        # test_extensions.py covers.
        def aux_map(key, value, ctx):
            ctx.task_state[key] = value
            ctx.emit(key % 2, value)

        def aux_reduce(key, values, ctx):
            if len(ctx.task_state) > n_keys:
                ctx.signal_terminate()

        aux = AuxPhase(aux_map, aux_reduce, num_tasks=2)
    return IterativeJob(
        name="random", phases=phases, output_path="/sim/out", conf=conf,
        distance_fn=distance if threshold is not None else None,
        partitioner=ModPartitioner(), num_pairs=NUM_PAIRS, aux=aux,
    )


def assert_simulated_equals_serial(job, state, static=None):
    """The simulated run and the serial reference agree exactly: final
    records, iterations run, termination reason, convergence and every
    per-iteration distance."""
    statics = {STATIC_PATH: static} if static is not None else None
    sim, sim_state = simulate(job, state, static)
    serial = run_local(job, state, statics, num_pairs=NUM_PAIRS)
    assert records_identical(sort_records(sim_state), serial.state)
    assert (sim.iterations_run, sim.terminated_by, sim.converged) == (
        serial.iterations_run, serial.terminated_by, serial.converged
    )
    sim_distances = [it.distance for it in sim.metrics.iterations]
    assert repr(sim_distances) == repr(serial.distances)
    return sim, serial


@settings(max_examples=30, deadline=None)
@given(
    n_keys=st.integers(min_value=5, max_value=12),
    transform=st.sampled_from(sorted(TRANSFORMS)),
    const=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    fold=st.sampled_from(sorted(FOLDS)),
    fan_in=st.integers(min_value=3, max_value=4),
    shape=st.sampled_from(SHAPES),
    sync=st.booleans(),
    combiner=st.booleans(),
    iterations=st.integers(min_value=1, max_value=3),
    threshold=st.none() | st.floats(min_value=0.0, max_value=50.0),
    seed_values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=12, max_size=12,
    ),
)
def test_engine_matches_serial_reference(
    n_keys, transform, const, fold, fan_in, shape, sync, combiner,
    iterations, threshold, seed_values,
):
    # Mixed magnitudes, so float sums round differently in any other order.
    state = [(k, seed_values[k] * 10.0 ** (k % 5 - 2)) for k in range(n_keys)]
    static = [(k, 1.0 + k / 7.0) for k in range(n_keys)]
    job = make_job(n_keys, transform, const, fold, fan_in, shape, sync=sync,
                   combiner=combiner, iterations=iterations, threshold=threshold)
    assert_simulated_equals_serial(
        job, state, static if shape == "one2all" else None
    )


@pytest.mark.parametrize("sync", [False, True])
def test_threshold_met_on_the_last_allowed_iteration_is_convergence(sync):
    """With ``max_iterations=1`` and a threshold every distance meets,
    the run stops on the threshold — converged — on both backends: the
    rule is aux, then threshold, then the iteration budget."""
    job = make_job(6, "scale", 0.5, "sum", 3, "one2one", sync=sync,
                   iterations=1, threshold=1e9)
    sim, _serial = assert_simulated_equals_serial(
        job, [(k, float(k)) for k in range(6)]
    )
    assert (sim.terminated_by, sim.converged, sim.iterations_run) == (
        "threshold", True, 1
    )


# ------------------------------------------------- mode-matrix regression --
# Fixed-seed PageRank across the full runtime-mode matrix: asynchronous
# and synchronous execution (with and without the combiner) must
# reproduce the serial reference bit for bit — §3.3's claim that
# asynchronous map execution changes the schedule, never the answer.

from itertools import product

from repro.algorithms import pagerank
from repro.graph.generators import pagerank_graph
from repro.testing import states_match

PR_SEED = 1234
PR_NODES = 24
PR_ITERATIONS = 4
#: Met at the third iteration: the distance is measured throughout and
#: the run stops on the threshold.
PR_THRESHOLD = 0.2


def _pagerank_job(sync, combiner):
    return pagerank.build_imr_job(
        PR_NODES,
        state_path=STATE_PATH,
        static_path=STATIC_PATH,
        output_path="/sim/out",
        max_iterations=PR_ITERATIONS,
        threshold=PR_THRESHOLD,
        num_pairs=NUM_PAIRS,
        sync=sync,
        combiner=combiner,
        buffer_records=4,
    )


@pytest.mark.parametrize("sync,combiner", list(product((False, True), repeat=2)))
def test_pagerank_mode_matrix_matches_serial_reference(sync, combiner):
    graph = pagerank_graph(PR_NODES, seed=PR_SEED)
    state = pagerank.initial_state(graph)
    static = pagerank.static_records(graph)
    job = _pagerank_job(sync, combiner)
    sim, _serial = assert_simulated_equals_serial(job, state, static)
    assert (sim.terminated_by, sim.iterations_run) == ("threshold", 3)


def test_pagerank_async_and_sync_converge_identically():
    graph = pagerank_graph(PR_NODES, seed=PR_SEED)
    state = pagerank.initial_state(graph)
    static = pagerank.static_records(graph)
    states = {
        (sync, combiner): sort_records(
            simulate(_pagerank_job(sync, combiner), state, static)[1]
        )
        for sync, combiner in product((False, True), repeat=2)
    }
    # The schedule never changes the answer: bit for bit without a
    # combiner...
    assert records_identical(states[(True, False)], states[(False, False)])
    assert records_identical(states[(True, True)], states[(False, True)])
    # ...and a combiner only regroups the float additions.
    for mode, other in states.items():
        assert states_match(other, states[(False, False)]) == [], f"mode {mode} diverged"
