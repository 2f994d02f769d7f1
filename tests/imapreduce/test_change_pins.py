"""The i2MapReduce change rules, pinned.

A warm refresh is decided per algorithm: the adjacency shape a delta is
patched into, the algebra and its identity, the keys a cold run seeds
and the one planner parameter (``source`` for sssp, ``damping`` for
pagerank).  A change to *where* those rules live must not move what
they decide.  Each case below hashes one output of the change planner
or of a warm run on a seeded ~60-node graph under a seeded churn
(inserts and deletes; weight updates as well for sssp); a digest that
moves means a plan, a warm fixpoint or a cold-rerun input changed.

Pinned per algorithm (sssp, pagerank, components):

* ``plan_changes``: the perturbation, the sorted reset keys and dirty
  sources, ``summary()`` and the patched table;
* ``run_incremental_accum`` in sync and async: the state, rounds,
  updates, shipped deltas, ``counters["incremental"]`` and
  ``counters["warm_state_keys"]``;
* the cold rerun's initial deltas and mutated table;

and for sssp and pagerank one iterative warm ``execute``: the state,
``iterations_run``, ``terminated_by`` and the distances.
"""

import hashlib
import random

import pytest

from repro.algorithms import components, pagerank, sssp
from repro.graph.digraph import Digraph
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import (
    ExecutionPlan,
    WarmStart,
    execute,
    incremental,
    plan_changes,
    run_incremental_accum,
)
from repro.imapreduce.plan import run_accum_local, run_local

PATHS = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}
NODES = 60


def _forest(seed):
    """A sparse undirected graph: ~20 components, so a deletion resets
    one of them and leaves boundary offers from the rest."""
    rng = random.Random(seed)
    return Digraph.from_edges(
        NODES, [tuple(rng.sample(range(NODES), 2)) for _ in range(NODES * 2 // 3)])


#: algorithm -> (seeded graph, static records, extra churn, planner
#: keywords, accumulative job, cold initial deltas for ``n`` nodes).  The
#: sparse sssp graph leaves a third of the keys out of the reset set.
CASES = {
    "sssp": (lambda: sssp_graph(NODES, mean_degree=1.6, seed=11),
             sssp.static_records, {"update": 3}, {"source": 0},
             lambda: sssp.build_accum_job(**PATHS),
             lambda n: sssp.accum_initial_deltas(0)),
    "pagerank": (lambda: pagerank_graph(NODES, seed=11), pagerank.static_records, {},
                 {"damping": pagerank.DAMPING},
                 lambda: pagerank.build_accum_job(**PATHS, threshold=1e-12),
                 lambda n: pagerank.accum_initial_deltas(n)),
    "components": (lambda: _forest(12), components.static_records, {}, {},
                   lambda: components.build_accum_job(**PATHS),
                   components.accum_initial_deltas),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _setup(algorithm):
    """(graph, static table, churn delta, planner keywords)."""
    generate, records, extra, params, _job, _seeds = CASES[algorithm]
    graph = generate()
    table = dict(records(graph))
    delta = incremental.random_edge_churn(
        table, algorithm, insert=4, delete=4, seed=13, **extra)
    return graph, table, delta, params


def _cold_accum(algorithm):
    """(job, table, delta, planner keywords, converged state)."""
    graph, table, delta, params = _setup(algorithm)
    job = CASES[algorithm][4]()
    cold = run_accum_local(job, CASES[algorithm][5](graph.num_nodes),
                           {"/st": table}, num_pairs=3, mode="sync")
    return job, table, delta, params, cold.state


PLAN_PINS = {
    "sssp": "b6158ef267ab09c1",
    "pagerank": "2fab1e7830dbb831",
    "components": "24c9270c3c3ce12d",
}


@pytest.mark.parametrize("algorithm", sorted(PLAN_PINS))
def test_plan_changes_is_pinned(algorithm):
    _job, table, delta, params, memo = _cold_accum(algorithm)
    change = plan_changes(algorithm, table, delta, dict(memo), **params)
    assert digest((
        change.perturbation, sorted(change.reset_keys),
        sorted(change.dirty_sources), change.summary(), sorted(table.items()),
    )) == PLAN_PINS[algorithm]


ACCUM_PINS = {
    ("sssp", "sync"): "f780963b7e2ef5b1",
    ("sssp", "async"): "8c3269f505ac1a17",
    ("pagerank", "sync"): "4eca40fbccfd8bbe",
    ("pagerank", "async"): "51679842d5767389",
    ("components", "sync"): "9d037e2ee31df335",
    ("components", "async"): "2d396c0934a663cd",
}


@pytest.mark.parametrize("algorithm, mode", sorted(ACCUM_PINS))
def test_warm_accumulative_refresh_is_pinned(algorithm, mode):
    job, table, delta, params, memo = _cold_accum(algorithm)
    warm = run_incremental_accum(job, algorithm, delta, memo, {"/st": table},
                                 num_pairs=3, mode=mode, **params)
    assert digest((
        warm.state, warm.rounds, warm.updates_processed, warm.deltas_shipped,
        warm.counters["incremental"], warm.counters["warm_state_keys"],
    )) == ACCUM_PINS[algorithm, mode]


COLD_RERUN_PINS = {
    "sssp": "008c6ad0426a2849",
    "pagerank": "d61a6b98bbd27920",
    "components": "8e249ce1346d99b9",
}


@pytest.mark.parametrize("algorithm", sorted(COLD_RERUN_PINS))
def test_cold_rerun_inputs_are_pinned(algorithm):
    _graph, table, delta, params = _setup(algorithm)
    before = dict(table)
    seeds, mutated = incremental.cold_rerun_inputs(
        incremental.change_model(algorithm, **params), table, delta)
    assert table == before
    assert digest((seeds, sorted(mutated.items()))) == COLD_RERUN_PINS[algorithm]


def _iterative(algorithm, graph):
    """(iterative job, cold initial state)."""
    if algorithm == "sssp":
        job = sssp.build_imr_job(**PATHS, threshold=0.0)
        return job, sssp.initial_state(graph, 0)
    job = pagerank.build_imr_job(graph.num_nodes, **PATHS, threshold=1e-10)
    return job, pagerank.initial_state(graph)


ITERATIVE_PINS = {
    "sssp": "51c09629d69e6261",
    "pagerank": "2aaf740076216152",
}


@pytest.mark.parametrize("algorithm", sorted(ITERATIVE_PINS))
def test_warm_iterative_execute_is_pinned(algorithm):
    graph, table, delta, params = _setup(algorithm)
    job, initial = _iterative(algorithm, graph)
    cold = run_local(job, initial, {"/st": table}, num_pairs=4)
    warm_start = WarmStart(incremental.change_model(algorithm, **params), delta)
    warm = execute(job, cold.state, {"/st": table},
                   ExecutionPlan(num_pairs=4, warm=warm_start))
    assert digest((
        warm.state, warm.iterations_run, warm.terminated_by, warm.distances,
    )) == ITERATIVE_PINS[algorithm]
