"""Warm-started incremental runs on the multiprocess backend.

The accumulative warm start ships each worker its pairs' memoized state
slices (``accum_initial_state``), so the mesh preloads exactly the same
``AccumPair`` state the serial executor does — the record-for-record
serial/parallel determinism contract must therefore hold for warm runs
too, floats included.  The synchronous twin warm-starts
:func:`run_parallel` from the reset-and-reseeded memo records.
"""

import dataclasses
import math

import pytest

from repro.algorithms import pagerank, sssp
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import (
    ExecutionPlan,
    WarmStart,
    execute,
    patch_static_table,
    random_edge_churn,
    run_incremental_accum,
)
from repro.imapreduce.incremental import ADJACENCY_KINDS
from repro.imapreduce.plan import run_accum_local, run_local

STATE, STATIC, OUT = "/dfs/deltas", "/dfs/static", "/dfs/out"


def _sssp_case(n=60, seed=11):
    graph = sssp_graph(n, seed=seed)
    job = sssp.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_rounds=10_000,
    )
    table = dict(sssp.static_records(graph))
    cold = run_accum_local(job, sssp.accum_initial_deltas(0),
                           {STATIC: table}, num_pairs=4, mode="async")
    delta = random_edge_churn(table, "sssp", insert=3, delete=3, seed=5)
    return job, table, cold, delta


def _pagerank_case(n=60, seed=11):
    graph = pagerank_graph(n, seed=seed)
    job = pagerank.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        threshold=1e-9, max_rounds=100_000,
    )
    table = dict(pagerank.static_records(graph))
    cold = run_accum_local(job, pagerank.accum_initial_deltas(n),
                           {STATIC: table}, num_pairs=4, mode="async")
    delta = random_edge_churn(table, "pagerank", insert=2, delete=2, seed=5)
    return job, table, cold, delta


@pytest.mark.parametrize("workload", ["sssp", "pagerank"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_parallel_warm_replays_serial_warm(workload, mode):
    job, table, cold, delta = (
        _sssp_case() if workload == "sssp" else _pagerank_case()
    )
    kwargs = {"source": 0} if workload == "sssp" else {
        "damping": pagerank.DAMPING
    }
    serial = run_incremental_accum(
        job, workload, delta, cold.state, {STATIC: table},
        num_pairs=4, mode=mode, **kwargs,
    )
    par = run_incremental_accum(
        job, workload, delta, cold.state, {STATIC: table},
        num_pairs=4, mode=mode, backend="parallel", num_workers=2, **kwargs,
    )
    assert par.state == serial.state  # floats included, no tolerance
    assert par.rounds == serial.rounds
    assert par.terminated_by == serial.terminated_by
    assert par.updates_processed == serial.updates_processed
    assert par.deltas_shipped == serial.deltas_shipped
    assert par.counters["incremental"] == serial.counters["incremental"]


def test_spawn_matches_fork_warm():
    job, table, cold, delta = _sssp_case(n=40)
    fork = run_incremental_accum(
        job, "sssp", delta, cold.state, {STATIC: table},
        num_pairs=4, mode="async", backend="parallel", num_workers=2,
        start_method="fork", source=0,
    )
    spawn = run_incremental_accum(
        job, "sssp", delta, cold.state, {STATIC: table},
        num_pairs=4, mode="async", backend="parallel", num_workers=2,
        start_method="spawn", source=0,
    )
    assert spawn.state == fork.state
    assert spawn.rounds == fork.rounds
    assert spawn.deltas_shipped == fork.deltas_shipped


def test_sync_engine_parallel_warm_matches_serial_warm():
    graph = sssp_graph(60, seed=7)
    table = dict(sssp.static_records(graph))
    job = sssp.build_imr_job(state_path=STATE, static_path=STATIC,
                             output_path=OUT, threshold=0.0)
    cold = run_local(job, sssp.initial_state(graph, 0), {STATIC: table},
                     num_pairs=4)
    delta = random_edge_churn(table, "sssp", insert=2, delete=2, seed=9)
    warm = ExecutionPlan(num_pairs=4, warm=WarmStart("sssp", delta, source=0))
    serial = execute(job, cold.state, {STATIC: table}, warm)
    par = execute(job, cold.state, {STATIC: table},
                  dataclasses.replace(warm, backend="parallel", num_workers=2))
    assert dict(par.state) == dict(serial.state)
    # And both sit on the cold-rerun fixpoint.
    mutated = dict(table)
    patch_static_table(mutated, delta, ADJACENCY_KINDS["sssp"])
    ref = run_local(job, [(u, 0.0 if u == 0 else math.inf) for u in mutated],
                    {STATIC: mutated}, num_pairs=4)
    assert dict(par.state) == dict(ref.state)
