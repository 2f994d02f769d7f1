"""The seeded simulated host against the record oracle.

The simulated host runs the executor ``execute`` picks — the
one accumulative executor, ``ColumnarAccum`` — under seeded delivery
deferral and per-round schedule jitter, both drawn from one ``rng``.
The record oracle (:mod:`tests.imapreduce.oracle`) run on the same host
under the same seed must make the same run: the jitter draws once per
pair, pairs ascending, on every async round, so the transport's coins
line up, and both executors schedule the same keys.
"""

import pytest

from repro.algorithms import components, pagerank, sssp
from repro.graph import pagerank_graph, sssp_graph
from repro.imapreduce import ExecutionPlan, execute
from repro.imapreduce.engine import AccumVerdict
from repro.imapreduce.localrun import UpdateAccum, host_simulated
from tests.imapreduce.oracle import run_oracle
from tests.imapreduce.support import split_inputs

PATHS = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}


def _case(name, n, seed):
    if name == "sssp":
        graph = sssp_graph(n, seed=seed)
        return (sssp.build_accum_job(**PATHS), sssp.accum_initial_deltas(0),
                {"/st": sssp.static_records(graph)})
    if name == "pagerank":
        graph = pagerank_graph(n, seed=seed)
        return (pagerank.build_accum_job(**PATHS, threshold=1e-6),
                pagerank.accum_initial_deltas(n), {"/st": pagerank.static_records(graph)})
    graph = sssp_graph(n, mean_degree=1.5, seed=seed)
    return (components.build_accum_job(**PATHS), components.accum_initial_deltas(n),
            {"/st": components.static_records(graph)})


#: (workload, nodes, graph seed, pairs, host seed); components' 1,500
#: int labels reach past float64's resolution of the int64 max.
CASES = [("sssp", 60, 11, 3, 1), ("sssp", 300, 4, 4, 2), ("pagerank", 60, 11, 3, 3),
         ("pagerank", 60, 5, 2, 1), ("components", 60, 6, 3, 2),
         ("components", 1500, 6, 4, 3)]


@pytest.mark.parametrize("name,n,graph_seed,pairs,seed", CASES, ids=str)
def test_simulated_host_replays_the_oracle(name, n, graph_seed, pairs, seed):
    job, deltas, static = _case(name, n, graph_seed)
    plan = ExecutionPlan(backend="simulated", num_pairs=pairs, keep_trace=True, seed=seed)
    got, want = execute(job, deltas, static, plan), run_oracle(job, deltas, static, plan)
    assert repr(got.state) == repr(want.state)
    for field in ("rounds", "terminated_by", "updates_processed", "deltas_emitted",
                  "deltas_shipped"):
        assert getattr(got, field) == getattr(want, field), field
    assert [row["pending_mass"] for row in got.trace] == [
        row["pending_mass"] for row in want.trace]
    assert [row["in_flight"] for row in got.trace] == [row["in_flight"] for row in want.trace]
    # Only the oracle scores priorities one key at a time, and counts it.
    assert want.counter("priority_evals") > 0 == got.counter("priority_evals")


def test_jitter_draws_once_per_pair_every_async_round():
    """Pairs with nothing live draw too: sssp from one source leaves most
    pairs idle in the first rounds."""
    job, deltas, static = _case("sssp", 60, 11)
    plan = ExecutionPlan(backend="simulated", num_pairs=4, mode="async", seed=1)
    asked = []

    class Spy(UpdateAccum):
        def fraction(self, pair):
            asked.append(pair)
            return super().fraction(pair)

    policy = AccumVerdict(job, plan.num_pairs, False)
    parts = split_inputs(job, deltas, static, plan.num_pairs)
    (final,), _ = host_simulated(job, Spy, policy, *parts, plan, {"accum_mode": "async"})
    rounds = final["iterations_run"]
    assert rounds > 1 and asked == [0, 1, 2, 3] * rounds
