"""Task-pair placement, pinned with literal expected outputs.

Where pairs go decides every virtual time of the simulated cluster and
which worker hosts what on the pipe mesh, so the rules must not move:

* the simulated cluster's initial placement — round-robin over the
  alive workers in cluster order, refused past their task slots
  (§3.1.1);
* the mesh's initial placement of ``num_pairs`` pairs on ``num_workers``
  workers;
* the simulated cluster's recovery placement — each orphaned pair, in
  pair order, to the least-loaded alive worker, ties to the earliest in
  cluster order, refused with no survivor or too few slots (§3.4.1);
* the mesh's recovery placement under ``reassign_on_failure``, whose
  survivors are renumbered in worker order;
* the §3.4.2 migration decision: trimmed-mean deviation of per-worker
  times, the slowest worker's slowest pair to the fastest worker.

Only the adapters (the first functions below) may change with where
the rules live; every expected value is a literal.
"""

import pytest

from repro.cluster import local_cluster
from repro.common import IterKeys, JobConf
from repro.common.errors import SchedulingError
from repro.dfs import DFS
from repro.imapreduce import IMapReduceRuntime, IterativeJob
from repro.imapreduce.placement import plan_migration, reassign, round_robin
from repro.simulation import Engine


# ---------------------------------------------------------- adapters --
def _decay_map(key, state, static, ctx):
    ctx.emit(key, state * static)


def _identity_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def initial_placement(nodes, num_pairs, failed=()):
    """The simulated cluster's initial pair → machine placement."""
    engine = Engine()
    cluster = local_cluster(engine, nodes)
    dfs = DFS(cluster, block_size=4096, replication=2)
    dfs.ingest("/in/state", [(i, 1.0) for i in range(12)])
    dfs.ingest("/in/static", [(i, 0.5) for i in range(12)])
    for name in failed:
        cluster[name].fail()
    seen = []

    class Capture(IMapReduceRuntime):
        def _initial_load(self, job, assignment, num_pairs):
            seen.append([assignment[p] for p in range(num_pairs)])
            return (yield from super()._initial_load(job, assignment, num_pairs))

    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, "/in/state")
    conf.set(IterKeys.STATIC_PATH, "/in/static")
    conf.set_int(IterKeys.MAX_ITER, 1)
    job = IterativeJob.single_phase(
        "decay", _decay_map, _identity_reduce, conf=conf,
        output_path="/out/decay", num_pairs=num_pairs,
    )
    Capture(cluster, dfs).submit(job)
    return seen[0]


def mesh_placement(num_pairs, num_workers):
    """The mesh's initial worker → pairs lists."""
    owner = round_robin(num_pairs, range(num_workers))
    return [[p for p, o in enumerate(owner) if o == w] for w in range(num_workers)]


def recovery_placement(nodes, owner, dead):
    """The simulated cluster's recovery placement, as a pair → machine
    list."""
    engine = Engine()
    cluster = local_cluster(engine, nodes)
    runtime = IMapReduceRuntime(cluster, DFS(cluster, block_size=4096, replication=2))
    owner = list(owner)
    runtime._reassign_failed(owner, set(dead))
    return owner


def mesh_recovery(assignment, dead):
    """The mesh's worker → pairs lists after worker ``dead`` is lost:
    ``host_mesh``'s reassignment step (survivors renumbered in order)."""
    owner = [w for _p, w in sorted((p, w) for w, ps in enumerate(assignment) for p in ps)]
    alive = [w for w in range(len(assignment)) if w != dead]
    survivor = {w: i for i, w in enumerate(alive)}
    owner = [survivor[w] for w in reassign(owner, alive)]
    return [[p for p, o in enumerate(owner) if o == w] for w in range(len(alive))]


def migration(owner, times, threshold=0.5):
    """The §3.4.2 decision for per-pair times on a pair → machine list."""
    return plan_migration(owner, times, threshold)


# ------------------------------------------------- initial placement --
@pytest.mark.parametrize("nodes, num_pairs, failed, expected", [
    (4, None, (), ["node0", "node1", "node2", "node3"]),
    (4, 7, (), ["node0", "node1", "node2", "node3", "node0", "node1", "node2"]),
    (3, 6, (), ["node0", "node1", "node2", "node0", "node1", "node2"]),
    (4, 8, (), ["node0", "node1", "node2", "node3"] * 2),
    (4, 5, ("node1",), ["node0", "node2", "node3", "node0", "node2"]),
    (2, 1, (), ["node0"]),
], ids=["default", "4x7", "3x6", "full", "one-failed", "one-pair"])
def test_initial_simulator_placement(nodes, num_pairs, failed, expected):
    assert initial_placement(nodes, num_pairs, failed) == expected


def test_initial_placement_refuses_past_the_task_slots():
    with pytest.raises(SchedulingError) as err:
        initial_placement(4, 9)
    assert str(err.value) == (
        "9 persistent pairs need more than the 4×2 available task slots (§3.1.1)"
    )


@pytest.mark.parametrize("num_pairs, num_workers, expected", [
    (4, 2, [[0, 2], [1, 3]]),
    (5, 3, [[0, 3], [1, 4], [2]]),
    (3, 3, [[0], [1], [2]]),
    (7, 1, [[0, 1, 2, 3, 4, 5, 6]]),
    (8, 3, [[0, 3, 6], [1, 4, 7], [2, 5]]),
])
def test_mesh_placement(num_pairs, num_workers, expected):
    assert mesh_placement(num_pairs, num_workers) == expected


# ------------------------------------------------ recovery placement --
@pytest.mark.parametrize("nodes, owner, dead, expected", [
    # One dead worker: its pair goes to the empty node3.
    (4, ["node0", "node0", "node1", "node2"], {"node1"},
     ["node0", "node0", "node3", "node2"]),
    # Two orphans: node0 (empty) first, then the load-1 tie breaks
    # toward cluster order.
    (4, ["node1", "node1", "node2", "node3"], {"node1"},
     ["node0", "node0", "node2", "node3"]),
    # Several dead workers.
    (5, ["node0", "node1", "node2", "node3", "node4", "node1"], {"node1", "node3"},
     ["node0", "node0", "node2", "node2", "node4", "node4"]),
    # All tied at zero: orphans fill in cluster order.
    (4, ["node3", "node3", "node3"], {"node3"}, ["node0", "node1", "node2"]),
    # Pairs on live workers never move, even when unevenly loaded.
    (3, ["node0", "node0", "node1", "node2"], {"node2"},
     ["node0", "node0", "node1", "node1"]),
    # Nothing dead: nothing moves.
    (3, ["node2", "node2", "node0"], set(), ["node2", "node2", "node0"]),
], ids=["one-dead", "two-orphans", "several-dead", "all-tied", "live-stay", "none-dead"])
def test_recovery_placement(nodes, owner, dead, expected):
    assert recovery_placement(nodes, owner, dead) == expected


def test_recovery_refuses_without_capacity():
    with pytest.raises(SchedulingError) as err:
        recovery_placement(2, ["node1"] * 5, {"node1"})
    assert str(err.value) == "not enough task slots on surviving workers"


def test_recovery_refuses_with_no_survivors():
    with pytest.raises(SchedulingError) as err:
        recovery_placement(2, ["node1"], {"node0", "node1"})
    assert str(err.value) == "no alive workers left to recover onto"


@pytest.mark.parametrize("assignment, dead, expected", [
    ([[0, 3], [1, 4], [2]], 1, [[0, 3, 4], [1, 2]]),
    ([[0, 3], [1, 4], [2]], 0, [[1, 3, 4], [0, 2]]),
    ([[0, 2], [1, 3]], 0, [[0, 1, 2, 3]]),
    ([[0, 4], [1, 5], [2], [3]], 1, [[0, 4], [1, 2], [3, 5]]),
    ([[0, 3, 6], [1, 4, 7], [2, 5]], 2, [[0, 2, 3, 6], [1, 4, 5, 7]]),
])
def test_mesh_recovery(assignment, dead, expected):
    assert mesh_recovery(assignment, dead) == expected


# --------------------------------------------------------- migration --
FOUR = ["hnode0", "hnode1", "hnode2", "hnode3"]


@pytest.mark.parametrize("owner, times, threshold, expected", [
    (FOUR, {0: 1.0, 1: 1.0, 2: 1.1, 3: 4.0}, 0.5,
     {"pair": 3, "from": "hnode3", "to": "hnode0", "deviation": 2.8095238095238098}),
    (FOUR, {0: 1.0, 1: 1.05, 2: 0.98, 3: 1.02}, 0.5, None),
    (FOUR, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.4}, 0.2,
     {"pair": 3, "from": "hnode3", "to": "hnode0", "deviation": 0.3999999999999999}),
    (FOUR, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.4}, 1.0, None),
    (FOUR, {0: 0.1, 1: 1.0, 2: 1.0, 3: 1.3}, 0.5, None),
    (["hnode0", "hnode0", "hnode1", "hnode2", "hnode3", "hnode3"],
     {0: 1.0, 1: 1.1, 2: 1.0, 3: 1.0, 4: 3.0, 5: 4.0}, 0.5,
     {"pair": 5, "from": "hnode3", "to": "hnode1", "deviation": 2.8095238095238098}),
    (["hnode0", "hnode1"], {0: 1.0, 1: 5.0}, 0.5, None),
], ids=["straggler", "balanced", "strict", "loose", "trimmed", "slowest-pair", "two-workers"])
def test_migration(owner, times, threshold, expected):
    assert migration(owner, times, threshold) == expected
