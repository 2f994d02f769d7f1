"""Cold accumulative (Maiter-mode) runs, pinned.

Where the ``sum``/``min`` algebra is defined must not move what an
accumulative run computes.  Each case below hashes one cold run's
final state, ``rounds``, ``terminated_by``, ``updates_processed``,
``deltas_emitted``, ``deltas_shipped``, ``priority_evals`` and the
per-round pending-mass trace (``repr`` keeps every float bit and every
int/float type) on a seeded ~60-node graph.  A digest that moves means
a merge, an identity, a priority or a drop rule changed.

Cases: sssp and components (``min``), pagerank (``sum``), each on three
executors, in sync and async, on 3 serial pairs: ``record`` (the
``RecordAccum`` twin, :func:`~tests.imapreduce.support.record_accum`),
``kernel`` (the hand-written columnar delta kernel) and ``adapter``
(the kernel-less job, columnar through its own ``update_fn``); async
on the seeded ``simulated`` backend (which always runs the record
executor); and 2-worker fork-mesh rows — pagerank on the kernel
executor, sssp on the record and the adapter one — which must equal
their serial twins.  Every ``adapter`` row equals its ``kernel`` row:
the columnar executor does not count ``priority_evals``, and the rest
of the run is the same bit for bit.
"""

import hashlib

import pytest

from repro.algorithms import components, pagerank, sssp
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import ExecutionPlan, execute
from tests.imapreduce.support import record_accum

PATHS = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}
NODES = 60


def _sssp(kernel):
    graph = sssp_graph(NODES, seed=11)
    return (sssp.build_accum_job(**PATHS, use_kernel=kernel),
            sssp.accum_initial_deltas(0), {"/st": sssp.static_records(graph)})


def _pagerank(kernel):
    graph = pagerank_graph(NODES, seed=11)
    return (pagerank.build_accum_job(**PATHS, threshold=1e-9, use_kernel=kernel),
            pagerank.accum_initial_deltas(NODES), {"/st": pagerank.static_records(graph)})


def _components(kernel):
    graph = sssp_graph(NODES, mean_degree=1.5, seed=6)
    return (components.build_accum_job(**PATHS, use_kernel=kernel),
            components.accum_initial_deltas(NODES),
            {"/st": components.static_records(graph)})


CASES = {"sssp": _sssp, "pagerank": _pagerank, "components": _components}


def digest(result) -> str:
    outcome = (result.state, result.rounds, result.terminated_by,
               result.updates_processed, result.deltas_emitted, result.deltas_shipped,
               result.counter("priority_evals"),
               [row["pending_mass"] for row in result.trace])
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


def _plan(host, mode):
    if host == "serial":
        return ExecutionPlan(num_pairs=3, mode=mode, keep_trace=True)
    if host == "simulated":
        return ExecutionPlan(backend="simulated", num_pairs=3, mode=mode,
                             keep_trace=True, seed=5)
    return ExecutionPlan(backend="parallel", num_pairs=3, num_workers=2, mode=mode,
                         keep_trace=True, start_method="fork")


#: (case, executor, mode, host) -> digest.
PINS = {
    ("components", "adapter", "async", "serial"): "3d10c95bba1a0a43",
    ("components", "adapter", "sync", "serial"): "8e726365fd24778f",
    ("components", "kernel", "async", "serial"): "3d10c95bba1a0a43",
    ("components", "kernel", "async", "simulated"): "6fcffc9ff3666c63",
    ("components", "kernel", "sync", "serial"): "8e726365fd24778f",
    ("components", "record", "async", "serial"): "f074667254464982",
    ("components", "record", "async", "simulated"): "6fcffc9ff3666c63",
    ("components", "record", "sync", "serial"): "9ee906166b5e0ed3",
    ("pagerank", "adapter", "async", "serial"): "4975cf9f39bbdbb3",
    ("pagerank", "adapter", "sync", "serial"): "6adeab977e22965c",
    ("pagerank", "kernel", "async", "mesh"): "4975cf9f39bbdbb3",
    ("pagerank", "kernel", "async", "serial"): "4975cf9f39bbdbb3",
    ("pagerank", "kernel", "async", "simulated"): "17392d848a8e6769",
    ("pagerank", "kernel", "sync", "serial"): "6adeab977e22965c",
    ("pagerank", "record", "async", "serial"): "86060cfbc693356f",
    ("pagerank", "record", "async", "simulated"): "17392d848a8e6769",
    ("pagerank", "record", "sync", "serial"): "9c42fe036928042d",
    ("sssp", "adapter", "async", "mesh"): "d911a039c71c1c1c",
    ("sssp", "adapter", "async", "serial"): "d911a039c71c1c1c",
    ("sssp", "adapter", "sync", "serial"): "5921af85ae86647c",
    ("sssp", "kernel", "async", "serial"): "d911a039c71c1c1c",
    ("sssp", "kernel", "async", "simulated"): "3da4603c77b71f15",
    ("sssp", "kernel", "sync", "serial"): "5921af85ae86647c",
    ("sssp", "record", "async", "mesh"): "a2431a4ad019bc07",
    ("sssp", "record", "async", "serial"): "a2431a4ad019bc07",
    ("sssp", "record", "async", "simulated"): "3da4603c77b71f15",
    ("sssp", "record", "sync", "serial"): "dd5e31638a951b6b",
}


@pytest.mark.parametrize("case,executor,mode,host", sorted(PINS), ids=str)
def test_accum_run_is_pinned(case, executor, mode, host):
    job, deltas, static = CASES[case](executor == "kernel")
    job = record_accum(job) if executor == "record" else job
    assert digest(execute(job, deltas, static, _plan(host, mode))) == PINS[
        case, executor, mode, host]


def test_mesh_rows_equal_their_serial_twins():
    for case, executor, mode, host in PINS:
        if host == "mesh":
            assert PINS[case, executor, mode, host] == PINS[case, executor, mode, "serial"]


def test_adapter_rows_equal_their_kernel_twins():
    for case, executor, mode, host in PINS:
        if executor == "adapter":
            assert PINS[case, executor, mode, host] == PINS[case, "kernel", mode, "serial"]
