"""Cold accumulative (Maiter-mode) runs, pinned.

Where the ``sum``/``min`` algebra is defined must not move what an
accumulative run computes.  Each case below hashes one cold run's
final state, ``rounds``, ``terminated_by``, ``updates_processed``,
``deltas_emitted``, ``deltas_shipped``, ``priority_evals`` and the
per-round pending-mass trace (``repr`` keeps every float bit and every
int/float type) on a seeded ~60-node graph.  A digest that moves means
a merge, an identity, a priority or a drop rule changed.

Cases: sssp and components (``min``), pagerank (``sum``), each on three
executors, in sync and async, on 3 serial pairs: ``record`` (the record
oracle, :func:`~tests.imapreduce.oracle.run_oracle`), ``kernel`` (the
hand-written columnar delta kernel) and ``adapter`` (the kernel-less
job, columnar through its own ``update_fn``); async on the seeded
``simulated`` host, for the oracle and the kernel job; and 2-worker
fork-mesh rows — pagerank on the kernel executor, sssp on the adapter
one — which must equal their serial twins.  Every ``adapter`` row
equals its ``kernel`` row.  A ``kernel`` row differs from its
``record`` row by ``priority_evals`` only, which the columnar executor
does not count: :data:`MASKED` pins every row with it masked.
"""

import hashlib

import pytest

from repro.algorithms import components, pagerank, sssp
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import ExecutionPlan, execute
from tests.imapreduce.oracle import run_oracle

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


def digest(result, evals=True) -> str:
    outcome = (result.state, result.rounds, result.terminated_by,
               result.updates_processed, result.deltas_emitted, result.deltas_shipped,
               result.counter("priority_evals") if evals else None,
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
    ("components", "kernel", "async", "simulated"): "8d4ee31c2bf2a4e4",
    ("components", "kernel", "sync", "serial"): "8e726365fd24778f",
    ("components", "record", "async", "serial"): "f074667254464982",
    ("components", "record", "async", "simulated"): "6fcffc9ff3666c63",
    ("components", "record", "sync", "serial"): "9ee906166b5e0ed3",
    ("pagerank", "adapter", "async", "serial"): "4975cf9f39bbdbb3",
    ("pagerank", "adapter", "sync", "serial"): "6adeab977e22965c",
    ("pagerank", "kernel", "async", "mesh"): "4975cf9f39bbdbb3",
    ("pagerank", "kernel", "async", "serial"): "4975cf9f39bbdbb3",
    ("pagerank", "kernel", "async", "simulated"): "b29959af5fa0d422",
    ("pagerank", "kernel", "sync", "serial"): "6adeab977e22965c",
    ("pagerank", "record", "async", "serial"): "86060cfbc693356f",
    ("pagerank", "record", "async", "simulated"): "17392d848a8e6769",
    ("pagerank", "record", "sync", "serial"): "9c42fe036928042d",
    ("sssp", "adapter", "async", "mesh"): "d911a039c71c1c1c",
    ("sssp", "adapter", "async", "serial"): "d911a039c71c1c1c",
    ("sssp", "adapter", "sync", "serial"): "5921af85ae86647c",
    ("sssp", "kernel", "async", "serial"): "d911a039c71c1c1c",
    ("sssp", "kernel", "async", "simulated"): "5b1f20bf1d26f755",
    ("sssp", "kernel", "sync", "serial"): "5921af85ae86647c",
    ("sssp", "record", "async", "serial"): "a2431a4ad019bc07",
    ("sssp", "record", "async", "simulated"): "3da4603c77b71f15",
    ("sssp", "record", "sync", "serial"): "dd5e31638a951b6b",
}


#: (case, mode, host) -> the digest with ``priority_evals`` masked, which
#: every executor's run on that host shares (a mesh row: its serial one).
MASKED = {
    ("components", "async", "serial"): "261a8334ce025ba8",
    ("components", "async", "simulated"): "19e25377dcd20730",
    ("components", "sync", "serial"): "6c4824217ac4408f",
    ("pagerank", "async", "serial"): "e58c1c801a0f9ded",
    ("pagerank", "async", "simulated"): "94ce40895c085ec7",
    ("pagerank", "sync", "serial"): "67d5b300d408b25f",
    ("sssp", "async", "serial"): "cbf7ab3b89d3594e",
    ("sssp", "async", "simulated"): "335f7c287ba4c520",
    ("sssp", "sync", "serial"): "e460cd487c0d9076",
}


@pytest.mark.parametrize("case,executor,mode,host", sorted(PINS), ids=str)
def test_accum_run_is_pinned(case, executor, mode, host):
    job, deltas, static = CASES[case](executor == "kernel")
    run = run_oracle if executor == "record" else execute
    result = run(job, deltas, static, _plan(host, mode))
    assert digest(result) == PINS[case, executor, mode, host]
    assert digest(result, evals=False) == MASKED[
        case, mode, "simulated" if host == "simulated" else "serial"]


def test_mesh_rows_equal_their_serial_twins():
    for case, executor, mode, host in PINS:
        if host == "mesh":
            assert PINS[case, executor, mode, host] == PINS[case, executor, mode, "serial"]


def test_adapter_rows_equal_their_kernel_twins():
    for case, executor, mode, host in PINS:
        if executor == "adapter":
            assert PINS[case, executor, mode, host] == PINS[case, "kernel", mode, "serial"]
