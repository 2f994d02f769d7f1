"""One executor selection per run.

``execute`` picks the pair executor once (``select_executor``) and hands
the class to the host — and the mesh host to every worker and to the
recovery's restore — so no host, worker or restore re-derives it.  The
fixture replaces ``select_executor`` everywhere the package holds it
with a wrapper that counts calls in this process and raises in any
other (a forked worker inherits the wrapper, and its error frame fails
the run).
"""

import os
import sys

import pytest

from repro.algorithms import pagerank, sssp
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import ExecutionPlan, ProcFault, execute, localrun
from tests.imapreduce.support import undeclared

PATHS = dict(state_path="/one/state", static_path="/one/static", output_path="/one/out")


@pytest.fixture
def selections(monkeypatch):
    """The jobs ``select_executor`` was asked about, in this process."""
    here, real, asked = os.getpid(), localrun.select_executor, []

    def counting(job):
        if os.getpid() != here:
            raise AssertionError(f"select_executor called in process {os.getpid()}")
        asked.append(job.name)
        return real(job)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "select_executor", None) is real):
            monkeypatch.setattr(module, "select_executor", counting)
    return asked


def _pagerank(kernel: bool):
    graph = pagerank_graph(40, seed=3)
    job = pagerank.build_imr_job(40, max_iterations=6, use_kernel=kernel, **PATHS)
    return (job if kernel else undeclared(job)), pagerank.initial_state(graph), {
        PATHS["static_path"]: pagerank.static_records(graph)}


def _sssp_accum():
    graph = sssp_graph(40, seed=5)
    return (sssp.build_accum_job(**PATHS), sssp.accum_initial_deltas(0),
            {PATHS["static_path"]: sssp.static_records(graph)})


MESH = dict(backend="parallel", num_workers=2, start_method="fork")

RUNS = {
    "serial-record": (lambda: _pagerank(False), ExecutionPlan(num_pairs=3)),
    "serial-kernel": (lambda: _pagerank(True), ExecutionPlan(num_pairs=3)),
    "serial-accum": (_sssp_accum, ExecutionPlan(num_pairs=3)),
    "simulated-accum": (_sssp_accum, ExecutionPlan(backend="simulated", num_pairs=3,
                                                   seed=7)),
    "mesh-record": (lambda: _pagerank(False), ExecutionPlan(num_pairs=3, **MESH)),
    "mesh-kernel-restored": (lambda: _pagerank(True), ExecutionPlan(
        num_pairs=3, checkpoint_every=2, faults=(ProcFault(worker=1, iteration=3),),
        **MESH)),
    "mesh-accum": (_sssp_accum, ExecutionPlan(num_pairs=3, **MESH)),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_run_selects_its_executor_once(selections, name):
    build, plan = RUNS[name]
    job, inputs, statics = build()
    result = execute(job, inputs, statics, plan)
    assert selections == [job.name]
    if name.endswith("restored"):
        assert result.recoveries == 1
        assert result.recovery_events[0]["restored_checkpoint"] is not None
