"""The record jobs whose reducer and combiner are a ``sum``/``min`` fold,
pinned.

Which executor runs such a job must not move what it computes.  Each
case below hashes one run's final state, per-iteration distances,
``iterations_run``, ``terminated_by`` and per-iteration state history
(``repr`` keeps every float bit and every int/float type), serially at
1, 3 and 8 pairs and on a 2-worker fork mesh at 3 pairs.  A digest that
moves means a shuffle, a fold order or a state decode changed.

Cases: pagerank with and without its combiner, each with and without a
distance threshold; sssp in sync mode (no combiner); components (its
combiner is always on) in sync mode.  One more run kills a mesh worker
of the combiner-less pagerank and pins the recovered run.
"""

import hashlib

import pytest

from repro.algorithms import components, pagerank, sssp
from repro.common.config import IterKeys
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import ProcFault, run_local, run_parallel

PATHS = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}


def _pagerank(threshold, combiner=True):
    graph = pagerank_graph(120, seed=3)
    job = pagerank.build_imr_job(
        120, **PATHS, max_iterations=6, threshold=threshold, combiner=combiner,
    )
    return job, pagerank.initial_state(graph), {"/st": pagerank.static_records(graph)}


def _sssp():
    graph = sssp_graph(90, seed=4)
    job = sssp.build_imr_job(**PATHS, max_iterations=20, threshold=0.0, sync=True)
    return job, sssp.initial_state(graph, source=0), {"/st": sssp.static_records(graph)}


def _components():
    graph = sssp_graph(70, mean_degree=1.5, seed=6)
    job = components.build_imr_job(**PATHS, max_iterations=12)
    job.conf.set_boolean(IterKeys.SYNC, True)
    return job, components.initial_state(graph), {
        "/st": components.static_records(graph)
    }


CASES = {
    "pagerank": lambda: _pagerank(None),
    "pagerank-threshold": lambda: _pagerank(0.1),
    "pagerank-no-combiner": lambda: _pagerank(None, combiner=False),
    "pagerank-no-combiner-threshold": lambda: _pagerank(0.1, combiner=False),
    "sssp-sync": _sssp,
    "components-sync": _components,
}


def digest(result) -> str:
    outcome = (result.state, result.distances, result.iterations_run,
               result.terminated_by, result.history)
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


#: (case, host) -> digest; host is the serial pair count or "mesh".
PINS = {
    ("pagerank", 1): "85fb4f7013dfb08b",
    ("pagerank", 3): "fe4182c0d85769c2",
    ("pagerank", 8): "9a89688c3317c609",
    ("pagerank", "mesh"): "fe4182c0d85769c2",
    ("pagerank-threshold", 1): "a0fdfb2042cf185c",
    ("pagerank-threshold", 3): "2784f2e25e49b654",
    ("pagerank-threshold", 8): "2930d26e9d378d82",
    ("pagerank-threshold", "mesh"): "2784f2e25e49b654",
    ("pagerank-no-combiner", 1): "85fb4f7013dfb08b",
    ("pagerank-no-combiner", 3): "0d5a0af6df6a0141",
    ("pagerank-no-combiner", 8): "a77d7595e8368c7a",
    ("pagerank-no-combiner", "mesh"): "0d5a0af6df6a0141",
    ("pagerank-no-combiner-threshold", 1): "a0fdfb2042cf185c",
    ("pagerank-no-combiner-threshold", 3): "d5588a3ab71d80f1",
    ("pagerank-no-combiner-threshold", 8): "e1865ac4da6de797",
    ("pagerank-no-combiner-threshold", "mesh"): "d5588a3ab71d80f1",
    ("sssp-sync", 1): "f808557b14cae873",
    ("sssp-sync", 3): "1762ffb7fa02a5bb",
    ("sssp-sync", 8): "25f1865243c0a370",
    ("sssp-sync", "mesh"): "1762ffb7fa02a5bb",
    ("components-sync", 1): "b032209d4e627a70",
    ("components-sync", 3): "b032209d4e627a70",
    ("components-sync", 8): "b032209d4e627a70",
    ("components-sync", "mesh"): "b032209d4e627a70",
}


@pytest.mark.parametrize("case,host", sorted(PINS, key=str), ids=str)
def test_fold_job_is_pinned(case, host):
    job, state, static = CASES[case]()
    if host == "mesh":
        result = run_parallel(job, state, static, num_pairs=3, num_workers=2,
                              start_method="fork", keep_history=True)
    else:
        result = run_local(job, state, static, num_pairs=host, keep_history=True)
    assert digest(result) == PINS[case, host]


def test_killed_mesh_worker_recovers_to_the_pin():
    """A worker killed mid-run: the respawned mesh restores the last
    checkpoint and replays to the unfaulted digest."""
    job, state, static = _pagerank(0.1, combiner=False)
    result = run_parallel(
        job, state, static, num_pairs=3, num_workers=2, start_method="fork",
        keep_history=True, checkpoint_every=2,
        faults=[ProcFault(worker=1, iteration=4, action="kill")],
    )
    assert result.recoveries == 1
    assert digest(result) == PINS["pagerank-no-combiner-threshold", "mesh"]
