"""A phase's declared fold: checked at build time, and run columnar bit
for bit.

A record job whose reducer and combiner are ``sum(values)`` or
``min(values)`` says so with ``Phase.fold``; ``select_executor`` then
runs it on :class:`~repro.imapreduce.columnar.ColumnarSync`, with or
without a combiner, and the run must equal the same job with the
declaration removed (the record executor) in every bit of its state,
distances and history.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import components, pagerank, sssp
from repro.common.config import iter_conf
from repro.common.errors import ConfigError
from repro.common.partition import ModPartitioner
from repro.graph.digraph import Digraph
from repro.imapreduce import IterativeJob, Phase, run_local, run_parallel, select_executor
from repro.imapreduce.accum import FOLDS
from repro.imapreduce.columnar import KernelContractError, _fold, decode_columnar
from repro.imapreduce.job import _FOLD_SAMPLES
from repro.mapreduce.api import Context
from tests.imapreduce.support import undeclared

PATHS = {"state_path": "/s", "static_path": "/st", "output_path": "/o"}


def _build(algorithm, graph, *, combiner, converge, pairs):
    """(job, initial state, static records) for one drawn case;
    components' builder always sets its combiner."""
    if algorithm == "pagerank":
        job = pagerank.build_imr_job(
            graph.num_nodes, **PATHS, max_iterations=5, combiner=combiner,
            threshold=1e-3 if converge else None, num_pairs=pairs)
        return job, pagerank.initial_state(graph), pagerank.static_records(graph)
    if algorithm == "sssp":
        job = sssp.build_imr_job(
            **PATHS, max_iterations=8, combiner=combiner, num_pairs=pairs,
            threshold=0.0 if converge else None, sync=True)
        return job, sssp.initial_state(graph, source=0), sssp.static_records(graph)
    job = components.build_imr_job(
        **PATHS, max_iterations=8, converge=converge, num_pairs=pairs)
    return job, components.initial_state(graph), components.static_records(graph)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    weights = draw(st.lists(st.sampled_from([0.5, 1.25, 2.0, 3.75]),
                            min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


@settings(max_examples=30, deadline=None)
@given(algorithm=st.sampled_from(["pagerank", "sssp", "components"]),
       drawn=graphs(), pairs=st.integers(1, 8), combiner=st.booleans(),
       converge=st.booleans(), mesh=st.integers(0, 7))
def test_declared_fold_is_its_record_twin_bit_for_bit(
        algorithm, drawn, pairs, combiner, converge, mesh):
    """Serially, and on a 2-worker fork mesh in one draw of eight."""
    n, edges, weights = drawn
    graph = Digraph.from_edges(n, edges, weights if algorithm == "sssp" else None)
    job, state, static = _build(algorithm, graph, combiner=combiner,
                                converge=converge, pairs=pairs)
    assert select_executor(job)[0].__name__ == "FoldSync"
    twin = undeclared(job)
    assert select_executor(twin)[0].__name__ == "RecordSync"
    runs = []
    for which in (job, twin):
        if mesh == 0:
            result = run_parallel(which, state, {"/st": static}, num_pairs=pairs,
                                  num_workers=2, start_method="fork", keep_history=True)
        else:
            result = run_local(which, state, {"/st": static}, num_pairs=pairs,
                               keep_history=True)
        runs.append(repr((result.state, result.distances, result.history,
                          result.iterations_run, result.terminated_by)))
    assert runs[0] == runs[1]


def _pagerank_job(**options):
    return pagerank.build_imr_job(10, **PATHS, max_iterations=3, **options)


@pytest.mark.parametrize("fold, combiner, role", [
    ("min", None, "reducer"),
    ("sum", sssp.imr_reduce, "combiner"),
])
def test_a_contradicted_declaration_is_refused(fold, combiner, role):
    """pagerank's reducer sums; a ``min`` combiner contradicts ``sum``."""
    job = _pagerank_job()
    with pytest.raises(ConfigError, match=f"declares fold={fold!r}, but its {role}"):
        dataclasses.replace(job.phases[0], fold=fold, combiner=combiner)


def test_an_unknown_fold_is_refused():
    with pytest.raises(ConfigError, match="unknown fold 'max'"):
        Phase(map_fn=sssp.imr_map, reduce_fn=sssp.imr_reduce, fold="max")


def _dispatch(job):
    executor, why = select_executor(job)
    return executor.__name__, why


def test_dispatch_names_the_declared_fold():
    """A declared fold runs columnar with or without its combiner; an
    undeclared job has no kernel."""
    assert _dispatch(_pagerank_job(combiner=True)) == ("FoldSync", None)
    assert _dispatch(_pagerank_job()) == ("FoldSync", None)
    assert _dispatch(undeclared(_pagerank_job(combiner=True))) == ("RecordSync", "no kernel")
    assert _dispatch(sssp.build_imr_job(**PATHS, max_iterations=3)) == ("FoldSync", None)


def test_a_fold_refuses_emissions_of_another_dtype():
    """Int state, float offers: the declared run names both dtypes
    instead of truncating the offers, which its record twin keeps."""
    job = sssp.build_imr_job(**PATHS, max_iterations=3, num_pairs=2, sync=True)
    state = [(0, 0), (1, 10**9), (2, 10**9)]
    static = {"/st": [(0, ((1, 0.5),)), (1, ((2, 0.25),)), (2, ())]}
    twin = run_local(undeclared(job), state, static, num_pairs=2)
    assert twin.state == [(0, 0), (1, 0.5), (2, 0.75)]
    with pytest.raises(KernelContractError, match="float64 values into int64 state"):
        run_local(job, state, static, num_pairs=2)


def test_a_fold_refuses_a_float_key():
    """A map that also emits key ``2 / 2``: the record twin keeps the
    float key apart, so the declared run refuses it rather than
    truncating it onto key 1."""

    def map_fn(key, value, static, ctx):
        ctx.emit(key, value)
        if key == 0:
            ctx.emit(2 / 2, 3)

    def reduce_fn(key, values, ctx):
        ctx.emit(key, min(values))

    job = IterativeJob.single_phase(
        "float-key", map_fn, reduce_fn, output_path="/o", partitioner=ModPartitioner(),
        conf=iter_conf(state_path="/s", static_path=None, max_iterations=1), fold="min")
    state = [(0, 5), (1, 7), (2, 3)]
    twin = run_local(undeclared(job), state, {}, num_pairs=2)
    assert twin.state == [(1.0, 3), (0, 5), (1, 7), (2, 3)]
    with pytest.raises(KernelContractError, match="keys must be ints, got float64"):
        run_local(job, state, {}, num_pairs=2)


@pytest.mark.parametrize("fold", sorted(FOLDS))
def test_the_columnar_fold_is_the_declared_fold(fold):
    """On every sample group the check runs, the columnar executors'
    fold, decoded, is what the declaration promises — ``min`` keeps the
    first of ``0.0``/``-0.0`` like Python's ``min``, though
    ``np.minimum`` keeps the later, across batches too."""
    for values in _FOLD_SAMPLES:
        vals = np.array(values)
        acc = _fold(fold, 1, [(np.zeros(vals.size, dtype=np.intp), vals)])
        got = decode_columnar(np.zeros(1, dtype=np.int64), acc)
        assert repr(got) == repr([(0, FOLDS[fold].reduce(values))])
    one = np.zeros(1, dtype=np.intp)
    acc = _fold("min", 1, [(one, np.array([0.0])), (one, np.array([-0.0]))])
    assert repr(acc.tolist()) == "[0.0]"


def test_pagerank_sums_as_a_left_fold():
    """On every interpreter — Python's float ``sum`` compensates from
    3.12 on, and a compensated sum is refused the declaration."""
    ctx = Context()
    pagerank.imr_reduce(0, [1e16, 1.0, -1e16], ctx)
    assert list(zip(*ctx.take_columns())) == [(0, 0.0)]

    def fsum_reduce(key, values, ctx):
        ctx.emit(key, math.fsum(values))

    with pytest.raises(ConfigError, match="declares fold='sum', but its reducer"):
        Phase(map_fn=sssp.imr_map, reduce_fn=fsum_reduce, fold="sum")
