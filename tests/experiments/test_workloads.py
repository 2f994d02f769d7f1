"""Tests for the experiment workload runner."""

import pytest

from repro.experiments import RunSpec, execute, make_cluster, set_cost_model
from repro.mapreduce.costmodel import DEFAULT_COST_MODEL
from repro.simulation import Engine


def teardown_module():
    set_cost_model(None)


def test_make_cluster_kinds():
    assert len(make_cluster(Engine(), "local")) == 4
    assert len(make_cluster(Engine(), "ec2-7")) == 7
    assert len(make_cluster(Engine(), "single")) == 1
    with pytest.raises(ValueError):
        make_cluster(Engine(), "mainframe")


def test_execute_is_cached():
    spec = RunSpec("sssp", "dblp", "imapreduce", "local", 2)
    assert execute(spec) is execute(spec)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        execute(RunSpec("sorting", "dblp", "mapreduce", "local", 1))


def test_both_engines_run_sssp_and_record_iterations():
    mr = execute(RunSpec("sssp", "dblp", "mapreduce", "local", 2))
    imr = execute(RunSpec("sssp", "dblp", "imapreduce", "local", 2))
    assert mr.num_iterations == 2
    assert imr.num_iterations == 2
    assert mr.total_time > imr.total_time


def test_measure_distance_adds_cost_but_not_early_stop():
    plain = execute(RunSpec("sssp", "dblp", "mapreduce", "local", 2))
    checked = execute(RunSpec("sssp", "dblp", "mapreduce", "local", 2, measure_distance=True))
    assert checked.num_iterations == 2
    assert checked.total_time > plain.total_time
    assert all(it.distance is not None for it in checked.iterations)


def test_sync_variant_is_slower_or_equal():
    imr = execute(RunSpec("pagerank", "pagerank-s", "imapreduce", "local", 2))
    sync = execute(RunSpec("pagerank", "pagerank-s", "imapreduce", "local", 2, sync=True))
    assert sync.total_time >= imr.total_time


def test_set_cost_model_changes_results_and_clears_cache():
    spec = RunSpec("sssp", "dblp", "imapreduce", "local", 2)
    base = execute(spec).total_time
    set_cost_model(DEFAULT_COST_MODEL.with_overrides(task_launch=10.0))
    slow = execute(spec).total_time
    set_cost_model(None)
    assert slow > base
    assert execute(spec).total_time == base


def test_matrixpower_merges_paired_jobs_into_logical_iterations():
    mr = execute(RunSpec("matrixpower", "matrix8", "mapreduce", "local", 2))
    imr = execute(RunSpec("matrixpower", "matrix8", "imapreduce", "local", 2))
    assert mr.num_iterations == imr.num_iterations == 2


def test_kmeans_convergence_detection_stops_early():
    imr = execute(
        RunSpec("kmeans", "lastfm", "imapreduce", "local", 30, convergence_detection=True)
    )
    assert imr.num_iterations < 30


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="'hadoop'.*imapreduce.*mapreduce"):
        execute(RunSpec("sssp", "dblp", "hadoop", "local", 1))


def test_dataset_the_algorithm_does_not_run_on_is_refused():
    with pytest.raises(ValueError, match="unknown kmeans dataset 'google'"):
        execute(RunSpec("kmeans", "google", "imapreduce", "local", 1))


def test_baseline_combiner_is_honoured():
    plain = execute(RunSpec("pagerank", "pagerank-s", "mapreduce", "local", 2))
    combined = execute(
        RunSpec("pagerank", "pagerank-s", "mapreduce", "local", 2, combiner=True)
    )
    assert combined.total_shuffle_bytes < plain.total_shuffle_bytes


@pytest.mark.parametrize(
    "algorithm, engine, flag",
    [
        ("kmeans", "imapreduce", "sync"),
        ("kmeans", "mapreduce", "measure_distance"),
        ("matrixpower", "imapreduce", "combiner"),
        ("matrixpower", "mapreduce", "sync"),
        ("matrixpower", "imapreduce", "measure_distance"),
        ("sssp", "imapreduce", "convergence_detection"),
        ("pagerank", "mapreduce", "convergence_detection"),
        ("sssp", "mapreduce", "sync"),
    ],
)
def test_flag_the_row_does_not_take_is_refused(algorithm, engine, flag):
    dataset = {"sssp": "dblp", "pagerank": "pagerank-s", "kmeans": "lastfm",
               "matrixpower": "matrix8"}[algorithm]
    spec = RunSpec(algorithm, dataset, engine, "local", 1, **{flag: True})
    with pytest.raises(ValueError, match=f"^{flag}: {algorithm} has no "):
        execute(spec)
