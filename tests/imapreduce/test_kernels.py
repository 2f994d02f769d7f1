"""Kernel-vs-record differential tests for the four bundled kernels.

Two promises, tested separately:

1. **Kernel vs record path** (serial): the columnar executor computes
   the same answer as the per-record reference.  ``min`` merges (sssp,
   components) must be *bit-exact* — the kernel performs the identical
   float additions and ``min`` is order-independent.  ``sum`` merges
   (pagerank, kmeans, jacobi) reorder the float additions, so they are
   compared within the differential oracle's tolerance; the worst-case
   reordering error is ``(n-1)·eps·Σ|xᵢ|`` (Higham §4.2) ≈ 1e-11 at
   these sizes, six orders under the 1e-6 relative tolerance.

2. **Kernel-serial vs kernel-parallel**: the multiprocess backend on a
   kernel job must be *record-for-record identical* to the serial
   columnar executor — both assemble every merge input in ascending
   source-pair order and run the same numpy reductions — across
   num_pairs × workers × fork/spawn.
"""

import math
import pickle
import time

import pytest

from repro.algorithms import components, jacobi, kmeans, pagerank, sssp
from repro.data.lastfm import load_lastfm
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.imapreduce import kernel_enabled, run_local, run_parallel
from repro.testing.oracles import records_identical, states_match
from tests.imapreduce.support import assert_mesh_counters

STATE = "/t/state"
STATIC = "/t/static"
OUT = "/t/out"


def _pagerank(use_kernel, nodes=40, seed=7, iterations=5, threshold=1e-4):
    graph = pagerank_graph(nodes, seed=seed)
    job = pagerank.build_imr_job(
        nodes, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=iterations, threshold=threshold, combiner=True,
        use_kernel=use_kernel,
    )
    return job, pagerank.initial_state(graph), {
        STATIC: pagerank.static_records(graph)
    }


def _sssp(use_kernel):
    graph = sssp_graph(36, seed=5)
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=6, combiner=True, use_kernel=use_kernel,
    )
    return job, sssp.initial_state(graph, source=0), {
        STATIC: sssp.static_records(graph)
    }


def _components(use_kernel):
    graph = sssp_graph(30, seed=9)
    job = components.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=25, use_kernel=use_kernel,
    )
    return job, components.initial_state(graph), {
        STATIC: components.static_records(graph)
    }


def _kmeans(use_kernel, users=50, artists=8, tastes=3, k=3, seed=13,
            iterations=4):
    data = load_lastfm(num_users=users, num_artists=artists,
                       num_tastes=tastes, seed=seed)
    job = kmeans.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=iterations, use_kernel=use_kernel,
        num_artists=artists if use_kernel else None,
    )
    return job, kmeans.initial_centroids(data, k, seed=seed), {
        STATIC: data.user_records()
    }


def _jacobi(use_kernel):
    a, b = jacobi.make_system(24, density=0.3, seed=3)
    job = jacobi.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=8, threshold=1e-9, use_kernel=use_kernel,
    )
    return job, jacobi.initial_state(24), {
        STATIC: jacobi.system_to_static_records(a, b)
    }


#: name -> (builder, exact): ``min`` merges demand bit-exactness.
WORKLOADS = {
    "pagerank": (_pagerank, False),
    "sssp": (_sssp, True),
    "components": (_components, True),
    "kmeans": (_kmeans, False),
    "jacobi": (_jacobi, False),
}


# --------------------------------------------- kernel vs record (serial) --
@pytest.mark.parametrize("num_pairs", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_matches_record_serial(name, num_pairs):
    build, exact = WORKLOADS[name]
    rec_job, state, static = build(False)
    ker_job, _, _ = build(True)
    assert not kernel_enabled(rec_job)
    assert kernel_enabled(ker_job)

    ref = run_local(rec_job, state, static, num_pairs=num_pairs)
    ker = run_local(ker_job, state, static, num_pairs=num_pairs)

    assert ker.iterations_run == ref.iterations_run
    assert ker.terminated_by == ref.terminated_by
    if exact:
        assert records_identical(ker.state, ref.state)
        assert ker.distances == ref.distances
    else:
        assert states_match(ker.state, ref.state) == []
        for mine, theirs in zip(ker.distances, ref.distances):
            if theirs is None:
                assert mine is None
            else:
                assert mine == pytest.approx(theirs, rel=1e-6, abs=1e-9)


def test_kernel_history_matches_record():
    build, _ = WORKLOADS["sssp"]
    rec_job, state, static = build(False)
    ker_job, _, _ = build(True)
    ref = run_local(rec_job, state, static, num_pairs=3, keep_history=True)
    ker = run_local(ker_job, state, static, num_pairs=3, keep_history=True)
    assert len(ker.history) == len(ref.history)
    for mine, theirs in zip(ker.history, ref.history):
        assert records_identical(mine, theirs)  # min merge: exact per iter


# ------------------------------------- kernel-serial vs kernel-parallel --
@pytest.mark.parametrize("num_pairs,num_workers", [(2, 2), (5, 3), (4, 1)])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_parallel_identical_to_serial(name, num_pairs, num_workers):
    build, _ = WORKLOADS[name]
    ker_job, state, static = build(True)
    ref = run_local(ker_job, state, static, num_pairs=num_pairs,
                    keep_history=True)
    par = run_parallel(ker_job, state, static, num_pairs=num_pairs,
                       num_workers=num_workers, keep_history=True)
    assert records_identical(par.state, ref.state)
    assert par.iterations_run == ref.iterations_run
    assert par.terminated_by == ref.terminated_by
    assert par.distances == ref.distances  # bit-identical float folds
    for mine, theirs in zip(par.history, ref.history):
        assert records_identical(mine, theirs)
    # §3.2: static partitions deserialized once per worker, kernel path too.
    assert par.static_loads == par.num_workers


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_kernel_parallel_start_methods(start_method):
    """Kernel jobs (and their prepared CSR columns) survive both start
    methods — the kernel travels inside the job pickle."""
    build, _ = WORKLOADS["pagerank"]
    ker_job, state, static = build(True)
    ref = run_local(ker_job, state, static, num_pairs=4)
    par = run_parallel(ker_job, state, static, num_pairs=4, num_workers=2,
                       start_method=start_method)
    assert records_identical(par.state, ref.state)
    assert par.distances == ref.distances


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("name", ["kmeans", "sssp"])
def test_replanned_shuffle_identical_on_mesh(name, start_method):
    """The two kernels whose shuffle plans are not a one-off: sssp's
    emission keys change while the frontier grows (re-planned, keys
    re-shipped, receiver rows re-located every such step) and kmeans
    emits a fresh copy of the one2all broadcast keys with ``(n, width)``
    values (the ``array_equal`` arm).  Bit-identical state, distances
    and per-iteration history against the serial executor."""
    build, _ = WORKLOADS[name]
    ker_job, state, static = build(True)
    ref = run_local(ker_job, state, static, num_pairs=4, keep_history=True)
    if name == "sssp":
        reached = [sum(math.isfinite(d) for _k, d in h) for h in ref.history]
        assert len(set(reached)) >= 4  # the key set really changes
    par = run_parallel(ker_job, state, static, num_pairs=4, num_workers=2,
                       start_method=start_method, keep_history=True)
    assert records_identical(par.state, ref.state)
    assert par.distances == ref.distances
    assert len(par.history) == len(ref.history)
    for mine, theirs in zip(par.history, ref.history):
        assert records_identical(mine, theirs)


#: ``(records_sent, batches_sent, manifest_frames, bytes_pickled)`` of
#: each builder above at 4 pairs / 2 workers: (record twin, kernel).
MESH_PINS = {
    "components": ((177, 6, 0, 2076), (177, 6, 0, 3974)),
    "jacobi": ((288, 16, 16, 6424), (288, 16, 16, 10080)),
    "kmeans": ((118, 16, 0, 19481), (40, 16, 0, 6743)),
    "pagerank": ((125, 10, 0, 3310), (125, 10, 0, 4654)),
    "sssp": ((118, 11, 1, 2400), (118, 11, 1, 5023)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_ships_what_its_record_twin_ships(name):
    """ROADMAP's shuffle-volume gate: the sender-side combine ships one
    value per (source pair, key), exactly what the record twin's
    combiner ships — and counts them whether or not keys ride along.
    (kmeans' kernel ships per-pair centroid partials where its record
    twin, which has no combiner, ships one record per user: fewer.)
    Each run's mesh counters are pinned on the way."""
    build, _ = WORKLOADS[name]
    sent = {}
    for use_kernel in (False, True):
        job, state, static = build(use_kernel)
        par = run_parallel(job, state, static, num_pairs=4, num_workers=2)
        assert_mesh_counters(par, MESH_PINS[name][use_kernel], (name, use_kernel))
        sent[use_kernel] = par.counter("records_sent")
    if name == "kmeans":
        assert 0 < sent[True] <= sent[False]
    else:
        assert 0 < sent[True] == sent[False]


#: PR 6's acceptance floor: the serial columnar executor beats the
#: serial record path by at least this factor.
KERNEL_SPEEDUP_FLOOR = 5.0


@pytest.mark.parametrize("name,num_pairs,size", [
    ("pagerank", 8,
     dict(nodes=6_000, seed=42, iterations=8, threshold=None)),
    ("kmeans", 4,
     dict(users=2_000, artists=60, tastes=4, k=8, seed=42, iterations=6)),
], ids=["pagerank", "kmeans"])
def test_kernel_speedup_floor(name, num_pairs, size):
    """A ratio of two timings taken in one process, interleaved and best
    of 3 per side — load-tolerant in a way absolute seconds are not.
    Measures 14–23× (pagerank; 23–26× before ISSUE 22's grouping plans
    sped the record side up) and 15–21× (kmeans, whose record side
    plans nothing) on the 2-core dev container, six alternating runs in
    a slow host period: about three times the floor."""
    build, _ = WORKLOADS[name]
    runs = {use_kernel: build(use_kernel, **size) for use_kernel in (False, True)}
    best = {}
    for _ in range(3):
        for use_kernel, (job, state, static) in runs.items():
            started = time.perf_counter()
            run_local(job, state, static, num_pairs=num_pairs)
            elapsed = time.perf_counter() - started
            best[use_kernel] = min(best.get(use_kernel, elapsed), elapsed)
    assert best[False] / best[True] >= KERNEL_SPEEDUP_FLOOR


# ----------------------------------------------------------- job shape --
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_jobs_pickle(name):
    build, _ = WORKLOADS[name]
    ker_job, _, _ = build(True)
    clone = pickle.loads(pickle.dumps(ker_job))
    assert kernel_enabled(clone)
    assert clone.kernel.merge == ker_job.kernel.merge


def test_kmeans_kernel_requires_width():
    with pytest.raises(ValueError):
        kmeans.build_imr_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            use_kernel=True,  # no num_artists: state width unknown
        )
    with pytest.raises(ValueError):
        kmeans.build_imr_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            use_kernel=True, num_artists=8, track_membership=True,
        )
