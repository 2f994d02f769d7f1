"""K-means correctness: engines vs the Lloyd reference, combiner
equivalence, and the §5.3 convergence-detection variants."""

import pickle

import numpy as np
import pytest

from repro.algorithms import kmeans
from repro.data import load_lastfm
from repro.mapreduce.api import Context

from tests.algorithms.support import Rig

DATA = load_lastfm(num_users=240, num_artists=400, num_tastes=4, seed=13)
K = 4
ITERS = 5
CENTROIDS = kmeans.initial_centroids(DATA, K, seed=3)


def centroid_array(state, k, dim):
    out = np.zeros((k, dim))
    for cid, value in state:
        out[cid] = kmeans._centroid_of(value)
    return out


def run_imr(rig, iterations, **kw):
    rig.ingest("/km/centroids", CENTROIDS)
    rig.ingest("/km/points", DATA.user_records())
    job = kmeans.build_imr_job(
        state_path="/km/centroids",
        static_path="/km/points",
        output_path="/out/km",
        max_iterations=iterations,
        **kw,
    )
    result = rig.imr.submit(job)
    return rig.read(result.final_paths), result


def run_mr(rig, iterations, **kw):
    rig.ingest("/km/centroids", CENTROIDS)
    rig.ingest("/km/points", DATA.user_records())
    spec = kmeans.build_mr_spec(
        points_path="/km/points",
        output_prefix="/mr/km",
        max_iterations=iterations,
        **kw,
    )
    result = rig.driver.run(spec, ["/km/centroids"])
    return rig.read(result.final_paths), result


def test_imr_matches_lloyd_reference(rig):
    state, _ = run_imr(rig, ITERS)
    expected, _assign = kmeans.reference_lloyd(DATA, CENTROIDS, ITERS)
    got = centroid_array(state, K, DATA.num_artists)
    want = centroid_array(expected, K, DATA.num_artists)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_mr_matches_lloyd_reference(rig):
    state, _ = run_mr(rig, ITERS)
    expected, _assign = kmeans.reference_lloyd(DATA, CENTROIDS, ITERS)
    got = centroid_array(state, K, DATA.num_artists)
    want = centroid_array(expected, K, DATA.num_artists)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_engines_agree(rig):
    mr_state, _ = run_mr(rig, ITERS)
    imr_state, _ = run_imr(Rig(), ITERS)
    np.testing.assert_allclose(
        centroid_array(mr_state, K, DATA.num_artists),
        centroid_array(imr_state, K, DATA.num_artists),
        rtol=1e-9,
    )


def test_combiner_is_exact_and_reduces_shuffle(rig):
    plain_state, plain = run_imr(rig, ITERS)
    combined_state, combined = run_imr(Rig(), ITERS, combiner=True)
    np.testing.assert_allclose(
        centroid_array(plain_state, K, DATA.num_artists),
        centroid_array(combined_state, K, DATA.num_artists),
        rtol=1e-9,
    )
    assert (
        combined.metrics.total_shuffle_bytes < plain.metrics.total_shuffle_bytes
    )


def test_clusters_recover_ground_truth_tastes(rig):
    """After convergence most users of one taste share a cluster."""
    _, _ = run_imr(rig, 1)  # warm: ensures pipeline works with 1 iteration
    _centroids, assignment = kmeans.reference_lloyd(DATA, CENTROIDS, 10)
    agreement = 0
    for taste in range(DATA.num_tastes):
        members = assignment[DATA.taste == taste]
        if len(members) == 0:
            continue
        _, counts = np.unique(members, return_counts=True)
        agreement += counts.max()
    assert agreement / DATA.num_users > 0.7


def test_imr_map_assigns_like_assign_once_per_broadcast():
    """The map computes each broadcast's centroid invariants once; every
    user's assignment still equals per-user ``assign`` — on the initial
    centroids, on a later broadcast, and after a pickle round trip, which
    drops the cache."""
    later, _ = kmeans.reference_lloyd(DATA, CENTROIDS, 2)

    def assignments(kmap, broadcast):
        ctx = Context()
        for uid, prefs in DATA.user_records():
            kmap(uid, broadcast, prefs, ctx)
        return {value[1]: cid for cid, value in ctx.take() if value[0] == "pt"}

    kmap = kmeans.KMeansImrMap()
    for broadcast in (list(CENTROIDS), later):
        want = {uid: kmeans.assign(ids, counts, broadcast)
                for uid, (ids, counts) in DATA.user_records()}
        assert len(set(want.values())) > 1
        assert assignments(kmap, broadcast) == want
    clone = pickle.loads(pickle.dumps(kmap))
    assert clone._broadcast is None and clone.track_membership is False
    assert assignments(clone, later) == assignments(kmap, later)


def test_membership_tracking_state(rig):
    state, _ = run_imr(rig, 2, track_membership=True)
    total_members = 0
    for _cid, (centroid, members) in state:
        assert isinstance(centroid, np.ndarray)
        total_members += len(members)
    assert total_members == DATA.num_users


def test_aux_convergence_detection(rig):
    aux = kmeans.make_convergence_aux(move_threshold=3, num_tasks=1)
    state, result = run_imr(rig, 30, track_membership=True, aux=aux)
    assert result.terminated_by == "aux"
    assert result.iterations_run < 30


def test_mr_convergence_detection_job(rig):
    _, result = run_mr(rig, 30, move_threshold=3)
    assert result.converged
    assert result.iterations_run < 30


def test_empty_cluster_keeps_old_centroid(rig):
    # Centroid far outside the data keeps its position.
    far = [(cid, vec) for cid, vec in CENTROIDS[:-1]]
    outlier = np.full(DATA.num_artists, 1e6)
    far.append((K - 1, outlier))
    rig.ingest("/km/centroids2", far)
    rig.ingest("/km/points", DATA.user_records())
    job = kmeans.build_imr_job(
        state_path="/km/centroids2",
        static_path="/km/points",
        output_path="/out/km2",
        max_iterations=2,
    )
    result = rig.imr.submit(job)
    state = dict(rig.read(result.final_paths))
    np.testing.assert_allclose(state[K - 1], outlier)
