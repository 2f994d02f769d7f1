"""K-means correctness: engines vs the Lloyd reference, combiner
equivalence, the §5.3 convergence-detection variants, and the map's and
reduce's vectorised steps against the per-centroid and per-point loops
they replaced.

The properties draw inputs that are exact in float64, so what they test
is the tie-break and the order of additions.  That every distance is
summed as the per-centroid loop sums it depends on numpy and BLAS;
``test_distances_sum_like_the_loop_on_lastfm`` checks it bit for bit on
real play counts."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# ------------------------------------------------- vectorised steps --
def _nearest_by_loop(ids, counts, centroids):
    """The per-centroid loop ``_nearest`` replaced: one fancy index and
    one dot per centroid, in ascending cid, first minimum kept."""
    x_norm = float(np.dot(counts, counts))
    best_cid, best_dist = -1, np.inf
    for cid, vec in sorted(centroids, key=lambda kv: kv[0]):
        dist = float(vec @ vec) - 2.0 * float(vec[ids] @ counts) + x_norm
        if dist < best_dist:
            best_cid, best_dist = cid, dist
    return best_cid


@st.composite
def _centroids_and_users(draw):
    """1–12 centroids over a few artists, drawn from a small pool of
    dyadic (k/4) vectors so duplicates (ties) are common, under distinct
    cids in any order; users with sorted unique ids and integer counts —
    every sum is exact in float64."""
    artists = draw(st.integers(1, 6))
    coord = st.integers(-12, 12).map(lambda k: k / 4)
    pool = draw(st.lists(st.lists(coord, min_size=artists, max_size=artists),
                         min_size=1, max_size=4))
    k = draw(st.integers(1, 12))
    cids = draw(st.permutations(draw(st.lists(st.integers(0, 40), min_size=k,
                                              max_size=k, unique=True))))
    centroids = [(cid, np.array(draw(st.sampled_from(pool)))) for cid in cids]
    users = []
    for _ in range(draw(st.integers(1, 8))):
        ids = sorted(draw(st.sets(st.integers(0, artists - 1), max_size=artists)))
        counts = draw(st.lists(st.integers(1, 9), min_size=len(ids), max_size=len(ids)))
        users.append((np.array(ids, dtype=np.int64), np.array(counts, dtype=np.float64)))
    return centroids, users


@settings(max_examples=100, deadline=None)
@given(case=_centroids_and_users())
@example(case=([(5, np.array([1.0, 0.5])), (2, np.array([1.0, 0.5]))],
               [(np.array([0, 1]), np.array([2.0, 1.0]))]))
def test_nearest_equals_the_per_centroid_loop(case):
    """``_nearest`` (all k distances as one product) picks the cid the
    per-centroid loop picks — ties break to the lowest cid."""
    centroids, users = case
    prepared = kmeans._prepare_centroids(centroids)
    for ids, counts in users:
        assert kmeans._nearest(ids, counts, prepared) == _nearest_by_loop(
            ids, counts, centroids)


def test_distances_sum_like_the_loop_on_lastfm():
    """On non-integer centroids (a few Lloyd steps in) and real play
    counts, every distance ``_nearest`` compares equals the per-centroid
    loop's bit for bit: the stacked product runs the loop's dot kernel.
    Fails, by name, where numpy or BLAS sums them differently (a gemv
    does, in about half the dots), and the pinned k-means states could
    then move."""
    for step in (0, 1, 3):
        centroids = kmeans.reference_lloyd(DATA, CENTROIDS, step)[0] if step else CENTROIDS
        prepared = kmeans._prepare_centroids(centroids)
        ordered = sorted(centroids, key=lambda kv: kv[0])
        for ids, counts in DATA.records:
            x_norm = float(np.dot(counts, counts))
            by_loop = [float(vec @ vec) - 2.0 * float(vec[ids] @ counts) + x_norm
                       for _cid, vec in ordered]
            got = kmeans._distances(ids, counts, prepared)
            assert got.tobytes() == np.array(by_loop).tobytes()


def _fold_by_point(values):
    """The per-point fold ``_fold_points`` replaced: one ``np.add.at``
    per point, each ``"sum"`` partial added where it arrives."""
    keep = next(v[1] for v in values if v[0] == "keep")
    total, count, uids = np.zeros(len(keep)), 0, []
    for value in values:
        if value[0] == "pt":
            _, uid, ids, counts = value
            np.add.at(total, ids, counts)
            count += 1
            uids.append(uid)
        elif value[0] == "sum":
            _, vec, n, vuids = value
            total[: len(vec)] += vec
            count += n
            uids.extend(vuids)
    return keep, total, count, uids


@st.composite
def _cluster_values(draw):
    """One cluster's shuffled values: a keep, then ``keep``/``pt``/``sum``
    values interleaved in any order — none but keeps (an empty cluster)
    included — with counts and partial sums whose float additions do
    not commute, so the order of every addition shows in the bits."""
    width = draw(st.integers(1, 6))
    real = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: x != 0) | st.just(0.1)
    keep = ("keep", np.array(draw(st.lists(real, min_size=width, max_size=width))))
    uid = iter(range(10**6))

    def point():
        ids = draw(st.lists(st.integers(0, width - 1), max_size=2 * width))
        counts = draw(st.lists(real, min_size=len(ids), max_size=len(ids)))
        return ("pt", next(uid), np.array(ids, dtype=np.int64), np.array(counts))

    def partial():
        vec = np.array(draw(st.lists(real, min_size=1, max_size=width)))
        n = draw(st.integers(1, 3))
        return ("sum", vec, n, tuple(next(uid) for _ in range(n)))

    kinds = draw(st.lists(st.sampled_from(["keep", "pt", "pt", "sum"]), max_size=24))
    makers = {"keep": lambda: keep, "pt": point, "sum": partial}
    return [keep, *(makers[kind]() for kind in kinds)]


@settings(max_examples=100, deadline=None)
@given(values=_cluster_values())
def test_fold_points_equals_per_point_scatter(values):
    """One ``np.add.at`` per run of points adds the same values to every
    element in the same order as one per point: ``total`` is bit for bit
    the per-point fold's, and the count and uid order match."""
    keep, total, count, uids = kmeans._fold_points(values)
    want_keep, want_total, want_count, want_uids = _fold_by_point(values)
    assert keep is want_keep
    assert total.tobytes() == want_total.tobytes()
    assert (count, uids) == (want_count, want_uids)
