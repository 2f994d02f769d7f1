"""K-means clustering (paper §5.1, §5.3) on the Last.fm workload.

State = the k cluster centroids (dense vectors over the artist
catalogue); static = the users' sparse preference vectors.  The mapping
from reduce to map is one-to-all: every map task needs every centroid,
so iMapReduce broadcasts the state and runs maps synchronously (§5.1.2).

Record formats:

* static: ``(user_id, (artist_ids, play_counts))`` — two small numpy
  arrays (the sparse preference vector);
* state:  ``(cid, centroid_vector)`` — or, when ``track_membership`` is
  on (the §5.3 convergence-detection variant), ``(cid, (centroid_vector,
  member_ids))`` so the auxiliary phase can count nodes that moved
  between clusters;
* shuffle: ``(cid, ("pt", uid, ids, counts))`` points and one
  ``(cid, ("keep", centroid))`` offer per map task, combinable into
  ``(cid, ("sum", dense_sum, n, uids))`` partial aggregates — the
  Combiner experiment of §5.1.3.  Without a combiner the phase declares
  that shape (:data:`WIRE`), so the mesh ships points as columns.

Squared Euclidean distances are computed as ‖c‖² − 2·c[ids]·counts + ‖x‖²
in *every* record implementation (the iMapReduce map, the Hadoop
baseline's mapper and the numpy reference all call :func:`_nearest`), so
assignments agree bit-for-bit.  A user asks every centroid at once: one
gather of its artists' columns and one stacked product of k dots, each
summed as a per-centroid dot sums it; a reduce folds each run of
consecutive points with one scatter.  Only :class:`KMeansKernel`
reassociates (CSR matmul, ``bincount``) and is held to a tolerance.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from ..common.config import iter_conf
from ..common.partition import ModPartitioner
from ..data.lastfm import LastFmDataset
from ..imapreduce import AuxPhase, IterativeJob, Kernel
from ..mapreduce import Job
from ..mapreduce.driver import IterativeSpec

__all__ = [
    "initial_centroids",
    "assign",
    "KMeansKernel",
    "build_imr_job",
    "build_mr_spec",
    "make_convergence_aux",
    "reference_lloyd",
]


# ----------------------------------------------------------------- setup --
def initial_centroids(
    data: LastFmDataset, k: int, seed: int = 0
) -> list[tuple[int, np.ndarray]]:
    """k starting centroids: the dense vectors of k seeded-random users."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(data.num_users, size=k, replace=False)
    centroids = []
    for cid, uid in enumerate(sorted(chosen.tolist())):
        ids, counts = data.records[uid]
        vec = np.zeros(data.num_artists)
        vec[ids] = counts
        centroids.append((cid, vec))
    return centroids


def _sq_norm(ids: np.ndarray, counts: np.ndarray) -> float:
    return float(np.dot(counts, counts))


def _prepare_centroids(
    centroids: Sequence[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_distances` needs of the centroids, computed once per
    set rather than per user: ``(cids, m2, c_norm)`` — the ascending
    cids, one contiguous ``(k, A)`` matrix of −2·C and each ‖c‖²."""
    ordered = sorted(centroids, key=lambda kv: kv[0])
    cids = np.array([cid for cid, _ in ordered], dtype=np.int64)
    m2 = -2.0 * np.array([vec for _, vec in ordered])
    c_norm = np.array([float(vec @ vec) for _, vec in ordered])
    return cids, m2, c_norm


def _distances(
    ids: np.ndarray, counts: np.ndarray, prepared: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """A user's squared distance to every centroid at once, ‖c‖² +
    (−2·c[ids])·counts + ‖x‖², in ascending cid.  ``take`` gathers the
    user's columns as a contiguous ``(k, n)`` block, and the stacked
    ``(k, 1, n) @ (n, 1)`` product is k dots (numpy's ``dot`` kernel,
    BLAS ddot), each summed as the per-centroid ``c[ids] @ counts`` sums
    it; the −2 scaling is exact, so each distance is bit for bit ‖c‖² −
    2·c[ids]·counts + ‖x‖².  A gemv (``counts @ (−2·Cᵀ)[ids]``) would
    sum in another order and move the last bits."""
    _cids, m2, c_norm = prepared
    dots = m2.take(ids, axis=1)[:, None, :] @ counts[:, None]
    return (c_norm + dots[:, 0, 0]) + _sq_norm(ids, counts)


def _nearest(
    ids: np.ndarray, counts: np.ndarray, prepared: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> int:
    """Nearest-centroid id over :func:`_prepare_centroids`' output;
    ``argmin`` takes the first minimum, so ties break to the lowest
    cid."""
    return int(prepared[0][_distances(ids, counts, prepared).argmin()])


def assign(
    ids: np.ndarray,
    counts: np.ndarray,
    centroids: Sequence[tuple[int, np.ndarray]],
) -> int:
    """Nearest-centroid id; ties break to the lowest cid."""
    return _nearest(ids, counts, _prepare_centroids(centroids))


def _centroid_of(value: Any) -> np.ndarray:
    """State value → centroid vector (with or without membership)."""
    if isinstance(value, tuple):
        return value[0]
    return value


# ---------------------------------------------------------- iMapReduce --
def _offer_keeps(ctx, pairs) -> None:
    """Once per task context: re-offer every centroid so empty clusters
    survive (the reduce falls back to the offer when no point arrives).
    One offer per map *task*, not per record — the tasks share a context
    for the iteration in both engines."""
    if "_keeps_emitted" in ctx.counters:
        return
    ctx.increment("_keeps_emitted")
    for cid, vec in pairs:
        ctx.emit(cid, ("keep", vec))


class KMeansImrMap:
    """Nearest-centroid assignment map as a picklable callable (the
    multiprocess backend ships jobs to workers by pickle).

    Every user of one pair-iteration receives the same broadcast list
    object, and every backend builds a fresh one per iteration, so the
    centroid invariants (:func:`_prepare_centroids`) are computed once
    per broadcast, keyed on its identity.  The cache is derived state
    and is not pickled."""

    __slots__ = ("track_membership", "_broadcast", "_pairs", "_prepared")

    def __init__(self, track_membership: bool = False):
        # Same map either way; the reduce differs on membership.
        self.track_membership = track_membership
        self._broadcast = self._pairs = self._prepared = None

    def __reduce__(self):
        return type(self), (self.track_membership,)

    def __call__(self, uid: int, centroids: list, prefs: tuple, ctx) -> None:
        if centroids is not self._broadcast:
            self._broadcast = centroids
            self._pairs = [(cid, _centroid_of(v)) for cid, v in centroids]
            self._prepared = _prepare_centroids(self._pairs)
        _offer_keeps(ctx, self._pairs)
        ids, counts = prefs
        best = _nearest(ids, counts, self._prepared)
        ctx.emit(best, ("pt", uid, ids, counts))


def _fold_points(values: list) -> tuple[np.ndarray, np.ndarray, int, list[int]]:
    """One cluster's shuffled values folded: ``(keep, total, count,
    uids)`` — the centroid offered by the maps, the dense sum and number
    of its points (single ``"pt"`` points and combined ``"sum"``
    partials alike), and their user ids in arrival order.  Every map
    task offers ``("keep", centroid)``, so the dense length is known.

    Each run of consecutive points is one ``np.add.at`` over their
    concatenated ids and counts: ``ufunc.at`` applies in index order, so
    every element gets the same additions in the same order as one
    scatter per point, and a ``"sum"`` partial ends the run."""
    keep = next(v[1] for v in values if v[0] == "keep")
    total = np.zeros(len(keep))
    count = 0
    uids: list[int] = []
    for kind, run in itertools.groupby(values, key=itemgetter(0)):
        if kind == "pt":
            _, run_uids, ids, counts = zip(*run)
            np.add.at(total, np.concatenate(ids), np.concatenate(counts))
            count += len(run_uids)
            uids.extend(run_uids)
        elif kind == "sum":
            for _, vec, n, vuids in run:
                total[: len(vec)] += vec
                count += n
                uids.extend(vuids)
    return keep, total, count, uids


class KMeansImrReduce:
    """Centroid-recomputation reduce as a picklable callable."""

    __slots__ = ("track_membership",)

    def __init__(self, track_membership: bool = False):
        self.track_membership = track_membership

    def __call__(self, cid: int, values: list, ctx) -> None:
        keep, total, count, members = _fold_points(values)
        centroid = total / count if count else keep
        if self.track_membership:
            ctx.emit(cid, (centroid, tuple(sorted(members))))
        else:
            ctx.emit(cid, centroid)


def centroid_distance(cid: Any, prev: Any, curr: Any) -> float:
    """Manhattan movement of a centroid between iterations."""
    if prev is None:
        return float(np.abs(_centroid_of(curr)).sum())
    return float(np.abs(_centroid_of(prev) - _centroid_of(curr)).sum())


class MembershipAuxMap:
    """Aux map: compare each cluster's membership with last iteration's."""

    __slots__ = ()

    def __call__(self, cid: int, value: tuple, ctx) -> None:
        _centroid, members = value
        previous: set = ctx.task_state.setdefault("members", {}).get(cid, set())
        members = set(members)
        stayed = len(members & previous)
        ctx.task_state["members"][cid] = members
        ctx.emit(0, ("counts", len(members), stayed))


class MembershipAuxReduce:
    """Aux reduce: terminate once fewer than ``move_threshold`` moved."""

    __slots__ = ("move_threshold",)

    def __init__(self, move_threshold: int):
        self.move_threshold = move_threshold

    def __call__(self, key: int, values: list, ctx) -> None:
        total = sum(v[1] for v in values)
        stayed = sum(v[2] for v in values)
        first_round = ctx.task_state.get("rounds", 0) == 0
        ctx.task_state["rounds"] = ctx.task_state.get("rounds", 0) + 1
        if not first_round and (total - stayed) < self.move_threshold:
            ctx.signal_terminate()


def make_convergence_aux(move_threshold: int, num_tasks: int = 1) -> AuxPhase:
    """§5.3: auxiliary phase that counts users who changed cluster and
    signals termination when fewer than ``move_threshold`` moved.

    Requires the main job to run with ``track_membership=True``.
    """
    return AuxPhase(
        map_fn=MembershipAuxMap(),
        reduce_fn=MembershipAuxReduce(move_threshold),
        num_tasks=num_tasks,
    )


class KMeansKernel(Kernel):
    """Vectorized Lloyd step over a pair's static user partition.

    Per iteration each non-empty pair computes every user's nearest
    centroid in one distance-matrix expression (the engines' shared
    ‖c‖² − 2·c·x + ‖x‖² formula) and emits one ``(A+1)``-wide partial
    row per centroid id — dense play-count sums plus a trailing member
    count.  The ``sum`` merge adds the partials; ``finalize`` divides by
    the count, falling back to the previous centroid for empty clusters
    (the record path's "keep" rule).  Ties break to the lowest cid in
    both paths (broadcast keys are ascending; ``argmin`` returns the
    first minimum).  Dot products run as one CSR sparse-dense matmul
    over the partition's play matrix (built once in ``prepare``, §3.2
    static residency) and the partials as one ``bincount``; both sum in
    another order than the record path's per-user dots
    (:func:`_distances`) and per-run ``np.add.at`` — hence tolerance
    oracle.
    """

    __slots__ = ("num_artists",)

    merge = "sum"
    needs_broadcast = True

    def __init__(self, num_artists: int):
        self.num_artists = num_artists

    @property
    def state_width(self) -> int:  # centroids are (A,) vectors
        return self.num_artists

    def prepare(self, pair, owned_keys, static_table):
        uids = sorted(static_table)
        entries = [static_table[u] for u in uids]
        counts = np.array([len(ids) for ids, _ in entries], dtype=np.int64)
        if entries:
            aids = np.concatenate(
                [np.asarray(ids, dtype=np.int64) for ids, _ in entries]
            )
            plays = np.concatenate(
                [np.asarray(c, dtype=np.float64) for _, c in entries]
            )
        else:
            aids = np.empty(0, dtype=np.int64)
            plays = np.empty(0, dtype=np.float64)
        user_row = np.repeat(np.arange(len(uids)), counts)
        x_norm = np.array(
            [_sq_norm(ids, c) for ids, c in entries], dtype=np.float64
        )
        from scipy import sparse  # runtime dep; keep module import light

        # From (user, artist) coordinates: scipy orders each row's
        # artists, which a Last.fm record's already are.
        plays_mat = sparse.csr_matrix(
            (plays, (user_row, aids)), shape=(len(uids), self.num_artists)
        )
        return aids, plays, user_row, x_norm, plays_mat

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        aids, plays, user_row, x_norm, plays_mat = prepared
        a = self.num_artists
        num_users = x_norm.size
        if num_users == 0:
            # No users in this static partition: the record map never
            # runs here either, so nothing (not even keeps) is emitted.
            return np.empty(0, dtype=np.int64), np.empty((0, a + 1))
        bkeys, centroids = broadcast
        k = bkeys.size
        c_norm = np.einsum("ij,ij->i", centroids, centroids)
        dots = plays_mat @ centroids.T  # CSR sparse-dense: the hot line
        dist = c_norm[None, :] - 2.0 * dots + x_norm[:, None]
        best = np.argmin(dist, axis=1)
        # One flat bincount scatters every (cluster, artist) partial;
        # column ``a`` is never hit by an artist id, then holds counts.
        flat = best[user_row] * (a + 1) + aids
        totals = np.bincount(
            flat, weights=plays, minlength=k * (a + 1)
        ).reshape(k, a + 1)
        totals[:, a] = np.bincount(best, minlength=k)
        return bkeys.copy(), totals

    def finalize(self, pair, keys, merged, prev_values, prepared):
        a = self.num_artists
        counts = merged[:, a]
        nonempty = counts > 0
        out = prev_values.copy()  # empty clusters keep their centroid
        out[nonempty] = merged[nonempty, :a] / counts[nonempty, None]
        return out

    def distance_partial(self, keys, prev, curr):
        return float(np.abs(prev - curr).sum())


#: The map's two emissions, declared so the mesh ships a batch of them
#: as columns: a centroid offer and a point.  The combiner's ``"sum"``
#: partials carry a uid tuple, so a combining job declares nothing.
WIRE = (("keep", np.float64), ("pt", int, np.int64, np.float64))


def build_imr_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int | None = None,
    threshold: float | None = None,
    num_pairs: int | None = None,
    combiner: bool = False,
    track_membership: bool = False,
    aux: AuxPhase | None = None,
    checkpoint_interval: int | None = None,
    use_kernel: bool = False,
    num_artists: int | None = None,
) -> IterativeJob:
    if use_kernel:
        if num_artists is None:
            raise ValueError("use_kernel requires num_artists (state width)")
        if track_membership:
            raise ValueError(
                "the kernel path does not track membership (tuple state)"
            )
    conf = iter_conf(
        state_path=state_path, static_path=static_path, mapping="one2all",  # §5.1.2
        sync=True, max_iterations=max_iterations, threshold=threshold,
        checkpoint_interval=checkpoint_interval,
    )
    return IterativeJob.single_phase(
        "kmeans",
        KMeansImrMap(track_membership),
        KMeansImrReduce(track_membership),
        conf=conf,
        output_path=output_path,
        distance_fn=centroid_distance if threshold is not None else None,
        partitioner=ModPartitioner(),
        combiner=mr_combiner if combiner else None,
        num_pairs=num_pairs,
        aux=aux,
        kernel=KMeansKernel(num_artists) if use_kernel else None,
        wire=() if combiner else WIRE,
    )


# ------------------------------------------------------------ MapReduce --
class KMeansMapper:
    """Baseline mapper: centroids arrive as a distributed-cache side file."""

    def __init__(self):
        self._centroids: list[tuple[int, np.ndarray]] = []
        self._prepared = None  # set by configure

    def configure(self, side_data: dict) -> None:
        centroids: list[tuple[int, np.ndarray]] = []
        for records in side_data.values():
            centroids.extend((cid, _centroid_of(v)) for cid, v in records)
        self._centroids = sorted(centroids, key=lambda kv: kv[0])
        self._prepared = _prepare_centroids(self._centroids)

    def map(self, uid: int, prefs: tuple, ctx) -> None:
        _offer_keeps(ctx, self._centroids)
        ids, counts = prefs
        best = _nearest(ids, counts, self._prepared)
        ctx.emit(best, ("pt", uid, ids, counts))


def mr_combiner(cid: int, values: list, ctx) -> None:
    """Partial aggregation: points → ("sum", vec, count, uids).  One keep
    is re-emitted so the reduce side still sees the empty-cluster
    fallback."""
    keep, total, count, uids = _fold_points(values)
    ctx.emit(cid, ("keep", keep))
    if count > 0:
        ctx.emit(cid, ("sum", total, count, tuple(uids)))


def build_mr_spec(
    *,
    points_path: str | list[str],
    output_prefix: str,
    max_iterations: int,
    num_reduces: int = 4,
    combiner: bool = False,
    track_membership: bool = False,
    move_threshold: int | None = None,
) -> IterativeSpec:
    """The Hadoop baseline: the points file is the job input every
    iteration; the previous iteration's centroids travel as side files.

    With ``move_threshold`` set, an additional convergence-check job runs
    after each iteration (the paper's Fig. 20 baseline), comparing
    memberships of the two latest centroid sets.
    """
    point_inputs = [points_path] if isinstance(points_path, str) else list(points_path)

    def job_factory(iteration: int, centroid_paths: list[str]) -> Job:
        return Job(
            name=f"kmeans-{iteration}",
            mapper=KMeansMapper(),
            reducer=KMeansImrReduce(track_membership or move_threshold is not None),
            combiner=mr_combiner if combiner else None,
            input_paths=point_inputs,
            output_path=f"{output_prefix}/iter{iteration}",
            num_reduces=num_reduces,
            partitioner=ModPartitioner(),
            side_inputs=centroid_paths,
        )

    convergence_factory = None
    if move_threshold is not None:

        def _check_mapper(cid, value, ctx):
            # The initial centroid file has no membership yet.
            if isinstance(value, tuple):
                ctx.emit(0, (cid, tuple(value[1])))
            else:
                ctx.emit(0, (cid, ()))

        def _check_reducer(key, values, ctx):
            # values: (cid, members) records from prev and curr outputs;
            # the first occurrence of a cid is prev, the second is curr.
            seen: dict[int, tuple] = {}
            moved = 0
            for cid, members in values:
                if cid in seen:
                    moved += len(set(members) - set(seen[cid]))
                else:
                    seen[cid] = members
            ctx.increment("moved", moved)

        def convergence_factory(iteration, prev_paths, curr_paths):
            return Job(
                name=f"kmeans-check-{iteration}",
                mapper=_check_mapper,
                reducer=_check_reducer,
                input_paths=list(prev_paths) + list(curr_paths),
                output_path=f"{output_prefix}/check{iteration}",
                num_reduces=1,
            )

    return IterativeSpec(
        name="kmeans",
        job_factory=job_factory,
        max_iterations=max_iterations,
        threshold=float(move_threshold) if move_threshold is not None else None,
        convergence_factory=convergence_factory,
        distance_counter="moved",
    )


# ------------------------------------------------------------ references --
def reference_lloyd(
    data: LastFmDataset,
    centroids: list[tuple[int, np.ndarray]],
    iterations: int,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """Plain Lloyd's algorithm with the engines' exact distance formula
    and tie-breaking.  Returns (centroids, assignments)."""
    current = [(cid, vec.copy()) for cid, vec in centroids]
    assignment = np.zeros(data.num_users, dtype=np.int64)
    for _ in range(iterations):
        sums = {cid: np.zeros(data.num_artists) for cid, _ in current}
        counts = {cid: 0 for cid, _ in current}
        prepared = _prepare_centroids(current)
        for uid, (ids, play_counts) in enumerate(data.records):
            best = _nearest(ids, play_counts, prepared)
            assignment[uid] = best
            np.add.at(sums[best], ids, play_counts)
            counts[best] += 1
        current = [
            (cid, sums[cid] / counts[cid] if counts[cid] else vec)
            for cid, vec in current
        ]
    return current, assignment
