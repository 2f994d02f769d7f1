"""Real multiprocess execution backend: the pipe-mesh host.

Everything else in this repository executes iterative jobs either in
virtual time (the simulated :class:`IMapReduceRuntime`) or serially
(:func:`run_local`).  This module is the backend that actually uses the
hardware: ``N`` persistent worker *processes* each host a fixed set of
map/reduce task pairs for the whole job, realizing the paper's three
core mechanisms for real:

* **persistent tasks** (§3.1) — workers are spawned once and loop over
  every iteration; no per-iteration process/task setup;
* **static/state separation** (§3.2) — each worker starts with its
  static-data partitions in hand and keeps them resident: a forked
  worker inherits the coordinator's partitioned tables (nothing is
  serialised), a spawned one has them pickled once by
  ``multiprocessing`` with its other arguments; only protocol-5 state
  frames cross process boundaries afterwards;
* **asynchronous map start** (§3.3) — the data plane is a worker mesh
  with no global barrier: a pair's map for iteration k+1 starts as soon
  as its own reduce for k finished and its peer batches arrived.

The mesh and both control planes run on point-to-point OS pipes
(:func:`multiprocessing.Pipe`); the coordinator blocks in
:func:`multiprocessing.connection.wait` over the workers' report pipes
*and their process sentinels*, so a verdict round-trip costs
microseconds and a worker death — any exit code, with or without a
final report — is detected the instant the OS reaps it instead of on a
poll interval or timeout.  See :mod:`.workerproc` for the frame format
(three pipe messages at most, one decoder for pipes and spool files),
the skip-empty manifest protocol, and the zero-copy buffer path, and
:mod:`.engine` for the superstep driver the workers run and the verdict
policies :func:`_coordinate` — the one coordinator frame loop, run by
the one supervisor, :func:`host_mesh`, for both algebras — folds their
reports through.  ``run_parallel`` and ``run_accum_parallel``
(:mod:`.plan`) are this host's cells.

Supported job surface: combiners, one2all broadcast (§5.1), multi-phase
iterations (§5.2), the auxiliary phase (§5.3), and distance/threshold
termination — distances are merged at the coordinator exactly as the
paper's master merges reduce-local distances.  The aux phase runs at
the coordinator (its input is the full, tiny, post-iteration state).

Correctness contract: byte-identical record processing order to
:func:`run_local` (the same pair executor under the same driver, with
ascending source-pair assembly on both transports), so the final state,
``terminated_by`` and iteration count are equal record for record —
enforced by the differential tests and the chaos campaigns'
``parallel`` mode.

Fault tolerance (§3.4 / §5 runtime support)
-------------------------------------------

When armed (``checkpoint_every`` and/or ``faults``), the backend
survives real worker death:

* **Checkpoints** — every ``checkpoint_every`` iterations each worker
  spools its pair states durably (:mod:`.checkpoint`); the coordinator
  commits a manifest once *every* worker's spool file for that
  iteration has arrived and the iteration's reports are merged, making
  the manifest a consistent global barrier.
* **Liveness** — process sentinels catch hard deaths instantly; worker
  heartbeat frames multiplexed onto the report pipes catch the deaths
  sentinels cannot (a SIGSTOPped — frozen but reaped-by-nobody —
  worker) through a *suspicion timeout*.  The old single run ``timeout``
  survives only as a coarse no-progress backstop.
* **Recovery** — on a confirmed death the coordinator fences the whole
  mesh (every worker SIGKILLed: under fork a survivor never sees a
  peer's EOF and would block forever), restores the newest *valid*
  committed checkpoint — torn spool files fall back to the previous
  manifest — rolls its own merge state back to that iteration barrier,
  and respawns a fresh mesh (generation + 1) that resumes at
  ``checkpoint iteration + 1``.  Because the determinism contract is
  *pair*-granular (ascending pair ids everywhere), a replayed suffix
  recomputes bit-identical records, so a recovered run equals an
  unfaulted one record for record — the same differential oracle
  judges both.  Optionally (``reassign_on_failure``) the dead worker's
  pairs instead move to the survivors, renumbered in worker order.
* **Placement** — pairs start on workers by
  :func:`.placement.round_robin`, and a reassignment moves them by
  :func:`.placement.reassign`: the simulated runtime's rules, over the
  same pair → worker list (``owner``), which :func:`_spawn_mesh` turns
  into each worker's pairs.

A worker that dies on a *deterministic exception* ships its traceback
in an error frame and is never recovered (replay would die the same
way); only process death and heartbeat suspicion trigger recovery.
Accumulative runs go through the same supervisor unarmed, so a death
there is terminal: :class:`ParallelExecutionError` naming the worker.
"""

from __future__ import annotations

import fcntl
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait as _conn_wait
from typing import Any

from ..common.errors import JobError
from .checkpoint import CheckpointError, CheckpointStore
from .engine import host_config
from .placement import reassign, round_robin
from .workerproc import (
    CKPT_REPORT,
    ERROR_REPORT,
    FINAL_REPORT,
    HEARTBEAT,
    ITER_REPORT,
    PEER_LOST_EXIT,
    VERDICT,
    conn_parts,
    decode_frame,
    encode_frame,
    worker_main,
)

__all__ = [
    "ParallelRunResult",
    "ParallelExecutionError",
    "host_mesh",
]


class ParallelExecutionError(JobError):
    """A worker process died or misbehaved; carries its traceback."""


class _WorkerDeath(Exception):
    """Internal: a worker died without a final or error report — the
    *recoverable* failure class, routed to the supervisor loop."""

    def __init__(self, wid: int, reason: str):
        super().__init__(reason)
        self.wid = wid
        self.reason = reason


def _describe_exit(code: int | None) -> str:
    if code is None:
        return "still running"
    if code == PEER_LOST_EXIT:
        return f"code {code} (peer pipe lost)"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:  # pragma: no cover - exotic signal number
            name = f"signal {-code}"
        return f"code {code} ({name})"
    return f"code {code}"


@dataclass
class ParallelRunResult:
    """Outcome of a multiprocess run — field-compatible with
    :class:`~repro.imapreduce.localrun.LocalRunResult` plus backend
    observability (worker stats, wall time, recovery events)."""

    state: list[tuple[Any, Any]]
    iterations_run: int
    converged: bool
    terminated_by: str
    distances: list[float | None] = field(default_factory=list)
    history: list[list[tuple[Any, Any]]] = field(default_factory=list)
    num_workers: int = 0
    num_pairs: int = 0
    wall_seconds: float = 0.0
    #: Per-worker counters: pairs hosted, static_loads (always 1 per
    #: worker — asserted by test_parallel_backend.py), records/batches
    #: shipped over the mesh, bytes pickled, checkpoint writes/bytes,
    #: and the phase-level profiler's ``phase_seconds`` breakdown.
    worker_stats: list[dict] = field(default_factory=list)
    #: Iterations with a committed (restorable) checkpoint manifest.
    checkpoints: list[int] = field(default_factory=list)
    #: Number of mesh respawns after confirmed worker deaths.
    recoveries: int = 0
    #: One dict per recovery: generation, dead worker, reason, restored
    #: checkpoint iteration, the newer manifests it was preferred to
    #: (``rejected_manifests``: ``(iteration, reason)``, empty unless a
    #: committed checkpoint failed validation), resume point, and mode.
    recovery_events: list[dict] = field(default_factory=list)
    #: Coordinator-side checkpoint cost: seconds spent committing
    #: manifests (snapshot pickling rides the merge and is counted
    #: there).  Together with the workers' ``checkpoint`` phase this is
    #: the run's whole directly-attributed checkpoint bill — what
    #: test_parallel_recovery.py holds under 5 % of ``wall_seconds``.
    commit_seconds: float = 0.0

    def state_dict(self) -> dict:
        return dict(self.state)

    @property
    def static_loads(self) -> int:
        """Total static-partition deserializations across the run."""
        return sum(s.get("static_loads", 0) for s in self.worker_stats)

    def counter(self, name: str) -> int:
        """Sum one mesh counter (``records_sent``, ``batches_sent``,
        ``manifest_frames``, ``bytes_pickled``, ``ckpt_writes``,
        ``ckpt_bytes``) across workers."""
        return sum(s.get(name, 0) for s in self.worker_stats)

    def phase_breakdown(self) -> dict[str, float]:
        """Aggregate the per-worker profiler into one wall-time dict."""
        totals: dict[str, float] = {}
        for stats in self.worker_stats:
            for phase, seconds in stats.get("phase_seconds", {}).items():
                totals[phase] = round(totals.get(phase, 0.0) + seconds, 6)
        return totals


def _pick_workers(num_workers: int | None, num_pairs: int) -> int:
    if num_workers is None:
        # The CPUs this process may run on, not the host's: a process
        # pinned (taskset, cgroup cpuset) to 2 CPUs of a 64-CPU host
        # should spawn 2 workers.
        if hasattr(os, "sched_getaffinity"):
            num_workers = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            num_workers = os.cpu_count() or 1
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    return min(num_workers, num_pairs)


#: Capacity asked for each worker→worker pipe (Linux's unprivileged
#: ceiling).  At the default 64 KiB a feeder's write of one step's
#: batch — hundreds of KB of column buffers — is a lock-step ping-pong
#: with the reading worker, so a step's cost depends on how the two are
#: scheduled against each other; a pipe that holds the whole batch takes
#: it in one pass, whenever the reader gets to it.
_MESH_PIPE_BYTES = 1 << 20


def _mesh_pipe(ctx):
    """A one-way pipe for the data plane, widened where the OS allows
    (best effort: refused or unknown, the default capacity stands)."""
    recv_end, send_end = ctx.Pipe(duplex=False)
    try:
        fcntl.fcntl(send_end.fileno(), fcntl.F_SETPIPE_SZ, _MESH_PIPE_BYTES)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux / over quota
        pass
    return recv_end, send_end


def _context(start_method: str | None):
    try:
        return multiprocessing.get_context(start_method or "fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context(start_method)


def host_mesh(job, executor, policy, state_parts, static_parts, plan, fields, *,
              max_recoveries: int = 2, reassign_on_failure: bool = False):
    """The mesh host: one supervisor for both algebras.

    Spawns one generation of ``plan.num_workers`` workers (default one
    per CPU this process may run on, at most one per pair), each running
    the pair ``executor`` class it is handed, folds their
    reports through ``policy`` in :func:`_coordinate`, and on a confirmed
    worker death fences the generation, then restores and respawns (the
    module docstring's recovery, through ``executor.restore``) — or raises
    :class:`ParallelExecutionError` when recovery is unarmed or its
    ``max_recoveries`` budget is spent.  The last generation is shut
    down (or fenced) however the run ends.  ``plan.checkpoint_every`` or
    ``plan.faults`` arms recovery; nothing arms it for an accumulative
    job, whose fault-tolerant cells the plan table refuses.  ``fields``
    are the algebra's extra :class:`~repro.imapreduce.engine.WorkerConfig`
    fields.

    Returns the workers' final reports, in worker order, and the mesh's
    result fields (workers, checkpoints, commit seconds, recoveries).
    """
    num_pairs = plan.num_pairs
    checkpoint_every, spool_dir = plan.checkpoint_every, plan.spool_dir
    faults = tuple(plan.faults or ())
    recovery_armed = bool(faults) or checkpoint_every is not None
    num_workers = _pick_workers(plan.num_workers, num_pairs)
    owner = round_robin(num_pairs, range(num_workers))  # pair → worker index

    own_spool = False
    store: CheckpointStore | None = None
    if checkpoint_every is not None:
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="imr-spool-")
            own_spool = True
        store = CheckpointStore(spool_dir)

    commits = _Commits()
    recovery_events: list[dict] = []
    start_iteration = 0
    restored: dict[int, Any] | None = None
    mesh: _Mesh | None = None
    ok = False
    try:
        while True:
            mesh = _spawn_mesh(
                _context(plan.start_method),
                owner,
                state_parts if restored is None else restored,
                static_parts,
                executor=executor,
                timeout=plan.timeout,
                heartbeat_interval=plan.heartbeat_interval,
                suspicion_timeout=plan.suspicion_timeout,
                faults=faults,
                job=job,
                num_pairs=num_pairs,
                generation=len(recovery_events),
                start_iteration=start_iteration,
                send_state=policy.send_state,
                wait_verdict=policy.wait_verdict,
                checkpoint_every=checkpoint_every,
                spool_dir=spool_dir,
                **fields,
            )
            try:
                finals = _coordinate(mesh, policy, store, checkpoint_every, commits)
                ok = True
                break
            except _WorkerDeath as death:
                death_at = time.perf_counter()
                _fence(mesh)
                mesh = None
                if not recovery_armed:
                    raise ParallelExecutionError(death.reason) from None
                if len(recovery_events) >= max_recoveries:
                    raise ParallelExecutionError(
                        f"{death.reason}; recovery budget exhausted after "
                        f"{len(recovery_events)} recoveries"
                    ) from None
                restore, rejected = _load_restore(store, num_pairs, executor, state_parts)
                start_iteration, restored = (0, None) if restore is None else (
                    restore[0] + 1, restore[1])
                mode = "respawn"
                if reassign_on_failure and num_workers > 1:
                    # The survivors, renumbered in worker order, take
                    # the dead worker's pairs.
                    alive = [w for w in range(num_workers) if w != death.wid]
                    survivor = {w: i for i, w in enumerate(alive)}
                    owner = [survivor[w] for w in reassign(owner, alive)]
                    num_workers -= 1
                    mode = "reassign"
                policy.rollback(start_iteration)
                recovery_events.append(
                    {
                        "generation": len(recovery_events) + 1,
                        "dead_worker": death.wid,
                        "reason": death.reason,
                        "restored_checkpoint": None if restore is None else restore[0],
                        "rejected_manifests": rejected,
                        "resume_from": start_iteration,
                        "mode": mode,
                        "fence_seconds": round(time.perf_counter() - death_at, 6),
                    }
                )
    finally:
        if mesh is not None:
            if ok:
                _shutdown(mesh)
            else:
                _fence(mesh)
        if own_spool and spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)

    return finals, dict(
        num_workers=num_workers,
        checkpoints=sorted(set(commits.iterations)),
        commit_seconds=round(commits.seconds, 6),
        recoveries=len(recovery_events),
        recovery_events=recovery_events,
    )


# ---------------------------------------------------------------- mesh --
@dataclass
class _Mesh:
    """One generation of worker processes and the coordinator's pipes."""

    generation: int
    procs: list
    report_conns: dict[int, Any]
    verdict_conns: list
    conns: list  # every coordinator-side connection, for cleanup
    timeout: float | None
    #: Heartbeat-silence window after which a worker is declared dead.
    suspicion: float | None


@dataclass
class _Commits:
    """Committed checkpoint iterations and the seconds spent committing."""

    iterations: list[int] = field(default_factory=list)
    seconds: float = 0.0


def _spawn_mesh(
    ctx,
    owner: list[int],
    state_parts,
    static_parts: list[list[dict]],
    *,
    executor,
    timeout: float | None,
    heartbeat_interval: float | None,
    suspicion_timeout: float | None,
    faults: tuple = (),
    generation: int = 0,
    **shared,
) -> _Mesh:
    """Wire the pipes, start one worker per worker index in ``owner``
    (pair → worker), each hosting its pairs.  ``state_parts`` is
    indexable by pair (the partitioned input, or a restored
    checkpoint); every worker runs the pair ``executor`` class;
    ``shared`` are the :class:`WorkerConfig` fields every worker gets
    alike."""
    # The job alone takes an explicit pickle round trip (bytes, not the
    # tables), first: every start method runs the job a spawned worker
    # would, and an unpicklable one fails here, before any pipe or
    # process exists.
    shared["job"] = pickle.loads(
        pickle.dumps(shared["job"], protocol=pickle.HIGHEST_PROTOCOL)
    )
    num_workers = max(owner) + 1
    hosted: list[list[int]] = [[] for _ in range(num_workers)]
    for p, w in enumerate(owner):
        hosted[w].append(p)

    # ---- wire the pipe mesh: one pipe per ordered worker pair, plus a
    # verdict pipe to and a report pipe from every worker ----
    peer_recv: list[dict[int, Any]] = [{} for _ in range(num_workers)]
    peer_send: list[dict[int, Any]] = [{} for _ in range(num_workers)]
    for src in range(num_workers):
        for dst in range(num_workers):
            if src == dst:
                continue
            recv_end, send_end = _mesh_pipe(ctx)
            peer_recv[dst][src] = recv_end
            peer_send[src][dst] = send_end
    verdict_pipes = [ctx.Pipe(duplex=False) for _ in range(num_workers)]
    report_pipes = [ctx.Pipe(duplex=False) for _ in range(num_workers)]

    worker_ends = [
        *(conn for ends in peer_recv for conn in ends.values()),
        *(conn for ends in peer_send for conn in ends.values()),
        *(recv for recv, _ in verdict_pipes),
        *(send for _, send in report_pipes),
    ]
    verdict_conns = [send for _, send in verdict_pipes]
    report_conns = {w: recv for w, (recv, _) in enumerate(report_pipes)}
    mesh = _Mesh(
        generation=generation,
        procs=[],
        report_conns=report_conns,
        verdict_conns=verdict_conns,
        conns=[*verdict_conns, *report_conns.values()],
        timeout=timeout,
        suspicion=suspicion_timeout if heartbeat_interval is not None else None,
    )

    # Each worker gets its config as an *object*: a forked worker reads
    # the coordinator's partitioned tables through copy-on-write pages,
    # and under spawn/forkserver ``start()`` pickles the arguments
    # itself, as it does the pipes — an unpicklable input raises there,
    # in the coordinator, and whatever had started is fenced.
    suffix = "" if generation == 0 else f"-g{generation}"
    try:
        for w in range(num_workers):
            cfg = host_config(
                w,
                hosted[w],
                state_parts,
                static_parts,
                num_workers=num_workers,
                owner_of=owner,
                generation=generation,
                faults=tuple(f for f in faults if f.worker == w),
                **shared,
            )
            proc = ctx.Process(
                target=worker_main,
                args=(
                    cfg,
                    executor,
                    peer_recv[w],
                    peer_send[w],
                    verdict_pipes[w][0],
                    report_pipes[w][1],
                    timeout,
                    heartbeat_interval,
                ),
                name=f"imr-worker-{w}{suffix}",
                daemon=True,
            )
            proc.start()
            mesh.procs.append(proc)
    except BaseException:
        _fence(mesh)
        raise
    finally:
        # The coordinator only ever writes verdicts and reads reports;
        # its copies of the workers' pipe ends go as soon as start() has
        # shipped them (under fork and spawn alike).
        _close_all(worker_ends)
    return mesh


def _load_restore(
    store: CheckpointStore | None, num_pairs: int, executor, state_parts=None
) -> tuple[tuple[int, dict[int, Any]] | None, list[tuple[int, str]]]:
    """Newest *valid* committed checkpoint as ``(iteration, pair →
    state)`` — restored by ``executor`` into its layout over the initial
    ``state_parts``, ``None`` when there is none — and the newer
    manifests it was preferred to, as ``(iteration, reason)``: a torn
    manifest, or one another layout wrote, falls back to an older one,
    and says so."""
    rejected: list[tuple[int, str]] = []
    if store is None:
        return None, rejected
    for manifest in store.manifests():
        try:
            pairs: dict[int, Any] = {}
            for entry in manifest["entries"]:
                pairs.update(executor.restore(store.read_payload(entry), state_parts))
            if set(pairs) != set(range(num_pairs)):
                raise CheckpointError(
                    f"manifest i{manifest['iteration']} covers pairs "
                    f"{sorted(pairs)} of {num_pairs}"
                )
            return (manifest["iteration"], pairs), rejected
        except CheckpointError as exc:
            rejected.append((manifest["iteration"], str(exc)))
    return None, rejected


def _fence(mesh: _Mesh) -> None:
    """Hard-stop a generation: SIGKILL every worker (a SIGSTOPped one
    cannot run cleanup anyway), reap, and drop the pipes — each reaped
    worker's sentinel too, now rather than when its ``Process`` object
    is collected (a raised error's traceback can hold that a while)."""
    for proc in mesh.procs:
        if proc.is_alive():
            proc.kill()
    for proc in mesh.procs:
        proc.join(timeout=5.0)
        if proc.exitcode is not None:
            proc.close()
    _close_all(mesh.conns)


def _shutdown(mesh: _Mesh) -> None:
    """Reap workers that finished, terminate the rest, then fence — so
    pipe resources are released without ever hanging."""
    for proc in mesh.procs:
        proc.join(timeout=5.0)
    for proc in mesh.procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    _fence(mesh)


def _close_all(conns) -> None:
    for conn in conns:
        try:
            conn.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


# ---------------------------------------------------------- coordinator --
class _TornFrame(Exception):
    """A frame's writer died between its parts; the rest never comes."""


def _poll_frame(conn):
    """Read one frame from a *dead* worker's pipe without ever blocking;
    ``None`` when no complete frame is left.

    A SIGKILL can land between a frame's parts; under fork the write end
    stays open in sibling processes, so a blocking ``recv_bytes`` on the
    missing part would hang forever.  The writer being dead means no
    further part can arrive, so "part not immediately readable" is
    definitive: the frame is torn and discarded.
    """

    def ready() -> None:
        if not conn.poll(0):
            raise _TornFrame()

    try:
        return decode_frame(conn_parts(conn, ready))
    except _TornFrame:
        return None


class _CoordinatorInbox:
    """Readiness-based coordinator receive with liveness supervision.

    One :func:`multiprocessing.connection.wait` call covers every live
    worker's report pipe *and* its process sentinel.  A frame wakes the
    coordinator immediately; a death wakes it just as fast, and any dead
    worker whose pipe holds no final report — a clean ``exit(0)``
    included — raises :class:`_WorkerDeath` instead of stalling until
    the run timeout: once every frame already sent is read, the live
    workers' included (one of them may be the checkpoint receipt that
    commits what the recovery restores).  Heartbeat frames refresh the
    per-worker ``last_seen`` clock and are swallowed; a worker quiet for
    longer than ``suspicion`` (possible only for a frozen process — a
    dead one trips its sentinel first) raises :class:`_WorkerDeath` too.
    """

    def __init__(
        self,
        report_conns: dict[int, Any],
        procs: list,
        *,
        suspicion: float | None = None,
    ):
        self._conns = dict(report_conns)
        self._wid_of = {conn: w for w, conn in report_conns.items()}
        self._procs = dict(enumerate(procs))
        self._dead: dict[int, Any] = {}  # died before their final arrived
        self._frames: deque = deque()
        self._suspicion = suspicion
        now = time.monotonic()
        self._last_seen = {w: now for w in report_conns}

    def _await_part(self, conn, wid: int) -> None:
        """Wait for the next part of a frame.  A live writer delivers it
        promptly (parts are consecutive ``send_bytes`` on one pipe; the
        header's readiness was established by ``wait()``); a writer
        SIGKILLed mid-frame never will — and under fork the pipe shows
        no EOF either, so liveness, not the pipe, is the stop
        condition.  A SIGSTOPped writer is alive but silent: past the
        suspicion window since its last whole frame it is dead too."""
        while not conn.poll(0.05):
            proc = self._procs.get(wid)
            if proc is None or not proc.is_alive():
                raise _TornFrame()
            quiet = time.monotonic() - self._last_seen[wid]
            if self._suspicion is not None and quiet > self._suspicion:
                raise _WorkerDeath(wid, f"worker {proc.name} stalled mid-frame for "
                                        f"{quiet:.1f}s (suspicion timeout {self._suspicion:.1f}s)")

    def mark_final(self, wid: int) -> None:
        """A worker's final report arrived: stop supervising it."""
        conn = self._conns.pop(wid, None)
        if conn is not None:
            self._wid_of.pop(conn, None)
        self._procs.pop(wid, None)
        self._dead.pop(wid, None)
        self._last_seen.pop(wid, None)

    def _drain(self, wid: int) -> None:
        """Pull every *complete* frame still buffered in a dead worker's
        pipe; a torn trailing frame (killed mid-write) is discarded."""
        conn = self._conns.pop(wid, None)
        if conn is None:
            return
        self._wid_of.pop(conn, None)
        while True:
            try:
                frame = _poll_frame(conn)
            except (EOFError, OSError):
                break
            if frame is None:
                break
            if frame[0] != HEARTBEAT:
                self._frames.append(frame)

    def recv(self, timeout: float | None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._frames:
                return self._frames.popleft()
            for wid, proc in list(self._procs.items()):
                if not proc.is_alive():
                    # Pull any frames still buffered in the pipe — the
                    # final report may simply not have been read yet.
                    self._drain(wid)
                    self._procs.pop(wid, None)
                    self._dead[wid] = proc
            if self._dead:  # frames before deaths: read what live pipes hold
                while ready := _conn_wait(list(self._conns.values()), 0):
                    self._file(ready)
            if self._frames:
                return self._frames.popleft()
            if self._dead:
                wid, proc = next(iter(self._dead.items()))
                raise _WorkerDeath(
                    wid,
                    f"worker {proc.name} exited "
                    f"({_describe_exit(proc.exitcode)}) without a final report",
                )
            now = time.monotonic()
            wait_for = None if deadline is None else deadline - now
            if wait_for is not None and wait_for <= 0:
                raise ParallelExecutionError(
                    f"no worker message within {timeout:.0f}s"
                )
            if self._suspicion is not None and self._procs:
                for wid in self._procs:
                    quiet = now - self._last_seen.get(wid, now)
                    if quiet > self._suspicion:
                        raise _WorkerDeath(
                            wid,
                            f"worker {self._procs[wid].name} sent no heartbeat "
                            f"for {quiet:.1f}s (suspicion timeout "
                            f"{self._suspicion:.1f}s)",
                        )
                next_suspect = (
                    min(self._last_seen[w] for w in self._procs)
                    + self._suspicion
                    - now
                )
                next_suspect = max(next_suspect, 0.01)
                wait_for = (
                    next_suspect if wait_for is None else min(wait_for, next_suspect)
                )
            waitables = list(self._conns.values())
            waitables += [p.sentinel for p in self._procs.values()]
            if not waitables:
                raise ParallelExecutionError(
                    "all workers gone before the run completed"
                )
            self._file(_conn_wait(waitables, wait_for))

    def _file(self, ready) -> None:
        """Read one frame from each ready report pipe into the queue;
        heartbeats only refresh their worker's clock."""
        for obj in ready:
            wid = self._wid_of.get(obj)
            if wid is None:
                continue  # a sentinel: handled at the top of recv's loop
            try:
                frame = decode_frame(conn_parts(obj, partial(self._await_part, obj, wid)))
            except _TornFrame:
                # Died mid-write: discard the pipe (its remaining bytes
                # are unframed garbage); the sentinel check at the top of
                # recv's loop reports the death itself.
                self._conns.pop(wid, None)
                self._wid_of.pop(obj, None)
                continue
            except (EOFError, OSError):
                self._drain(wid)
                continue
            self._last_seen[wid] = time.monotonic()
            if frame[0] != HEARTBEAT:
                self._frames.append(frame)


def _coordinate(
    mesh: _Mesh,
    policy,
    store: CheckpointStore | None = None,
    checkpoint_every: int | None = None,
    commits: _Commits | None = None,
) -> list[dict]:
    """The coordinator's frame loop, one for both algebras: fold every
    step's ITER_REPORT frames through the verdict ``policy`` the moment
    all workers' reports are in (eagerly and in order, which keeps
    ``policy.merged_through`` the single source of truth for verdicts,
    snapshots and commits), broadcast the verdict when workers wait for
    one, commit checkpoints, and collect the final reports — returned in
    worker order."""
    num_workers = len(mesh.procs)
    finals: dict[int, dict] = {}
    pending: dict[int, dict[int, dict]] = {}
    ckpt_pending: dict[int, dict[int, dict]] = {}
    inbox = _CoordinatorInbox(mesh.report_conns, mesh.procs, suspicion=mesh.suspicion)

    def maybe_commit() -> None:
        """Publish manifests whose spool files all arrived *and* whose
        iteration the merge frontier has passed (the snapshot exists)."""
        if store is None:
            return
        for iteration in sorted(ckpt_pending):
            entries = ckpt_pending[iteration]
            if len(entries) < num_workers:
                continue
            if policy.streams and policy.merged_through <= iteration:
                continue
            commit_started = time.perf_counter()
            store.commit(
                iteration,
                mesh.generation,
                [entries[w] for w in sorted(entries)],
            )
            commits.seconds += time.perf_counter() - commit_started
            if iteration not in commits.iterations:
                commits.iterations.append(iteration)
            del ckpt_pending[iteration]

    while len(finals) < num_workers:
        kind, index, _phase, wid, payload, _nbytes = inbox.recv(mesh.timeout)
        if kind == ERROR_REPORT:
            # A deterministic worker exception: recovery would replay
            # straight into the same crash, so this is terminal.
            raise ParallelExecutionError(f"worker {wid} failed:\n{payload}")
        if kind == FINAL_REPORT:
            finals[wid] = payload
            inbox.mark_final(wid)
        elif kind == ITER_REPORT:
            pending.setdefault(index, {})[wid] = payload
            while len(pending.get(policy.merged_through, ())) == num_workers:
                merged = policy.merged_through
                verdict = policy.fold(pending.pop(merged))
                if store is not None and (merged + 1) % checkpoint_every == 0:
                    policy.snapshot(merged)
                if policy.wait_verdict:
                    parts, _ = encode_frame(VERDICT, merged, 0, -1, verdict)
                    for conn in mesh.verdict_conns:
                        try:
                            for part in parts:
                                conn.send_bytes(part)
                        except OSError:  # a dead worker: the next recv reports it
                            pass
            maybe_commit()
        elif kind == CKPT_REPORT:
            ckpt_pending.setdefault(index, {})[wid] = payload
            maybe_commit()
        else:
            raise ParallelExecutionError(f"unexpected message kind {kind!r}")

    if len({f["iterations_run"] for f in finals.values()}) > 1:
        raise ParallelExecutionError(
            "workers disagree on the step count: "
            f"{sorted((w, f['iterations_run']) for w, f in finals.items())}"
        )
    return [finals[w] for w in sorted(finals)]

