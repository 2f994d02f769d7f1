"""Worker-process side of the real multiprocess backend: the frame
protocol and the pipe-mesh transport.

One :func:`worker_main` process hosts a *set* of persistent map/reduce
task pairs for the whole job (§3.1: tasks are assigned once and live
for every iteration).  The static-data partitions for its pairs arrive
with the process — inherited from the coordinator under ``fork``,
pickled once by ``multiprocessing`` itself under ``spawn`` — and stay
resident; only state batches cross process boundaries afterwards
(§3.2's static/state separation).
The loop it runs is the shared superstep driver
(:func:`~repro.imapreduce.engine.run_supersteps`) with the pair
executor :func:`~repro.imapreduce.localrun.select_executor` picks; this
module contributes the transport (:class:`_PipeMesh`), which moves the
executor's routed batches and knows nothing about what they hold.

Data plane
----------

The mesh is a set of point-to-point OS pipes — one
:class:`multiprocessing.connection.Connection` per ordered worker pair —
plus a verdict pipe from and a report pipe to the coordinator.  On the
wire every logical message is a *frame*:

* a small pickled header ``(kind, iteration, phase, src, buf_sizes)``;
* for data frames, one payload pickle (protocol 5) whose array leaves
  (numpy state: centroids, coordinate vectors, a record's id/count
  columns) are split out by ``buffer_callback`` and never copied into
  the pickle stream;
* all of those buffers as *one* contiguous region — so a frame is at
  most three pipe messages however many arrays it holds, and what the
  boundary charges is per byte, not per object.  The receiver reads the
  region with one ``recv_bytes_into`` a fresh ``bytearray`` and rebuilds
  the arrays over writable ``memoryview`` slices of it
  (:func:`decode_frame`, the one decoder of the wire and the spool);
* header-only *manifest* frames (``buf_sizes is None``) replace the
  empty batches the dense protocol used to pickle and ship to every
  peer on every phase: a sender that feeds a destination ships data, a
  sender that does not ships the 60-byte manifest, and receivers count
  arrivals (data or manifest) against the peer set instead of timing
  out.  ``batches_sent`` counts only data frames.

Shuffle payloads are a flat list of the executor's wire items
``(dest_pair, src_pair, *columns)`` — ``keys, values`` lists for the
record layouts, ``keys | None, values`` arrays for the columnar ones —
one pickle per destination worker.  The values column is last in every layout and
``records_sent`` counts its length: the (key, value) contributions
shipped, whether or not their keys ride along.

The one2all broadcast (§5.1) is hoisted: every worker sends its state
parts to pair-0's owner, which flattens in ascending pair order, sorts
*once*, and ships the sorted broadcast back — ``2(W-1)`` messages and
one sort per iteration instead of ``W(W-1)`` messages and ``W`` sorts.

All sends go through a per-worker feeder thread, so the main thread
never blocks on a full pipe (two workers exchanging batches larger than
the pipe buffer would otherwise deadlock); serialization stays on the
main thread so the profiler can attribute it.

Control plane: per-iteration distance partials and state snapshots
(only when the job measures a distance, runs an aux phase, or keeps
history), and the final state.  Jobs that terminate by ``maxiter``
alone free-run: workers cross zero synchronization points per
iteration beyond the data mesh itself.

Profiler: every worker accumulates wall-time per phase of its loop
(:data:`~repro.imapreduce.engine.PHASE_COUNTERS`; this module owns
``serialize, deserialize, send, wait, verdict``) into
``stats["phase_seconds"]``, summed over workers by
``ParallelRunResult.phase_breakdown()``.

Fault tolerance (§3.4): when the coordinator arms checkpointing, each
worker spools its pair states to disk every ``checkpoint_every``
iterations through :class:`~repro.imapreduce.checkpoint.CheckpointStore`
and reports the file receipt; a heartbeat thread multiplexes liveness
beacons onto the report pipe so a SIGSTOPped (not just dead) worker is
detectable.  Respawned workers start at ``cfg.start_iteration`` from
restored state — see :mod:`.parallel` for the recovery protocol.

Determinism contract: every step processes pairs in ascending pair id
and hands incoming batches to the executor in ascending source-pair
order (:func:`~repro.imapreduce.engine.by_dest`, shared with the
loopback transport), so reduce value lists — and therefore every float
fold — are ordered exactly as
:func:`~repro.imapreduce.plan.run_local` orders them.  The
differential oracle can demand record-for-record equality.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any

from .engine import (
    MESH_COUNTERS,
    PHASE_COUNTERS,
    SHUFFLE,
    WorkerConfig,
    by_dest,
    run_supersteps,
)
from .localrun import select_executor

__all__ = [
    "WorkerConfig",
    "worker_main",
    "encode_frame",
    "decode_frame",
    "conn_parts",
    "read_frame",
    "PHASE_COUNTERS",
    "SHUFFLE",
    "PEER_LOST_EXIT",
]

#: Control-plane message kinds (worker → coordinator).
ITER_REPORT = "iter"
FINAL_REPORT = "final"
ERROR_REPORT = "error"
#: Liveness beacon (worker → coordinator, header-only, off the stats).
HEARTBEAT = "hb"
#: Checkpoint spool-file receipt (worker → coordinator).
CKPT_REPORT = "ckpt"
#: Coordinator → worker.
VERDICT = "verdict"
#: Worker ↔ worker data-plane kinds, beside the driver's ``SHUFFLE``
#: and ``REPART`` exchanges.
BCAST = "bcast"
BCAST_SORTED = "bcast+"

#: Wire pickle protocol: 5 for out-of-band buffer support.
_PROTOCOL = 5

#: Exit code for a worker that lost a peer or coordinator pipe (EOF /
#: EPIPE under the spawn start method when a sibling dies).  It is a
#: *quiet* exit — no error frame — because the root cause is the peer's
#: death, which the coordinator detects and recovers on its own.
PEER_LOST_EXIT = 3

#: Sender-side marker for a header-only manifest frame (never pickled).
_NO_PAYLOAD = object()


# ------------------------------------------------------------- framing --
def encode_frame(kind, iteration: int, phase: int, src: int, payload):
    """Build one wire frame; returns ``(parts, nbytes)``.

    ``parts`` is the list of byte-likes to ship with consecutive
    ``send_bytes`` calls on one connection — at most three, however many
    arrays the payload holds: header, then (for data frames) the payload
    pickle, then the out-of-band buffers as one contiguous *region* (a
    lone buffer is written directly from its source memory; several are
    joined once).  The header lists every buffer's size, so the receiver
    can slice the region apart again.
    """
    if payload is _NO_PAYLOAD:
        header = pickle.dumps(
            (kind, iteration, phase, src, None), protocol=_PROTOCOL
        )
        return [header], len(header)
    buffers: list = []
    data = pickle.dumps(payload, protocol=_PROTOCOL, buffer_callback=buffers.append)
    try:
        raws = [b.raw() for b in buffers]
    except BufferError:  # pragma: no cover - non-contiguous exotic buffer
        data = pickle.dumps(payload, protocol=_PROTOCOL)
        raws = []
    sizes = tuple(r.nbytes for r in raws)
    header = pickle.dumps(
        (kind, iteration, phase, src, sizes), protocol=_PROTOCOL
    )
    nbytes = len(header) + len(data) + sum(sizes)
    if len(raws) > 1:
        raws = [b"".join(raws)]
    return [header, data, *raws], nbytes


def decode_frame(take):
    """Decode one frame — the only place a frame body is unpickled, on
    the wire and in the spool alike; returns ``(kind, iteration, phase,
    src, payload, nbytes)``, ``payload is None`` for a header-only
    manifest frame.

    ``take(size)`` obtains the frame's next part and is all a caller
    chooses (block, poll and give up, poll until the writer is dead,
    slice a spool file): ``take(None)`` returns a byte-like (header,
    payload pickle); ``take(n)`` returns the ``n``-byte buffer region in
    *fresh writable* storage.  The out-of-band arrays are rebuilt over
    writable ``memoryview`` slices of that one region — no copy, and
    writing one array never touches a neighbour.

    Retention rule: the arrays decoded from one frame share its region,
    so keeping one of them alive keeps the whole region alive.  A
    kernel or reducer that wants to keep one received array copies it.
    """
    header = take(None)
    kind, iteration, phase, src, sizes = pickle.loads(header)
    if sizes is None:
        return kind, iteration, phase, src, None, len(header)
    data = take(None)
    nbytes = len(header) + len(data)
    buffers = None
    if sizes:
        total = sum(sizes)
        region = memoryview(take(total))
        if len(region) != total:
            raise ValueError(
                f"frame region is {len(region)} bytes, its header promises {total}"
            )
        nbytes += total
        buffers, offset = [], 0
        for size in sizes:
            buffers.append(region[offset:offset + size])
            offset += size
    payload = pickle.loads(data, buffers=buffers)
    return kind, iteration, phase, src, payload, nbytes


def conn_parts(conn, ready=None):
    """A :func:`decode_frame` part source over a pipe: each part is one
    ``recv_bytes`` / ``recv_bytes_into``, after ``ready()`` — which
    raises to give up on a frame whose writer died — when one is given."""

    def take(size):
        if ready is not None:
            ready()
        if size is None:
            return conn.recv_bytes()
        region = bytearray(size)
        conn.recv_bytes_into(region)
        return region

    return take


def read_frame(conn):
    """Read one frame from a live peer, blocking for each part."""
    return decode_frame(conn_parts(conn))


class _Feeder(threading.Thread):
    """Per-worker sender thread: the main thread frames and enqueues,
    the feeder performs the (possibly blocking) pipe writes.

    Decoupling sends from the worker loop is what makes the pipe mesh
    deadlock-free: main threads only ever block *reading*, so some
    receiver is always draining and every blocked write eventually
    completes.  ``seconds`` accumulates actual write wall-time for the
    profiler's ``send`` counter (read after :meth:`flush`).
    """

    def __init__(self, worker_id: int):
        super().__init__(name=f"imr-feeder-{worker_id}", daemon=True)
        self._q: queue.Queue = queue.Queue()
        self.seconds = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                self._q.task_done()
                return
            conn, parts = item
            started = time.perf_counter()
            try:
                for part in parts:
                    conn.send_bytes(part)
            except BaseException as exc:  # surfaced on the next send/flush
                if self.error is None:
                    self.error = exc
            self.seconds += time.perf_counter() - started
            self._q.task_done()

    def send(self, conn, parts) -> None:
        if self.error is not None:
            raise self.error
        self._q.put((conn, parts))

    def flush(self) -> None:
        """Block until every enqueued frame hit the pipe."""
        self._q.join()
        if self.error is not None:
            raise self.error

    def stop(self) -> None:
        self._q.put(None)
        self.join(timeout=10.0)


class _Heartbeat(threading.Thread):
    """Liveness beacon: one header-only frame onto the report pipe every
    ``interval`` seconds, routed through the feeder so beacon writes can
    never interleave with (and corrupt) a data frame mid-parts.

    Runs through SIGSTOP detection's *negative* space: a stopped process
    freezes this thread with everything else, the beacons cease, and the
    coordinator's suspicion timeout fires.
    """

    def __init__(self, feeder: "_Feeder", conn, worker_id: int, interval: float):
        super().__init__(name=f"imr-heartbeat-{worker_id}", daemon=True)
        self._feeder = feeder
        self._conn = conn
        self._interval = interval
        self._parts, _ = encode_frame(HEARTBEAT, 0, 0, worker_id, _NO_PAYLOAD)
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._feeder.send(self._conn, self._parts)
            except BaseException:
                return  # pipe gone: the main thread is already failing

    def stop(self) -> None:
        self._halt.set()


class _Inbox:
    """Readiness-based receive with out-of-order stashing.

    Blocks in :func:`multiprocessing.connection.wait` over every inbound
    connection (peer mesh pipes + the coordinator's verdict pipe), so a
    ready message costs microseconds, not a poll interval.  A fast
    worker may deliver its phase-``k+1`` frame while this worker still
    waits on a slow peer's phase-``k`` frame; anything not yet wanted is
    stashed under its ``(kind, iteration, phase)`` slot and found there
    when the step catches up.
    """

    def __init__(self, conns: list, timings: dict[str, float]):
        self._conns = list(conns)
        self._timings = timings
        self._stash: dict[tuple, dict[int, Any]] = {}
        self._verdicts: dict[int, str] = {}

    def _pump(self, timeout: float | None, waiting_for: str = "wait") -> None:
        """Block until a frame is ready and file it; the blocked time is
        charged to ``waiting_for`` — ``wait`` (peer data) or ``verdict``."""
        timings = self._timings
        started = time.perf_counter()
        ready = _conn_wait(self._conns, timeout)
        timings[waiting_for] += time.perf_counter() - started
        if not ready:
            raise TimeoutError(f"no mesh message within {timeout}s")
        for conn in ready:
            started = time.perf_counter()
            kind, iteration, phase, src, payload, _ = read_frame(conn)
            timings["deserialize"] += time.perf_counter() - started
            if kind == VERDICT:
                self._verdicts[iteration] = payload
            else:
                self._stash.setdefault((kind, iteration, phase), {})[src] = payload

    def gather(
        self, kind: str, iteration: int, phase: int, sources: list[int],
        timeout: float | None,
    ) -> dict[int, Any]:
        """Block until a frame (data or manifest) from every source
        arrived; manifest senders appear with a ``None`` payload."""
        if not sources:  # single worker: nothing to wait for
            return {}
        slot = (kind, iteration, phase)
        while True:
            have = self._stash.get(slot)
            if have is not None and all(s in have for s in sources):
                return self._stash.pop(slot)
            self._pump(timeout)

    def verdict(self, iteration: int, timeout: float | None) -> str:
        while iteration not in self._verdicts:
            self._pump(timeout, "verdict")
        return self._verdicts.pop(iteration)


class _PipeMesh:
    """The pipe-mesh transport: moves routed batches between worker
    processes and reports to the coordinator, knowing nothing about
    what the batches hold beyond the wire-item layout ``(dest_pair,
    src_pair, *columns)``.  Serialization stays on the calling thread so
    the profiler can attribute it; the feeder does the pipe writes."""

    def __init__(self, cfg, peer_recv, peer_send, verdict_conn, report_conn,
                 feeder: _Feeder, timeout: float | None):
        self.wid = cfg.worker_id
        self.owner_of = cfg.owner_of
        self.peers = sorted(peer_recv)
        self.peer_send = peer_send
        self.report_conn = report_conn
        self.feeder = feeder
        self.timeout = timeout
        self.timings = dict.fromkeys(PHASE_COUNTERS, 0.0)
        self.inbox = _Inbox([*peer_recv.values(), verdict_conn], self.timings)
        self.counters = dict.fromkeys(MESH_COUNTERS, 0)

    def _ship(self, kind: str, step: int, phase: int, dest: int, payload,
              records: int = 0) -> None:
        started = time.perf_counter()
        parts, nbytes = encode_frame(kind, step, phase, self.wid, payload)
        self.timings["serialize"] += time.perf_counter() - started
        counters = self.counters
        counters["bytes_pickled"] += nbytes
        counters["manifest_frames" if payload is _NO_PAYLOAD else "batches_sent"] += 1
        counters["records_sent"] += records
        self.feeder.send(self.peer_send[dest], parts)

    def exchange(self, kind, step, phase, items) -> dict[int, list[tuple]]:
        """Skip-empty send + gather: one data frame to every worker fed
        this step, a header-only manifest to the rest."""
        routed: dict[int, list[tuple]] = {}
        for item in items:
            routed.setdefault(self.owner_of[item[0]], []).append(item)
        for v in self.peers:
            batch = routed.get(v)
            if batch:
                self._ship(
                    kind, step, phase, v, batch, sum(len(item[-1]) for item in batch)
                )
            else:
                self._ship(kind, step, phase, v, _NO_PAYLOAD)
        arrived = self.inbox.gather(kind, step, phase, self.peers, self.timeout)
        return by_dest(
            item
            for batch in (routed.get(self.wid), *arrived.values())
            for item in batch or ()
        )

    def allgather(self, step, phase, mine, assemble):
        """Hoisted one2all all-gather (§5.1): everyone sends its pairs'
        state to pair-0's owner, which assembles — flattens in ascending
        pair order and sorts *once* — and ships the result back."""
        sorter = self.owner_of[0]
        if self.wid != sorter:
            if any(len(item[1]) for item in mine):
                self._ship(
                    BCAST, step, phase, sorter, mine, sum(len(item[1]) for item in mine)
                )
            else:
                self._ship(BCAST, step, phase, sorter, _NO_PAYLOAD)
            got = self.inbox.gather(BCAST_SORTED, step, phase, [sorter], self.timeout)
            return got[sorter]
        gathered = self.inbox.gather(BCAST, step, phase, self.peers, self.timeout)
        by_pair = {item[0]: item for item in mine}
        for batch in gathered.values():
            for item in batch or ():
                by_pair[item[0]] = item
        broadcast, records = assemble([by_pair[p] for p in sorted(by_pair)])
        for v in self.peers:
            self._ship(BCAST_SORTED, step, phase, v, broadcast, records)
        return broadcast

    def report(self, index: int, report: dict) -> None:
        parts, nbytes = encode_frame(ITER_REPORT, index, 0, self.wid, report)
        self.counters["bytes_pickled"] += nbytes
        self.feeder.send(self.report_conn, parts)

    def receipt(self, index: int, entry: dict) -> None:
        """Tell the coordinator a checkpoint spool file is durable."""
        parts, _ = encode_frame(CKPT_REPORT, index, 0, self.wid, entry)
        self.feeder.send(self.report_conn, parts)

    def verdict(self, index: int) -> str:
        return self.inbox.verdict(index, self.timeout)

    def finish(self) -> None:
        self.feeder.flush()  # pick up the feeder's write time
        self.timings["send"] = self.feeder.seconds


def worker_main(
    cfg: WorkerConfig,
    peer_recv: dict[int, Any],
    peer_send: dict[int, Any],
    verdict_conn,
    report_conn,
    timeout: float | None = None,
    heartbeat_interval: float | None = None,
) -> None:
    """Process entry point: run every superstep for this worker's pairs.

    ``cfg`` arrives as an object, like the pipes.  Under ``fork`` it is
    the coordinator's own, read through copy-on-write pages: nothing was
    serialised and there is nothing to unpickle.  Under ``spawn`` /
    ``forkserver`` ``multiprocessing`` unpickled the arguments before
    calling this function, so the liveness beacon starts after that —
    the coordinator's suspicion clock covers interpreter start-up and
    the unpickle together.
    """
    worker_id = cfg.worker_id
    feeder: _Feeder | None = None
    heartbeat: _Heartbeat | None = None
    try:
        feeder = _Feeder(worker_id)
        feeder.start()
        if heartbeat_interval is not None:
            heartbeat = _Heartbeat(feeder, report_conn, worker_id, heartbeat_interval)
            heartbeat.start()
        mesh = _PipeMesh(
            cfg, peer_recv, peer_send, verdict_conn, report_conn, feeder, timeout
        )
        final = run_supersteps(cfg, select_executor(cfg.job)[0], mesh)
        parts, _ = encode_frame(FINAL_REPORT, final["iterations_run"], 0, worker_id, final)
        feeder.send(report_conn, parts)
        feeder.flush()
        if heartbeat is not None:
            heartbeat.stop()
        feeder.stop()
    except (EOFError, BrokenPipeError, ConnectionResetError):
        # A mesh or coordinator pipe hit EOF/EPIPE: a peer (or the
        # coordinator) died under us.  That death is the *peer's* story —
        # the coordinator hears it from the dead peer's own sentinel — so
        # exit quietly with a recognizable code; an error frame here
        # would turn a recoverable death into a spurious deterministic
        # failure.
        raise SystemExit(PEER_LOST_EXIT)
    except BaseException:
        parts, _ = encode_frame(ERROR_REPORT, 0, 0, worker_id, traceback.format_exc())
        try:
            if feeder is not None and feeder.is_alive() and feeder.error is None:
                feeder.send(report_conn, parts)
                feeder.stop()
            else:
                for part in parts:
                    report_conn.send_bytes(part)
        except Exception:  # pragma: no cover - coordinator gone; sentinel
            pass  # detection still reports the death
