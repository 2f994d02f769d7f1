"""The coordinator inbox reads every frame already sent before it
reports a worker death.

A dead worker's own pipe is drained when its death is seen; a *live*
worker's pipe can hold frames too — the checkpoint receipt that commits
the manifest a recovery restores, say.  ``_CoordinatorInbox.recv`` must
hand those over first and raise :class:`_WorkerDeath` only once nothing
is left to read.  No process is spawned: the report pipes are real
``multiprocessing.Pipe`` pairs, the workers stub process objects whose
sentinels are the read ends of pipes nobody writes, and a SIGALRM guard
turns a blocked ``recv`` into a failure.
"""

import signal
from multiprocessing import Pipe

import pytest

from repro.imapreduce.parallel import _CoordinatorInbox, _WorkerDeath
from repro.imapreduce.workerproc import CKPT_REPORT, HEARTBEAT, ITER_REPORT, encode_frame


class _Proc:
    """What the inbox reads off a worker process."""

    def __init__(self, name: str, alive: bool, exitcode=None):
        self.name, self.alive, self.exitcode = name, alive, exitcode
        self._sentinel, self._never_written = Pipe(duplex=False)
        self.sentinel = self._sentinel.fileno()

    def is_alive(self) -> bool:
        return self.alive

    def close(self) -> None:
        self._sentinel.close()
        self._never_written.close()


@pytest.fixture
def alarm():
    def blocked(*_):
        raise TimeoutError("the inbox blocked")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def mesh():
    """Two report pipes and two workers: worker 0 dead (SIGKILL), worker
    1 alive.  Yields ``(inbox, send)``; ``send(wid, kind, index,
    payload)`` writes one frame into that worker's report pipe."""
    pipes = [Pipe(duplex=False) for _ in range(2)]
    procs = [_Proc("imr-worker-0", alive=False, exitcode=-9),
             _Proc("imr-worker-1", alive=True)]

    def send(wid, kind, index, payload):
        parts, _ = encode_frame(kind, index, 0, wid, payload)
        for part in parts:
            pipes[wid][1].send_bytes(part)

    inbox = _CoordinatorInbox({w: recv for w, (recv, _send) in enumerate(pipes)}, procs,
                              suspicion=None)
    yield inbox, send
    for recv, send_end in pipes:
        recv.close()
        send_end.close()
    for proc in procs:
        proc.close()


def test_a_live_workers_checkpoint_receipt_comes_out_before_the_death(alarm, mesh):
    inbox, send = mesh
    entry = {"file": "g0-i000003-w001.spool", "bytes": 128}
    send(1, HEARTBEAT, 0, 0)  # swallowed on the way
    send(1, CKPT_REPORT, 3, entry)
    kind, index, _phase, wid, payload, _nbytes = inbox.recv(timeout=2.0)
    assert (kind, index, wid, payload) == (CKPT_REPORT, 3, 1, entry)
    with pytest.raises(_WorkerDeath) as death:
        inbox.recv(timeout=2.0)
    assert death.value.wid == 0
    assert "imr-worker-0 exited (code -9 (SIGKILL)) without a final report" in death.value.reason


def test_the_dead_workers_own_frames_come_first_then_the_live_ones(alarm, mesh):
    inbox, send = mesh
    send(0, ITER_REPORT, 4, {"mass": {}})
    send(1, ITER_REPORT, 4, {"mass": {}})
    send(1, CKPT_REPORT, 4, {"file": "f"})
    got = [inbox.recv(timeout=2.0)[:4] for _ in range(3)]
    assert got == [(ITER_REPORT, 4, 0, 0), (ITER_REPORT, 4, 0, 1), (CKPT_REPORT, 4, 0, 1)]
    with pytest.raises(_WorkerDeath):
        inbox.recv(timeout=2.0)
