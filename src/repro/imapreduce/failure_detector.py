"""Master-side heartbeat failure detection.

The paper's master simply *knows* when a worker dies; our runtime
originally inherited that omniscience by translating a task's
``WorkerFailure`` interrupt straight into a master message.  This module
replaces fiat with observation: every worker runs a tiny heartbeat
daemon, the master tracks arrival times, and a worker is *suspected*
after ``timeout`` seconds of silence and *confirmed* failed only after
``suspicion_checks`` consecutive silent monitor passes.  A merely slow
or briefly partitioned worker whose heartbeats resume in time is
unsuspected with no side effects — false suspicions are survivable.

Heartbeats and their bookkeeping are pure control-plane traffic: they
ride :meth:`~repro.cluster.topology.Cluster.control_send` (switch
latency only — no NIC pipe occupancy, no byte accounting), so arming the
detector does not perturb data-plane timing in a failure-free run; in a
discrete-event simulation extra pure-latency events never move other
processes' timestamps.

Lifecycle notes:

* Heartbeat senders are spawned through :meth:`Machine.spawn`, so a
  machine crash kills its sender exactly as it kills its tasks — silence
  is then genuine.  When a machine comes back (fault-schedule
  ``recover``), the monitor re-spawns its sender on the next pass — the
  node agent restarting its daemon — and the first heartbeat that
  arrives from a *confirmed-dead* machine is reported as a ``rejoin``.
* Every heartbeat carries the sending daemon's *boot id* (bumped each
  time the sender is respawned).  A machine that crashes and restarts
  faster than the suspicion window would otherwise be missed entirely —
  its heartbeats resume before confirmation, yet every task it hosted is
  gone.  A boot-id change on a not-yet-confirmed machine is therefore
  reported as a ``reboot`` and treated as a (now already healed)
  failure, so the master reschedules the tasks that died with the old
  incarnation.
* ``confirmed`` is the master's knowledge, not ground truth: a worker on
  the far side of a network partition is confirmed dead exactly like a
  crashed one (the master cannot tell the difference, which is the whole
  point), and recovery proceeds on that knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Cluster, Machine
from ..common.errors import WorkerFailure
from ..simulation import Store

__all__ = ["FailureDetectorConfig", "FailureDetector"]


@dataclass(frozen=True)
class FailureDetectorConfig:
    """Heartbeat policy knobs.

    With the defaults a dead worker is suspected ~1.6 s after its last
    heartbeat and confirmed ~1.5 s later (three more silent monitor
    passes) — long enough that a transient stall or a sub-second
    partition never triggers recovery, short enough that detection is a
    small fraction of any iteration.
    """

    enabled: bool = True
    #: Seconds between heartbeats (and between monitor passes).
    period: float = 0.5
    #: A worker silent for longer than this becomes *suspected*.  A
    #: heartbeat that arrives exactly at the boundary still counts as
    #: alive (strict ``>`` comparison).
    timeout: float = 1.6
    #: Consecutive silent monitor passes before a suspicion is confirmed.
    suspicion_checks: int = 3
    #: Master-side stall watchdog: if the master observes no progress at
    #: all for this long, the run is declared stalled and aborted — the
    #: backstop that turns a livelock (e.g. a detector that never
    #: confirms, or a channel that never retransmits) into a clean error.
    stall_timeout: float = 120.0


class FailureDetector:
    """Heartbeat senders plus the master's suspicion state machine."""

    def __init__(self, cluster: Cluster, config: FailureDetectorConfig, emit, chaos):
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = config
        self._emit = emit  # (kind, **fields) -> None
        self._chaos = chaos
        alive = cluster.alive_workers()
        self.master: Machine = alive[0] if alive else cluster.workers()[0]
        self.last_hb: dict[str, float] = {}
        self.suspicion: dict[str, int] = {}
        #: Machines the master currently believes are dead.
        self.confirmed: set[str] = set()
        self._senders: dict[str, object] = {}
        #: Per-machine heartbeat-daemon boot counter (bumped on respawn)
        #: and the last boot id the master saw from each machine.
        self._boot: dict[str, int] = {}
        self._seen_boot: dict[str, int] = {}
        self._sink: Store | None = None
        self._pending: list[str] = []
        self._active = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._active:
            return
        self._active = True
        now = self.engine.now
        for name, machine in self.cluster.machines.items():
            self.last_hb[name] = now
            self.suspicion[name] = 0
            if not machine.failed:
                self._spawn_sender(machine)
        self.engine.process(self._monitor(), name="fd-monitor")

    def stop(self) -> None:
        """Senders and the monitor exit on their next wakeup."""
        self._active = False

    def attach(self, sink: Store) -> None:
        """Route confirmations into ``sink`` (a generation's master box),
        flushing any confirmation that happened between generations."""
        self._sink = sink
        while self._pending:
            sink.put(("failure", self._pending.pop(0)))

    def detach(self) -> None:
        self._sink = None

    # -- internals ----------------------------------------------------------
    def _spawn_sender(self, machine: Machine) -> None:
        boot = self._boot.get(machine.name, 0) + 1
        self._boot[machine.name] = boot
        try:
            self._senders[machine.name] = machine.spawn(
                self._sender(machine, boot), name=f"hb:{machine.name}"
            )
        except WorkerFailure:
            pass  # died in the window; silence will tell

    def _sender(self, machine: Machine, boot: int):
        period = self.config.period
        while self._active:
            delivered = yield from self.cluster.control_send(machine, self.master)
            if delivered and self._active:
                self._note_heartbeat(machine.name, boot)
            yield self.engine.timeout(period)

    def _note_heartbeat(self, name: str, boot: int) -> None:
        self.last_hb[name] = self.engine.now
        prev_boot = self._seen_boot.get(name)
        self._seen_boot[name] = boot
        if name in self.confirmed:
            self.confirmed.discard(name)
            self.suspicion[name] = 0
            self._emit("rejoin", worker=name)
        elif prev_boot is not None and boot != prev_boot:
            # The daemon restarted between heartbeats: the machine
            # crashed and came back inside the suspicion window.  Its
            # old incarnation's tasks are gone even though it is alive
            # again now, so report the (already healed) failure.
            self.suspicion[name] = 0
            self._emit("reboot", worker=name, boot=boot)
            if self._sink is not None:
                self._sink.put(("failure", name))
            else:
                self._pending.append(name)
        elif self.suspicion.get(name):
            self.suspicion[name] = 0

    def _monitor(self):
        cfg = self.config
        while self._active:
            yield self.engine.timeout(cfg.period)
            if not self._active:
                return
            now = self.engine.now
            for name, machine in self.cluster.machines.items():
                if name == self.master.name:
                    continue
                sender = self._senders.get(name)
                if not machine.failed and (sender is None or not sender.is_alive):
                    # Node agent restart after a recovery: resume heartbeats.
                    self._spawn_sender(machine)
                if name in self.confirmed:
                    continue
                silent = now - self.last_hb[name]
                if silent > cfg.timeout:
                    self.suspicion[name] += 1
                    if self.suspicion[name] == 1:
                        self._emit("suspect", worker=name, silent_for=silent)
                    if (
                        self.suspicion[name] >= cfg.suspicion_checks
                        and not self._chaos.ignore_heartbeat_timeout
                    ):
                        self._confirm(name, silent)
                elif self.suspicion[name]:
                    self.suspicion[name] = 0

    def _confirm(self, name: str, silent: float) -> None:
        self.confirmed.add(name)
        self.suspicion[name] = 0
        self._emit("confirm-failure", worker=name, silent_for=silent)
        if self._sink is not None:
            self._sink.put(("failure", name))
        else:
            self._pending.append(name)
