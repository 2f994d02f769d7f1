"""Fault injection: scripted worker failures, recoveries and link faults.

The paper's fault-tolerance design (§3.4.1) checkpoints state data to the
DFS every few iterations and recovers a failed task pair from the most
recent checkpoint.  :class:`FaultSchedule` drives the "failure" side of
that contract in experiments and tests: it fails named machines at given
virtual times (and optionally recovers them later), killing every
registered process on the machine through the interrupt mechanism.

A schedule can also carry :class:`~repro.cluster.network.LinkFault`
windows — message loss, added delay, transient partitions — which
``arm`` folds into a :class:`~repro.cluster.network.NetworkFaultModel`
installed on the cluster switch, so channels misbehave instead of the
master learning about trouble by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulation import Engine
from .network import LinkFault, NetworkFaultModel
from .topology import Cluster

__all__ = ["FaultEvent", "FaultSchedule"]


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scripted action: fail (or recover) ``machine`` at ``when``."""

    when: float
    machine: str
    action: str = "fail"  # "fail" | "recover"

    def __post_init__(self):
        if self.action not in ("fail", "recover"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.when < 0:
            raise ValueError("fault time must be non-negative")


@dataclass
class FaultSchedule:
    """An ordered list of fault events, armed onto a cluster."""

    events: list[FaultEvent] = field(default_factory=list)
    link_faults: list[LinkFault] = field(default_factory=list)

    def fail_at(self, when: float, machine: str) -> "FaultSchedule":
        self.events.append(FaultEvent(when, machine, "fail"))
        return self

    def recover_at(self, when: float, machine: str) -> "FaultSchedule":
        self.events.append(FaultEvent(when, machine, "recover"))
        return self

    # -- link-fault builders ------------------------------------------------
    def lose(
        self,
        start: float,
        end: float,
        rate: float,
        group_a: tuple[str, ...] = (),
        group_b: tuple[str, ...] = (),
    ) -> "FaultSchedule":
        """Drop each message with probability ``rate`` during the window."""
        self.link_faults.append(
            LinkFault(start, end, loss_rate=rate, group_a=group_a, group_b=group_b)
        )
        return self

    def partition(
        self,
        start: float,
        end: float,
        group_a: tuple[str, ...],
        group_b: tuple[str, ...] = (),
    ) -> "FaultSchedule":
        """Cleanly split ``group_a`` from ``group_b`` (or from the rest)."""
        self.link_faults.append(
            LinkFault(start, end, partition=True, group_a=group_a, group_b=group_b)
        )
        return self

    def sorted_events(self) -> list[FaultEvent]:
        """Events in firing order (time, then insertion order)."""
        return sorted(self.events, key=lambda e: e.when)

    def machines(self) -> set[str]:
        """Every machine the schedule touches."""
        return {event.machine for event in self.events}

    def max_concurrent_failures(self) -> int:
        """Peak number of machines down at once, assuming all start up.

        Campaign generators keep this below the DFS replication factor so
        injected faults can never lose every replica of a block — block
        loss would be a *storage* failure, not the runtime bug the chaos
        oracles hunt for.
        """
        down: set[str] = set()
        peak = 0
        for event in self.sorted_events():
            if event.action == "fail":
                down.add(event.machine)
            else:
                down.discard(event.machine)
            peak = max(peak, len(down))
        return peak

    def without(self, index: int) -> "FaultSchedule":
        """A copy with the ``index``-th event dropped (shrinking aid)."""
        return FaultSchedule(
            [e for i, e in enumerate(self.events) if i != index],
            list(self.link_faults),
        )

    def describe(self) -> str:
        """One-line human-readable form, used in chaos failure reports."""
        if not self.events and not self.link_faults:
            return "(no faults)"
        parts = [
            f"{e.action} {e.machine}@{e.when:.2f}s" for e in self.sorted_events()
        ]
        parts.extend(f.describe() for f in self.link_faults)
        return ", ".join(parts)

    def arm(self, engine: Engine, cluster: Cluster, *, net_seed: int = 0) -> None:
        """Install one driver process per event on the engine, and the
        link-fault model (seeded by ``net_seed``) on the cluster switch.

        Events naming machines the cluster does not have fail fast here,
        rather than as a mystery ``ClusterError`` mid-simulation.
        """
        for event in self.events:
            cluster[event.machine]  # raises ClusterError on unknown names
        for fault in self.link_faults:
            for name in fault.machines():
                cluster[name]
        if self.link_faults:
            cluster.install_network_faults(
                NetworkFaultModel(tuple(self.link_faults), seed=net_seed)
            )
        for event in self.sorted_events():
            engine.process(self._driver(engine, cluster, event), name=f"fault@{event.when}")

    @staticmethod
    def _driver(engine: Engine, cluster: Cluster, event: FaultEvent):
        yield engine.timeout(event.when)
        machine = cluster[event.machine]
        if event.action == "fail":
            machine.fail()
        else:
            machine.recover()
