"""Campaign generation: one seed → one fully-specified chaos scenario.

A :class:`CampaignSpec` is the complete, JSON-serializable description of
one randomized end-to-end run: the workload (SSSP / PageRank / K-means on
a seeded random input), the cluster topology, the runtime-mode matrix
(synchronous maps, combiner, migration, checkpoint interval, buffer
size), and a fault schedule of fail/recover events at random virtual
times.  :func:`generate_campaign` is a pure function of the seed, which
is what makes every chaos failure replayable from one line
(``repro chaos --campaign-seed N``).

Safety envelope — campaigns are adversarial but never *unsatisfiable*:

* machine 0 never fails (the job needs a survivor, and the harness reads
  results through it);
* at most ``replication - 1`` machines are down at any instant, so
  injected faults cannot lose every replica of a DFS block (that would
  be a storage loss, not a runtime bug);
* the pair count always fits the surviving workers' task slots, so
  recovery is always schedulable (§3.1.1).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace

from ..cluster.faults import FaultEvent, FaultSchedule
from ..cluster.network import LinkFault
from ..graph.generators import pagerank_graph, sssp_graph
from ..imapreduce.placement import PAIRS_PER_WORKER

__all__ = ["WORKLOADS", "GRAPHS", "REPLICATION", "CampaignSpec", "generate_campaign"]

WORKLOADS = ("sssp", "pagerank", "kmeans")
#: Graph workload -> the seeded generator of its campaign input.
GRAPHS = {"sssp": sssp_graph, "pagerank": pagerank_graph}

#: DFS replication every campaign uses; bounds concurrent failures.
REPLICATION = 2


@dataclass(frozen=True)
class CampaignSpec:
    """One chaos scenario, fully determined and JSON-round-trippable."""

    seed: int
    workload: str
    #: Graph nodes (SSSP / PageRank) or users (K-means).
    input_size: int
    cluster_nodes: int
    #: Per-machine CPU speeds; ``None`` means the homogeneous local
    #: topology, a tuple means a heterogeneous cluster (exercises §3.4.2).
    speeds: tuple[float, ...] | None
    num_pairs: int
    max_iterations: int
    sync: bool
    combiner: bool
    migration: bool
    checkpoint_interval: int
    buffer_records: int
    faults: tuple[FaultEvent, ...] = ()
    #: Link-level misbehaviour windows (loss, delay, transient partitions).
    net_faults: tuple[LinkFault, ...] = ()
    #: Exercise the columnar kernel path: the campaign additionally runs
    #: the kernel-enabled job through the executors and the kernel
    #: differential oracle compares it against the record-path reference.
    use_kernels: bool = False
    #: Real process death for ``parallel``-mode runs: ``(worker,
    #: iteration, action)`` — the multiprocess backend's worker kills
    #: (``"kill"``, SIGKILL) or freezes (``"stop"``, SIGSTOP) itself at
    #: the start of that iteration, and the run must *recover* from its
    #: durable checkpoints back to record-equality with the serial
    #: reference.  ``None`` = no process fault.  Like ``parallel`` itself,
    #: this dimension only bites when the campaign runs in parallel mode;
    #: the simulated runtime ignores it.
    proc_kill: tuple | None = None
    #: Asynchronous delta-based (Maiter-mode) accumulative twin: the
    #: campaign additionally runs the workload's ``AccumJob`` — sync
    #: serial reference, async serial, seeded-deferral simulated, the
    #: delta kernel twin when ``use_kernels``, and the real multiprocess
    #: backend in parallel mode — and the ``async-fixpoint`` oracle
    #: demands they all land on the same fixpoint (bit-exact for ``min``
    #: algebras, within tolerance for ``+``).  Only sssp and pagerank
    #: carry accumulative formulations; false elsewhere.
    async_mode: bool = False
    #: Incremental-refresh (i2MapReduce-mode) twin: ``(insert, delete,
    #: churn_seed)`` churn parameters resolved against the campaign's
    #: actual graph via :func:`repro.imapreduce.random_edge_churn`.
    #: The campaign additionally runs a cold base accum run, memoizes
    #: it, mutates the input, and demands every warm-started refresh
    #: (serial sync, serial async, multiprocess) land on the cold
    #: rerun's fixpoint — the ``incremental-differential`` oracle.
    #: ``None`` = no input mutation.  Graph workloads only.
    input_delta: tuple | None = None

    # -- derived -----------------------------------------------------------
    def machine_names(self) -> list[str]:
        prefix = "hnode" if self.speeds is not None else "node"
        return [f"{prefix}{i}" for i in range(self.cluster_nodes)]

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule(list(self.faults), list(self.net_faults))

    def _partition_isolated(self, fault: LinkFault) -> int:
        """How many workers a partition window cuts off from the master.

        Those workers will be falsely confirmed dead if the window
        outlasts the suspicion budget, so their pairs must fit on the
        master's side of the split.  A partition between two non-master
        groups isolates nobody from the master (heartbeats still flow).
        """
        if not fault.partition:
            return 0
        master = self.machine_names()[0]
        if fault.group_b:
            if master in fault.group_a:
                return len(fault.group_b)
            if master in fault.group_b:
                return len(fault.group_a)
            return 0
        return len(fault.group_a)

    def validate(self) -> None:
        """Reject specs outside the safety envelope (shrinker guard)."""
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.cluster_nodes < 2:
            raise ValueError("need at least 2 cluster nodes")
        if self.speeds is not None and len(self.speeds) != self.cluster_nodes:
            raise ValueError("speeds must match cluster_nodes")
        if self.max_iterations < 1 or self.num_pairs < 1:
            raise ValueError("need at least one iteration and one pair")
        schedule = self.fault_schedule()
        names = set(self.machine_names())
        unknown = schedule.machines() - names
        if unknown:
            raise ValueError(f"faults name unknown machines {sorted(unknown)}")
        if self.machine_names()[0] in schedule.machines():
            raise ValueError("machine 0 must never fail")
        if schedule.max_concurrent_failures() > REPLICATION - 1:
            raise ValueError("too many concurrent failures for the replication")
        worst_alive = self.cluster_nodes - max(1, schedule.max_concurrent_failures())
        if self.faults and self.num_pairs > worst_alive * PAIRS_PER_WORKER:
            raise ValueError("pairs would not fit the surviving workers")
        if self.async_mode and self.workload not in ("sssp", "pagerank"):
            raise ValueError(
                f"async_mode needs an accumulative workload, not "
                f"{self.workload!r}"
            )
        if self.proc_kill is not None:
            worker, iteration, action = self.proc_kill
            if action not in ("kill", "stop"):
                raise ValueError(f"unknown proc_kill action {action!r}")
            if worker < 0:
                raise ValueError("proc_kill worker must be >= 0")
            if not 0 <= iteration < self.max_iterations:
                raise ValueError(
                    "proc_kill iteration must land inside the iteration budget"
                )
        if self.input_delta is not None:
            if self.workload not in ("sssp", "pagerank"):
                raise ValueError(
                    f"input_delta needs a graph workload, not "
                    f"{self.workload!r}"
                )
            if len(self.input_delta) != 3:
                raise ValueError("input_delta must be (insert, delete, seed)")
            insert, delete, _churn_seed = self.input_delta
            if insert < 0 or delete < 0 or insert + delete == 0:
                raise ValueError("input_delta churn must mutate something")
        master = self.machine_names()[0]
        for fault in self.net_faults:
            unknown = fault.machines() - names
            if unknown:
                raise ValueError(
                    f"link faults name unknown machines {sorted(unknown)}"
                )
            if fault.partition:
                if master in fault.group_a and not fault.group_b:
                    raise ValueError("machine 0 must not be cut off from the cluster")
                if fault.end - fault.start > 60.0:
                    raise ValueError(
                        "partition window exceeds the retransmission budget"
                    )
                # Cut-off workers may be falsely confirmed dead; their
                # pairs must still fit the master's side of the split
                # (worst case on top of a concurrent machine failure).
                reachable = (
                    self.cluster_nodes
                    - schedule.max_concurrent_failures()
                    - self._partition_isolated(fault)
                )
                if self.num_pairs > reachable * PAIRS_PER_WORKER:
                    raise ValueError(
                        "pairs would not fit the master-reachable workers "
                        "during the partition"
                    )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["faults"] = [asdict(e) for e in self.faults]
        d["net_faults"] = [
            {**asdict(f), "group_a": list(f.group_a), "group_b": list(f.group_b)}
            for f in self.net_faults
        ]
        if self.speeds is not None:
            d["speeds"] = list(self.speeds)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        d = dict(d)
        d["faults"] = tuple(FaultEvent(**e) for e in d.get("faults", ()))
        d["net_faults"] = tuple(
            LinkFault(
                **{
                    **f,
                    "group_a": tuple(f.get("group_a", ())),
                    "group_b": tuple(f.get("group_b", ())),
                }
            )
            for f in d.get("net_faults", ())
        )
        if d.get("speeds") is not None:
            d["speeds"] = tuple(d["speeds"])
        if d.get("proc_kill") is not None:
            d["proc_kill"] = tuple(d["proc_kill"])
        if d.get("input_delta") is not None:
            d["input_delta"] = tuple(d["input_delta"])
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def but(self, **changes) -> "CampaignSpec":
        """A modified copy (shrinking aid)."""
        return replace(self, **changes)

    def describe(self) -> str:
        modes = []
        modes.append("sync" if self.sync else "async")
        if self.combiner:
            modes.append("combiner")
        if self.migration:
            modes.append("migration")
        if self.speeds is not None:
            modes.append("hetero")
        if self.use_kernels:
            modes.append("kernels")
        if self.proc_kill is not None:
            w, i, action = self.proc_kill
            modes.append(f"proc-{action}:w{w}@i{i}")
        if self.async_mode:
            modes.append("accum-async")
        if self.input_delta is not None:
            ins, dels, churn_seed = self.input_delta
            modes.append(f"delta:+{ins}/-{dels}@s{churn_seed}")
        return (
            f"{self.workload} n={self.input_size} on {self.cluster_nodes} nodes, "
            f"{self.num_pairs} pairs, {self.max_iterations} iters, "
            f"ckpt every {self.checkpoint_interval}, buffer {self.buffer_records}, "
            f"[{' '.join(modes)}]; faults: {self.fault_schedule().describe()}"
        )


def _random_faults(
    rng: random.Random, names: list[str], horizon: float
) -> tuple[FaultEvent, ...]:
    """A chronological fail/recover sequence within the safety envelope.

    Every fail except possibly the last is followed by its recovery
    before the next fail, so at most one machine is ever down at once
    (= ``REPLICATION - 1``).  Machine 0 is never touched.
    """
    count = rng.choice((0, 1, 1, 1, 2))
    candidates = names[1:]
    if not candidates:
        return ()
    events: list[FaultEvent] = []
    t = rng.uniform(1.0, horizon)
    for i in range(count):
        machine = rng.choice(candidates)
        events.append(FaultEvent(round(t, 3), machine, "fail"))
        last = i == count - 1
        if not last or rng.random() < 0.5:
            t += rng.uniform(0.5, max(1.0, horizon / 2))
            events.append(FaultEvent(round(t, 3), machine, "recover"))
            t += rng.uniform(0.2, max(0.5, horizon / 3))
        else:
            break  # an unrecovered failure must be the last event
    return tuple(events)


def _random_net_faults(
    rng: random.Random,
    names: list[str],
    horizon: float,
    num_pairs: int,
    faults: tuple[FaultEvent, ...],
) -> tuple[LinkFault, ...]:
    """Random link misbehaviour windows inside the safety envelope.

    Loss and delay windows may cover every link (the reliable channels
    and the suspicion threshold must absorb them); a transient partition
    always cuts off exactly one non-master machine, and only when its
    pairs still fit the master-reachable side should the cut-off worker
    be falsely confirmed dead on top of a concurrent machine failure.
    """
    concurrent = FaultSchedule(list(faults)).max_concurrent_failures()
    out: list[LinkFault] = []
    if rng.random() < 0.5:
        start = rng.uniform(0.0, horizon)
        length = rng.uniform(1.0, max(2.0, horizon / 2))
        out.append(
            LinkFault(
                round(start, 3),
                round(start + length, 3),
                loss_rate=round(rng.uniform(0.05, 0.3), 3),
            )
        )
    if rng.random() < 0.3:
        start = rng.uniform(0.0, horizon)
        length = rng.uniform(1.0, max(2.0, horizon / 2))
        out.append(
            LinkFault(
                round(start, 3),
                round(start + length, 3),
                extra_delay=round(rng.uniform(0.05, 0.4), 3),
            )
        )
    if rng.random() < 0.35 and len(names) > 1:
        victim = rng.choice(names[1:])
        start = rng.uniform(1.0, horizon)
        length = rng.uniform(0.5, 6.0)
        if num_pairs <= (len(names) - 1 - concurrent) * PAIRS_PER_WORKER:
            out.append(
                LinkFault(
                    round(start, 3),
                    round(start + length, 3),
                    partition=True,
                    group_a=(victim,),
                )
            )
    return tuple(out)


def generate_campaign(
    seed: int, workloads: tuple[str, ...] = WORKLOADS
) -> CampaignSpec:
    """The pure seed → campaign function."""
    rng = random.Random(seed)
    # K-means campaigns are the heaviest (broadcast state, dense
    # vectors); sample it less often than the graph workloads.
    weighted = [w for w in workloads for _ in range(1 if w == "kmeans" else 2)]
    workload = rng.choice(weighted)

    cluster_nodes = rng.randint(3, 5)
    speeds: tuple[float, ...] | None = None
    if rng.random() < 0.3:
        speeds = tuple(round(rng.uniform(0.5, 1.5), 2) for _ in range(cluster_nodes))

    # Worst case one machine is down: keep pairs within surviving slots.
    max_pairs = min(6, (cluster_nodes - 1) * PAIRS_PER_WORKER)
    num_pairs = rng.randint(2, max_pairs)
    max_iterations = rng.randint(2, 5)
    sync = rng.random() < 0.5
    combiner = rng.random() < 0.5
    migration = rng.random() < 0.3
    checkpoint_interval = rng.choice((1, 1, 2, 3))
    buffer_records = rng.choice((1, 4, 64, 2048))
    input_size = rng.randint(10, 20) if workload == "kmeans" else rng.randint(8, 28)

    # Virtual-time horizon the faults should land inside: setup plus a
    # per-iteration allowance (synchronous barriers pay the ~3 s heartbeat
    # release, so sync runs stretch much further).
    sync_effective = sync or workload == "kmeans"
    horizon = 3.0 + max_iterations * (4.0 if sync_effective else 1.5)
    names = [f"{'hnode' if speeds else 'node'}{i}" for i in range(cluster_nodes)]
    faults = _random_faults(rng, names, horizon)
    # Drawn strictly after every other field so adding the network fault
    # dimension left all previously pinned campaign seeds intact.
    net_faults = _random_net_faults(rng, names, horizon, num_pairs, faults)
    # Same precedent again: the kernel dimension draws after net_faults,
    # keeping every previously pinned campaign seed byte-identical.
    use_kernels = rng.random() < 0.4
    # And the process-death dimension draws last of all, for the same
    # reason.  The victim is drawn over {0, 1}: parallel-mode campaigns
    # run 2 workers (the runner clamps to the actual mesh size anyway),
    # and SIGSTOPs are rarer — each one costs a real suspicion timeout.
    proc_kill: tuple | None = None
    if rng.random() < 0.35:
        proc_kill = (
            rng.randrange(2),
            rng.randrange(max_iterations),
            "kill" if rng.random() < 0.75 else "stop",
        )
    # The accumulative (Maiter-mode) dimension draws after proc_kill —
    # the same append-only discipline, so every previously pinned
    # campaign seed still replays byte-identically.  The coin is spent
    # unconditionally; only the accumulative workloads can honour it.
    async_mode = rng.random() < 0.4 and workload in ("sssp", "pagerank")
    # The incremental-refresh dimension draws LAST — append-only
    # discipline once more, so every previously pinned campaign seed
    # (chaos-network, parallel-recovery, async-parity CI legs) still
    # replays byte-identically.  Coins are spent unconditionally; only
    # the graph workloads can honour the dimension.
    input_delta: tuple | None = None
    delta_coin = rng.random()
    insert_count = rng.randint(0, 3)
    delete_count = rng.randint(0 if insert_count else 1, 3)
    churn_seed = rng.randrange(2**16)
    if delta_coin < 0.35 and workload in ("sssp", "pagerank"):
        input_delta = (insert_count, delete_count, churn_seed)

    spec = CampaignSpec(
        seed=seed,
        workload=workload,
        input_size=input_size,
        cluster_nodes=cluster_nodes,
        speeds=speeds,
        num_pairs=num_pairs,
        max_iterations=max_iterations,
        sync=sync,
        combiner=combiner,
        migration=migration,
        checkpoint_interval=checkpoint_interval,
        buffer_records=buffer_records,
        faults=faults,
        net_faults=net_faults,
        use_kernels=use_kernels,
        proc_kill=proc_kill,
        async_mode=async_mode,
        input_delta=input_delta,
    )
    spec.validate()
    return spec
