"""The iMapReduce engine: persistent tasks, static/state separation,
asynchronous map execution, checkpointing, and load balancing.

Execution model (paper §3):

* One *pair* of persistent map/reduce tasks per partition, both pinned to
  the same worker so the reduce→map state channel is local (§3.2.1).
  There must be enough task slots for all pairs at once (§3.1.1).
* One-time initialization: the state and static input files are read
  from the DFS, partitioned with the job's partitioner, and each pair's
  partition is written back to the DFS with a replica on the pair's
  worker (this doubles as checkpoint 0 and as the §3.4.1 static-data
  replica).  After that, iterations touch the DFS only for checkpoints.
* Each iteration: phase-0 maps join arriving state with their local
  static data and run the user map (eagerly per arriving buffer chunk in
  asynchronous mode, §3.3); map output shuffles to the phase's reduces;
  the final phase's reduce produces the next state, measures the
  distance, reports to the master, optionally checkpoints in parallel,
  and streams the state back to its paired map in buffer-sized chunks.
* The master merges per-task distances, decides termination (max
  iterations, distance threshold, or an auxiliary phase's signal) and —
  in synchronous mode — releases the global iteration barrier.
* Fault tolerance and load balancing both restart the task *generation*
  from the most recent complete checkpoint (§3.4): on a worker failure
  the dead worker's pairs move to survivors; when the per-iteration
  completion reports show a worker lagging beyond the deviation
  threshold, its slowest pair migrates to the fastest worker.

One copy of the per-pair code: the tasks compute with the functions the
serial and multiprocess backends' record sync executor (``RecordSync``)
and verdict policy are built from, and price the result here.  (This
cluster runs iterative jobs; an accumulative job's simulated host is
:func:`~repro.imapreduce.localrun.host_simulated`, on the one
accumulative executor every host runs.)  A map task runs
:func:`~repro.imapreduce.localrun.run_map` on each arriving chunk (a
one2all task sorts its static partition once, with
``sorted_static``) and routes with the job's bound partitioner; the
combine is ``reduce_groups(combiner, …)`` over ``group_by_dest`` and the
streaming reduce walks ``group_by_dest``'s groups, as ``RecordSync``
does; a final-phase reduce measures its partial with
``distance_partial``; the aux tasks call
:meth:`AuxPhase.map_step` / :meth:`AuxPhase.reduce_step`; the master
folds partials with ``merge_partials`` and decides through
``sync_rule`` (aux, then threshold), then the iteration budget; and
every gather hands over in ascending sender order (:mod:`.channels`),
the engine's delivery-order rule.  The only user call left here is the
streaming reduce's ``reduce_fn``, because its buffer flushes interleave
with the groups.  What stays the simulator's own is the discrete-event
part: mailboxes, chunk streaming, the virtual-time charges (a pure
function of record and byte counts), the DFS, checkpoints and the
recovery and migration protocols; where pairs go — the initial
spread, the slot check, recovery placement and the migration decision
— is :mod:`.placement`'s, as on the pipe mesh.  A run's final state,
iteration count, termination reason and per-iteration distances
therefore equal the serial backend's bit for bit
(``test_random_job_equivalence.py``), except that an aux phase's stop
lands up to an iteration late (it runs beside the main phase, §5.3).

Consistency note: asynchronous tasks may run up to one iteration past
the master's termination decision (a reduce cannot *complete* iteration
k+1 at the instant the last report of k arrives, because its processing
takes non-zero virtual time).  Final-phase reduces therefore keep their
last two iterations' outputs and dump exactly the iteration the stop
sentinel names, so results are reproducible and comparable with the
baseline and the references regardless of run-ahead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..cluster import Cluster, Machine
from ..common.errors import SchedulingError, TaskFailure, WorkerFailure
from ..common.partition import bind_partitioner
from ..common.records import group_by_dest, sort_records
from ..common.serialization import sizeof_records
from ..dfs import DFS
from ..mapreduce.api import Context
from ..mapreduce.costmodel import DEFAULT_COST_MODEL, CostModel
from ..metrics import IterationMetrics, RunMetrics
from ..metrics.trace import Tracer
from ..simulation import Store
from . import channels
from .channels import IterationMailbox, StopIteration_
from .engine import CONTINUE, merge_partials, sync_rule
from .failure_detector import FailureDetector, FailureDetectorConfig
from .job import AuxContext, IterativeJob, IterativeRunResult
from .localrun import (
    distance_partial,
    reduce_groups,
    route_columns,
    run_map,
    sorted_static,
)
from .placement import check_slots, plan_migration, reassign, round_robin

__all__ = [
    "LoadBalanceConfig",
    "ChaosKnobs",
    "IMapReduceRuntime",
    "AuxContext",
]

@dataclass(frozen=True)
class LoadBalanceConfig:
    """§3.4.2 migration policy knobs."""

    enabled: bool = False
    #: Migrate when (slowest - avg) / avg exceeds this, where avg excludes
    #: the longest and shortest report (as in the paper).
    deviation_threshold: float = 0.5
    #: Minimum iterations between migrations (avoids the paper's noted
    #: partition-thrashing pathology).
    cooldown_iterations: int = 3


@dataclass(frozen=True)
class ChaosKnobs:
    """Deliberate-bug switches for the chaos harness's self-test.

    The chaos campaign harness (:mod:`repro.testing`) validates itself by
    flipping one of these on and checking that its oracles catch the
    resulting misbehaviour.  They must all stay ``False`` in real runs.
    """

    #: Acknowledge a checkpoint to the master *without* writing the state
    #: files — the durability contract of §3.4.1 silently broken.  A later
    #: recovery then resumes from a checkpoint that does not exist.
    skip_checkpoint_write: bool = False
    #: Checkpoint the *previous* iteration's state under the current
    #: index — an off-by-one durability bug.  Failure-free runs are
    #: unaffected; a recovery silently resumes one iteration stale, which
    #: only a differential oracle can see.
    stale_checkpoint_content: bool = False
    #: The failure detector suspects silent workers but never confirms
    #: them, so a crashed worker's pairs are never recovered: the job
    #: hangs until the master's stall watchdog aborts it.
    ignore_heartbeat_timeout: bool = False
    #: Reliable channels send each message exactly once: a loss-window
    #: drop is never retransmitted and some gather starves forever
    #: (livelock), again only the stall watchdog can surface it.
    skip_retransmit: bool = False


@dataclass
class _Checkpoint:
    state_index: int  # state_s = state after s iterations; 0 == initial
    path_prefix: str

    def part(self, pair: int) -> str:
        return f"{self.path_prefix}/part-{pair:05d}"


@dataclass
class _IterAccount:
    """One iteration's byte and record counts; each field is the
    :class:`IterationMetrics` field it is folded into."""

    shuffle_bytes: int = 0
    state_bytes: int = 0
    map_records: int = 0
    reduce_records: int = 0


@dataclass
class _GenOutcome:
    kind: str  # "done" | "recover" | "migrate" | "error"
    terminated_by: str = ""
    final_distance: float | None = None
    last_iteration: int = -1
    failed_worker: str | None = None
    migration: dict | None = None
    error: BaseException | None = None
    #: Localized per-pair recoveries performed *within* this generation.
    pair_recoveries: int = 0


class IMapReduceRuntime:
    """Runs :class:`~repro.imapreduce.job.IterativeJob` on the cluster."""

    def __init__(
        self,
        cluster: Cluster,
        dfs: DFS,
        cost: CostModel = DEFAULT_COST_MODEL,
        load_balance: LoadBalanceConfig | None = None,
        trace: "Tracer | None" = None,
        chaos: ChaosKnobs | None = None,
        failure_detector: FailureDetectorConfig | None = None,
    ):
        self.cluster = cluster
        self.dfs = dfs
        self.engine = cluster.engine
        self.cost = cost
        self.lb = load_balance or LoadBalanceConfig()
        self.trace = trace
        self.chaos = chaos or ChaosKnobs()
        #: ``None`` keeps the historical omniscient failure path (a dead
        #: task's WorkerFailure value reaches the master by fiat) — the
        #: timing-pinned baseline.  With a config, the master learns of
        #: failures only through heartbeat silence and recovers *pairs*,
        #: not whole generations.
        self.fd_config = failure_detector
        self._detector: FailureDetector | None = None

    def _emit(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(self.engine.now, kind, **fields)

    # ------------------------------------------------------------------ API --
    def submit(self, job: IterativeJob) -> IterativeRunResult:
        # Seed plumbing: a job-level master seed re-salts the deterministic
        # service-time noise, so every stochastic choice of the run is a
        # pure function of ``mapred.iterjob.seed`` and replays exactly.
        seed = job.conf.get_seed()
        if seed and self.cost.noise_seed != seed:
            self.cost = self.cost.with_overrides(noise_seed=seed)
        proc = self.engine.process(self._run_proc(job), name=f"imr-job:{job.name}")
        return self.engine.run(proc)

    # -------------------------------------------------------------- top level --
    def _run_proc(self, job: IterativeJob):
        if self.fd_config is not None:
            self._detector = FailureDetector(
                self.cluster, self.fd_config, self._emit, self.chaos
            )
            self._detector.start()
        try:
            result = yield from self._run_body(job)
            return result
        finally:
            if self._detector is not None:
                self._detector.stop()
                self._detector = None

    def _run_body(self, job: IterativeJob):
        engine = self.engine
        metrics = RunMetrics(label=f"imapreduce:{job.name}")
        metrics.start = engine.now
        net_before = self.cluster.network_bytes

        workers = [m.name for m in self.cluster.alive_workers()]
        num_pairs = job.num_pairs or len(workers)
        check_slots(num_pairs, workers, "{pairs} persistent pairs need more than the "
                    "{workers}×{per_worker} available task slots (§3.1.1)")
        # pair → machine name; recovery and migration rewrite it in place.
        owner = round_robin(num_pairs, workers)

        # ---- one-time initialization (§3.1: happens exactly once) ----
        self._lb_block_until = -(10**9)
        yield engine.timeout(self.cost.job_setup)
        while True:
            try:
                checkpoint = yield from self._initial_load(job, owner, num_pairs)
                break
            except WorkerFailure:
                self._reassign_failed(owner)
        metrics.setup_time = engine.now - metrics.start

        migrations: list[dict] = []
        recoveries = 0
        pair_recoveries = 0
        accounts: dict[int, _IterAccount] = defaultdict(_IterAccount)

        while True:
            # Oracle hook: every (re)start of the persistent-task
            # generation announces the state it resumes from, so the
            # chaos harness can check that a recovery never resumes past
            # the last durable checkpoint (§3.4.1).
            self._emit(
                "generation-start",
                start_iter=checkpoint.state_index,
                recoveries=recoveries,
            )
            outcome = yield from self._generation(
                job, owner, num_pairs, checkpoint, metrics, accounts
            )
            pair_recoveries += outcome.pair_recoveries
            if outcome.kind == "error":
                raise TaskFailure(job.name, outcome.error)
            if outcome.kind == "done":
                break
            if outcome.kind == "recover":
                recoveries += 1
                self._reassign_failed(owner)
                self._emit(
                    "recovery",
                    worker=outcome.failed_worker,
                    resume_state=checkpoint.state_index,
                )
            elif outcome.kind == "migrate":
                assert outcome.migration is not None
                plan = outcome.migration
                owner[plan["pair"]] = plan["to"]
                plan["at_state"] = checkpoint.state_index
                migrations.append(plan)
                self._lb_block_until = outcome.last_iteration + self.lb.cooldown_iterations

        metrics.end = engine.now
        metrics.network_bytes = self.cluster.network_bytes - net_before
        # Fold byte accounting into the recorded iterations.
        for it in metrics.iterations:
            if it.index in accounts:
                vars(it).update(vars(accounts[it.index]))
        metrics.extras["migrations"] = migrations
        metrics.extras["recoveries"] = recoveries
        metrics.extras["pair_recoveries"] = pair_recoveries
        metrics.extras["num_pairs"] = num_pairs

        completed = [it.index for it in metrics.iterations]
        return IterativeRunResult(
            job=job,
            metrics=metrics,
            final_paths=[job.part_path(p) for p in range(num_pairs)],
            iterations_run=max(completed) + 1 if completed else 0,
            converged=outcome.terminated_by == "threshold",
            terminated_by=outcome.terminated_by,
            final_distance=outcome.final_distance,
            migrations=migrations,
            recoveries=recoveries + pair_recoveries,
        )

    def _dead_workers(self) -> set[str]:
        """Workers the runtime must not schedule onto: down to the
        resource manager, or confirmed dead by the failure detector
        (the master cannot tell a partitioned worker from a crashed one,
        so a confirmed worker is dead until its heartbeats resume)."""
        dead = {name for name, m in self.cluster.machines.items() if m.failed}
        if self._detector is not None:
            dead |= self._detector.confirmed
        return dead

    def _reassign_failed(self, owner: list[str], dead: set[str] | None = None) -> None:
        """Move dead workers' pairs onto the survivors, in place (§3.4.1)."""
        dead = self._dead_workers() if dead is None else dead
        alive = [m.name for m in self.cluster.alive_workers() if m.name not in dead]
        if not alive:
            raise SchedulingError("no alive workers left to recover onto")
        check_slots(len(owner), alive, "not enough task slots on surviving workers")
        owner[:] = reassign(owner, alive)

    # ------------------------------------------------------- one-time loading --
    def _partition_file(self, path: str, job: IterativeJob, num_pairs: int):
        part = bind_partitioner(job.partitioner, num_pairs)
        parts: list[list] = [[] for _ in range(num_pairs)]
        for record in self.dfs.file_info(path).records:
            parts[part(record[0])].append(record)
        return parts

    def _initial_load(self, job: IterativeJob, owner: list[str], num_pairs: int):
        """Distributed partition-and-load of the state and static inputs.

        Each pair's loader reads its share of the raw input blocks,
        partitions them, exchanges partitions with the other loaders
        (bytes on the wire), and writes its own partition back to the
        DFS with a local first replica.  The DFS copy is the §3.4.1
        replica used for recovery and migration, and the state copy is
        checkpoint 0.
        """
        engine = self.engine
        cost = self.cost
        paths = [job.state_path] + [
            ph.static_path for ph in job.phases if ph.static_path
        ]
        for source in paths:
            parts = self._partition_file(source, job, num_pairs)
            total_bytes = self.dfs.file_info(source).nbytes
            share = total_bytes // num_pairs

            def loader(p: int, source=source, parts=parts, share=share):
                worker = self.cluster[owner[p]]
                yield engine.timeout(cost.task_launch)
                # Read this loader's share of the raw file.
                yield from worker.disk_read(share)
                n_scanned = max(1, len(self.dfs.file_info(source).records) // num_pairs)
                yield from worker.compute(cost.emit_record_cpu * n_scanned)
                # Exchange: receive partition p's records from the other
                # loaders (each holds ~1/P of them).
                my_bytes = sizeof_records(parts[p])
                for q in range(num_pairs):
                    if q == p:
                        continue
                    src = self.cluster[owner[q]]
                    yield from self.cluster.reliable_transfer(
                        src, worker, my_bytes // num_pairs,
                        description=f"initial-load:{q}->{p}",
                    )
                yield from self.dfs.write(
                    self._part_file(source, job, p), parts[p], worker, overwrite=True
                )

            loaders = [
                self.cluster[owner[p]].spawn(loader(p), name=f"load:{p}")
                for p in range(num_pairs)
            ]
            yield engine.all_of(loaders)
            for proc in loaders:
                if isinstance(proc.value, WorkerFailure):
                    raise proc.value
        return _Checkpoint(state_index=0, path_prefix=self._state_prefix(job, 0))

    def _part_file(self, source: str, job: IterativeJob, pair: int) -> str:
        if source == job.state_path:
            return f"{self._state_prefix(job, 0)}/part-{pair:05d}"
        return f"/_imr/{job.name}/static{source}/part-{pair:05d}"

    def _state_prefix(self, job: IterativeJob, state_index: int) -> str:
        return f"/_imr/{job.name}/state-{state_index:05d}"

    # -------------------------------------------------------------- generation --
    def _generation(
        self,
        job: IterativeJob,
        owner: list[str],
        num_pairs: int,
        checkpoint: _Checkpoint,
        metrics: RunMetrics,
        accounts: dict[int, _IterAccount],
    ):
        """Spawn all persistent tasks and coordinate until the job stops,
        a worker fails, or a migration is ordered."""
        engine = self.engine
        F = len(job.phases)
        start_iter = checkpoint.state_index

        map_boxes = [
            [IterationMailbox(engine, f"map{j}.{p}") for p in range(num_pairs)]
            for j in range(F)
        ]
        reduce_boxes = [
            [IterationMailbox(engine, f"red{j}.{p}") for p in range(num_pairs)]
            for j in range(F)
        ]
        master_box = Store(engine)

        aux = job.aux
        aux_workers = round_robin(aux.num_tasks, self.cluster.alive_workers()) if aux else []
        aux_tasks = range(len(aux_workers))
        aux_map_boxes = [IterationMailbox(engine, f"auxmap.{t}") for t in aux_tasks]
        aux_reduce_boxes = [IterationMailbox(engine, f"auxred.{t}") for t in aux_tasks]

        ctx = _GenContext(
            runtime=self,
            job=job,
            num_pairs=num_pairs,
            # Shared (not copied): localized pair recovery re-homes pairs
            # mid-generation and the next generation must see the moves.
            owner=owner,
            start_iter=start_iter,
            checkpoint=checkpoint,
            map_boxes=map_boxes,
            reduce_boxes=reduce_boxes,
            master_box=master_box,
            aux_map_boxes=aux_map_boxes,
            aux_reduce_boxes=aux_reduce_boxes,
            accounts=accounts,
            part=bind_partitioner(job.partitioner, num_pairs),
            aux_part=bind_partitioner(job.partitioner, aux.num_tasks) if aux else None,
            aux_workers=[w.name for w in aux_workers],
        )

        aux_procs = []
        try:
            for j in range(F):
                for p in range(num_pairs):
                    self._spawn_pair(ctx, j, p)
            for t, worker in enumerate(aux_workers):
                for kind, task in (("auxmap", _aux_map_task), ("auxred", _aux_reduce_task)):
                    proc = worker.spawn(task(ctx, t, worker), name=f"{kind}.{t}")
                    ctx.procs.append(proc)
                    aux_procs.append(proc)
                    if kind == "auxmap":
                        ctx.map_procs.append(proc)
        except WorkerFailure as failure:
            # A worker died between placement and spawn: recover.
            for proc in ctx.procs:
                proc.interrupt("shutdown")
            yield engine.timeout(0.0)
            return _GenOutcome(kind="recover", failed_worker=failure.worker)

        # Failure monitors: translate a dead task into a master message.
        # With the failure detector armed, a task killed by its machine's
        # crash is deliberately NOT reported — the master must notice the
        # silence through missed heartbeats.
        for (kind_, j, p), proc in ctx.pair_procs.items():
            self._watch(ctx, proc, pair=p)
        for proc in aux_procs:
            self._watch(ctx, proc)

        detector = self._detector
        if detector is not None:
            detector.attach(master_box)
            ctx.last_progress = engine.now
            engine.process(self._watchdog(ctx), name="imr-watchdog")

        try:
            outcome = yield from self._master(job, ctx, metrics)
        finally:
            ctx.done = True
            if detector is not None:
                detector.detach()
        outcome.pair_recoveries = ctx.recoveries

        if outcome.kind in ("recover", "migrate", "error"):
            for proc in ctx.procs:
                proc.interrupt("shutdown")
            # Let interrupts deliver before tearing down further.
            yield engine.timeout(0.0)
        else:
            # Clean stop: wait for tasks to flush final output.
            yield engine.all_of(
                [p for p in ctx.procs if p.is_alive] or [engine.timeout(0)]
            )
        return outcome

    def _watch(self, ctx: "_GenContext", proc, pair: int | None = None) -> None:
        """Monitor one task process and report its fate to the master.

        * ``WorkerFailure`` as the *interrupt value* means the task's own
          machine crashed.  Legacy (no detector): reported by fiat.  With
          the detector: ignored — heartbeat silence is the only evidence.
        * ``WorkerFailure`` *raised* means a remote machine died under a
          DFS operation the task was driving; the task itself is now dead
          on a live worker, which its node manager observes and reports
          (``task-crash``) so just that pair is recovered in place.
        * Any other exception is a job error.
        * Fencing/shutdown interrupts carry string values: ignored.
        """
        detector = self._detector
        master_box = ctx.master_box

        def monitor():
            try:
                value = yield proc
            except WorkerFailure as failure:
                if detector is None:
                    master_box.put(("error", failure))
                elif pair is not None:
                    master_box.put(("task-crash", pair))
                else:
                    master_box.put(("failure", failure.worker))
                return
            except BaseException as exc:
                master_box.put(("error", exc))
                return
            if isinstance(value, WorkerFailure) and detector is None:
                master_box.put(("failure", value.worker))

        self.engine.process(monitor(), name="imr-monitor")

    def _watchdog(self, ctx: "_GenContext"):
        """Master-side liveness backstop.  Heartbeat traffic keeps the
        event queue forever non-empty, so the engine's deadlock detection
        can no longer catch a livelocked generation (a lost message
        nobody retransmits); instead, prolonged *global* silence at the
        master becomes a hard error the termination oracle can see."""
        stall = self.fd_config.stall_timeout
        engine = self.engine
        while not ctx.done:
            yield engine.timeout(stall / 4.0)
            if ctx.done:
                return
            if engine.now - ctx.last_progress > stall:
                ctx.master_box.put(
                    (
                        "error",
                        TaskFailure(
                            ctx.job.name,
                            RuntimeError(
                                f"master saw no progress for {stall:.0f}s of "
                                "virtual time — livelocked or lost traffic"
                            ),
                        ),
                    )
                )
                return

    # ------------------------------------------------------------------ master --
    def _master(self, job: IterativeJob, ctx: "_GenContext", metrics: RunMetrics):
        engine = self.engine
        num_pairs = ctx.num_pairs
        reports: dict[int, dict[int, tuple[float | None, float]]] = defaultdict(dict)
        ckpt_acks: dict[int, set[int]] = defaultdict(set)
        iter_start = engine.now
        aux_stop = False
        lb_block_until = getattr(self, "_lb_block_until", -(10**9))

        while True:
            message = yield ctx.master_box.get()
            ctx.last_progress = engine.now
            kind = message[0]

            if kind == "error":
                return _GenOutcome(kind="error", error=message[1])

            if kind == "failure":
                worker = message[1]
                if self._detector is None or worker in ctx.aux_workers:
                    # Legacy fiat path, and aux tasks (which keep no
                    # checkpointed state of their own): whole-generation
                    # rollback to the last durable checkpoint.
                    self._emit("worker-failure", worker=worker)
                    return _GenOutcome(kind="recover", failed_worker=worker)
                affected = [
                    p for p in range(num_pairs) if ctx.owner[p] == worker
                ]
                if not affected:
                    continue  # stale confirmation: pairs already moved on
                self._emit("worker-failure", worker=worker)
                yield from self._recover_pairs(job, ctx, affected, worker, ckpt_acks)
                continue

            if kind == "task-crash":
                # A pair task died on a live worker (e.g. a DFS replica
                # machine crashed mid-operation): recover just that pair,
                # in place if its worker is still usable.
                pair = message[1]
                self._emit("task-crash", pair=pair, worker=ctx.owner[pair])
                yield from self._recover_pairs(job, ctx, [pair], None, ckpt_acks)
                continue

            if kind == "ckpt":
                _, state_index, pair = message
                ckpt_acks[state_index].add(pair)
                if len(ckpt_acks[state_index]) == num_pairs:
                    old = ctx.checkpoint.state_index
                    if state_index > old:
                        ctx.checkpoint.state_index = state_index
                        ctx.checkpoint.path_prefix = self._state_prefix(job, state_index)
                        self._drop_state_files(job, old, num_pairs)
                        ctx.prune_replay(state_index)
                        # Oracle hook: the checkpoint is now the durable
                        # rollback point every recovery must respect.
                        self._emit("checkpoint-durable", state_index=state_index)
                continue

            if kind == "aux-terminate":
                aux_stop = True
                continue

            if kind != "report":
                continue

            _, iteration, pair, local_distance, _proc_time = message
            if iteration in ctx.completed:
                continue  # re-report from a recovered pair's re-run
            reports[iteration][pair] = (local_distance, _proc_time)
            if len(reports[iteration]) < num_pairs:
                continue

            # ---- iteration `iteration` complete ----
            pair_reports = reports.pop(iteration)
            ctx.completed.add(iteration)
            distance: float | None = None
            if job.distance_fn is not None:
                distance = merge_partials(
                    {p: d for p, (d, _t) in pair_reports.items()}, num_pairs
                )
            metrics.iterations.append(
                IterationMetrics(
                    index=iteration,
                    start=iter_start,
                    end=engine.now,
                    init_time=0.0,
                    distance=distance,
                )
            )
            self._emit("iteration-complete", iteration=iteration, distance=distance)
            iter_start = engine.now

            # The engine's rule, then the iteration budget — the order
            # run_supersteps checks them in.
            terminated_by = sync_rule(job, aux_stop, distance)
            if terminated_by == CONTINUE and (
                job.max_iterations is not None and iteration + 1 >= job.max_iterations
            ):
                terminated_by = "maxiter"

            if terminated_by != CONTINUE:
                self._emit("terminate", iteration=iteration, reason=terminated_by)
                # Stop at the decision instant: tasks can then be at most
                # one iteration ahead (completing k+1 requires virtual
                # time strictly after the last report of k), so the
                # two-deep state history always holds the named state.
                ctx.stop_all(iteration)
                return _GenOutcome(
                    kind="done",
                    terminated_by=terminated_by,
                    final_distance=distance,
                    last_iteration=iteration,
                )

            # ---- load balancing (§3.4.2) ----
            if (
                self.lb.enabled
                and iteration >= lb_block_until
                and num_pairs >= 3
                and ctx.checkpoint.state_index > 0
            ):
                times = {p: t for p, (_d, t) in pair_reports.items()}
                plan = plan_migration(ctx.owner, times, self.lb.deviation_threshold)
                if plan is not None:
                    yield engine.timeout(self.cost.heartbeat)
                    self._emit("migration", **plan)
                    return _GenOutcome(
                        kind="migrate", migration=plan, last_iteration=iteration
                    )

            # Release the next iteration's global barrier (sync mode only;
            # asynchronous tasks pace themselves through the data flow).
            if job.synchronous:
                yield engine.timeout(self.cost.sync_release_latency)
                for p in range(num_pairs):
                    ctx.map_boxes[0][p].put(("sync", iteration))

    # -------------------------------------------------- localized recovery --
    def _recover_pairs(
        self,
        job: IterativeJob,
        ctx: "_GenContext",
        affected: list[int],
        failed_worker: str | None,
        ckpt_acks: dict[int, set[int]],
    ):
        """Per-pair localized recovery (§3.4.1, narrowed).

        The paper restarts the whole generation from the last durable
        checkpoint when a worker fails; here only the *affected pairs*
        roll back.  Unaffected pairs keep their tasks, mailboxes and
        progress — in synchronous mode they simply hold at the barrier
        until the recovered pairs catch up, and in asynchronous mode the
        data flow paces them naturally.
        """
        engine = self.engine
        resume = ctx.checkpoint.state_index
        F = len(job.phases)
        affected_set = set(affected)

        # 1) Fence every process of the old incarnations — checkpoint
        #    writers included — so no zombie emission or stale ack can
        #    race the replacements.  (For a falsely-confirmed worker this
        #    interrupt models the lease expiry that makes a real node
        #    manager kill its own tasks once it loses the master.)
        for key in [k for k in ctx.pair_procs if k[2] in affected_set]:
            proc = ctx.pair_procs.pop(key)
            if proc.is_alive:
                proc.interrupt("fenced")
            if proc in ctx.procs:
                ctx.procs.remove(proc)
            if proc in ctx.map_procs:
                ctx.map_procs.remove(proc)
        for p in affected:
            for proc in ctx.ckpt_procs.pop(p, []):
                if proc.is_alive:
                    proc.interrupt("fenced")
        yield engine.timeout(0.0)  # let the interrupts land

        # 2) Pending checkpoints must wait for the replacements: drop the
        #    old incarnations' acks so the durable index cannot advance
        #    (and prune the files) while a replacement still needs to
        #    read the state it is about to resume from.
        for state_index, acks in ckpt_acks.items():
            if state_index > resume:
                acks -= affected_set

        # 3) Fresh mailboxes — the old ones hold a dead incarnation's
        #    partial gathers and dedup history.
        for j in range(F):
            for p in affected:
                ctx.map_boxes[j][p] = IterationMailbox(engine, f"map{j}.{p}")
                ctx.reduce_boxes[j][p] = IterationMailbox(engine, f"red{j}.{p}")

        # 4) Re-home the orphaned pairs onto the survivors.
        dead = self._dead_workers()
        if failed_worker is not None:
            dead.add(failed_worker)
        self._reassign_failed(ctx.owner, dead)

        # 5) Re-feed the logged cross-pair traffic for the iterations the
        #    replacements will re-run (live senders have moved on and
        #    will not resend), plus the barrier tokens already released.
        for p in affected:
            for j in range(F):
                ctx.replay_into("map", j, p, resume)
                ctx.replay_into("red", j, p, resume)
            if job.synchronous:
                for k in sorted(ctx.completed):
                    if k >= resume:
                        ctx.map_boxes[0][p].put(("sync", k))

        ctx.recoveries += 1
        for p in affected:
            self._emit(
                "pair-recovery",
                pair=p,
                from_worker=failed_worker,
                worker=ctx.owner[p],
                resume_state=resume,
            )

        # 6) Spawn the replacement incarnations: static data reloads from
        #    the DFS replica, state from the last durable checkpoint.
        for p in affected:
            try:
                for j in range(F):
                    for proc in self._spawn_pair(ctx, j, p, start=resume):
                        self._watch(ctx, proc, pair=p)
            except WorkerFailure as wf:
                # The chosen survivor died in the window: report it and
                # let the resulting failure message re-recover this pair.
                ctx.master_box.put(("failure", wf.worker))

    def _spawn_pair(self, ctx: "_GenContext", j: int, p: int, start: int | None = None):
        """Spawn phase ``j``'s persistent map and reduce task of pair ``p``
        on its assigned worker and register them for fencing; returns
        both processes."""
        worker = self.cluster[ctx.owner[p]]
        procs = []
        for kind, task in (("map", _map_task), ("red", _reduce_task)):
            proc = worker.spawn(task(ctx, j, p, worker, start), name=f"{kind}{j}.{p}")
            ctx.pair_procs[(kind, j, p)] = proc
            ctx.procs.append(proc)
            procs.append(proc)
        ctx.map_procs.append(procs[0])
        return procs

    def _drop_state_files(self, job: IterativeJob, state_index: int, num_pairs: int) -> None:
        prefix = self._state_prefix(job, state_index)
        for p in range(num_pairs):
            path = f"{prefix}/part-{p:05d}"
            if self.dfs.exists(path):
                self.dfs.delete(path)


# ============================ generation context ============================


@dataclass
class _GenContext:
    """Shared wiring for one generation of persistent tasks."""

    runtime: IMapReduceRuntime
    job: IterativeJob
    num_pairs: int
    owner: list[str]
    start_iter: int
    checkpoint: _Checkpoint
    map_boxes: list[list[IterationMailbox]]
    reduce_boxes: list[list[IterationMailbox]]
    master_box: Store
    aux_map_boxes: list[IterationMailbox]
    aux_reduce_boxes: list[IterationMailbox]
    accounts: dict[int, _IterAccount]
    #: The job's partitioner bound to the pair count / aux task count.
    part: Any = None
    aux_part: Any = None
    aux_workers: list[str] = field(default_factory=list)
    procs: list = field(default_factory=list)
    map_procs: list = field(default_factory=list)
    #: (boxkind, phase, dest_pair) -> {iteration -> {dedup_key: (message,
    #: nbytes, always_wire)}} — cross-pair traffic kept for replay.
    replay_log: dict = field(default_factory=dict)
    #: Iterations the master has fully accounted (guards re-reports from
    #: recovered pairs, and sources the re-issued sync tokens).
    completed: set = field(default_factory=set)
    #: ("map"|"red", phase, pair) -> Process, for fencing on recovery.
    pair_procs: dict = field(default_factory=dict)
    #: pair -> in-flight checkpoint-writer processes (fenced with it).
    ckpt_procs: dict = field(default_factory=dict)
    #: Localized recoveries performed in this generation.
    recoveries: int = 0
    #: Set once the master returned; quiesces the stall watchdog.
    done: bool = False
    #: Virtual time of the last master-visible progress (watchdog input).
    last_progress: float = 0.0

    # -- messaging ----------------------------------------------------------
    def send(
        self,
        boxkind: str,
        phase: int,
        dest_pair: int,
        message: tuple,
        nbytes: int,
        src_machine: Machine,
        src_pair: int | None = None,
        always_wire: bool = False,
    ):
        """Route one cross-task message to a mailbox.

        On a clean network this is event-identical to the historical
        ``transfer(...)`` + ``box.put(...)`` sequence (``always_wire``
        preserves call sites that paid the wire even for zero bytes), so
        failure-free timing is unchanged.  With a link fault model armed
        it becomes a stop-and-wait reliable channel: retransmit with
        exponential backoff until the receiver — looked up afresh each
        attempt, so recovery re-routes in-flight traffic — acknowledges;
        the receiver's mailbox suppresses retransmission duplicates.

        Cross-pair main-phase messages are also recorded in the replay
        log: live senders retain their shuffle output on local disk
        (§3.4.1), so a recovered pair can be re-fed traffic the dead
        incarnation already consumed without any global rollback.
        """
        key = (boxkind, phase, dest_pair, src_pair, message[0], message[1])
        if boxkind in ("map", "red") and src_pair is not None and src_pair != dest_pair:
            flows = self.replay_log.setdefault((boxkind, phase, dest_pair), {})
            flows.setdefault(message[1], {})[key] = (message, nbytes, always_wire)
        if self.cluster.net is None:
            if nbytes or always_wire:
                target = self.cluster[self._dest_worker(boxkind, dest_pair)]
                yield from self.cluster.transfer(src_machine, target, nbytes)
            self._box(boxkind, phase, dest_pair).deliver(message, key)
            return
        yield from self._reliable_send(
            boxkind, phase, dest_pair, message, nbytes, src_machine, key, always_wire
        )

    def _reliable_send(
        self, boxkind, phase, dest_pair, message, nbytes, src_machine, key, always_wire
    ):
        rto = channels.RTO_INITIAL
        for _attempt in range(channels.MAX_RETRIES):
            target = self.cluster[self._dest_worker(boxkind, dest_pair)]
            if nbytes or always_wire:
                delivered = yield from self.cluster.transfer(src_machine, target, nbytes)
            else:
                delivered = yield from self.cluster.control_send(src_machine, target)
            if delivered:
                self._box(boxkind, phase, dest_pair).deliver(message, key)
                acked = yield from self.cluster.control_send(target, src_machine)
                if acked:
                    return
                # Ack lost: the retransmit below re-delivers the same
                # message; the receiver's dedup set absorbs the duplicate.
            if self.runtime.chaos.skip_retransmit:
                return  # injected bug: fire-and-forget delivery
            yield self.engine.timeout(rto)
            rto = min(rto * channels.RTO_BACKOFF, channels.RTO_MAX)
        raise TaskFailure(
            f"{boxkind}{phase}.{dest_pair}",
            f"message {message[0]!r} for iteration {message[1]} undeliverable "
            f"after {channels.MAX_RETRIES} retries",
        )

    def _dest_worker(self, boxkind: str, dest_pair: int) -> str:
        if boxkind in ("auxmap", "auxred"):
            return self.aux_workers[dest_pair]
        return self.owner[dest_pair]

    def _box(self, boxkind: str, phase: int, dest_pair: int) -> IterationMailbox:
        if boxkind == "map":
            return self.map_boxes[phase][dest_pair]
        if boxkind == "red":
            return self.reduce_boxes[phase][dest_pair]
        if boxkind == "auxmap":
            return self.aux_map_boxes[dest_pair]
        return self.aux_reduce_boxes[dest_pair]

    def prune_replay(self, state_index: int) -> None:
        """Forget logged traffic no future recovery can need (iterations
        before the durable checkpoint are never re-run)."""
        for flows in self.replay_log.values():
            for it in [i for i in flows if i < state_index]:
                del flows[it]

    def replay_into(self, boxkind: str, phase: int, pair: int, resume: int) -> None:
        """Seed a recovered pair's fresh mailbox with the logged cross-pair
        messages for iterations ≥ ``resume``.  Redelivery is charged no
        wire time: the bytes were paid for once and the retained local
        spill files serve the re-read (documented simplification)."""
        flows = self.replay_log.get((boxkind, phase, pair))
        if not flows:
            return
        box = self._box(boxkind, phase, pair)
        for it in sorted(flows):
            if it < resume:
                continue
            for key, (message, _nbytes, _always_wire) in flows[it].items():
                box.deliver(message, key)

    def stop_all(self, final_iteration: int | None = None) -> None:
        # Map tasks have no output to flush: interrupt them even
        # mid-computation (the run-ahead work of §3.3's asynchronous maps
        # is abandoned, as when the paper's master notifies termination).
        for proc in self.map_procs:
            proc.interrupt("stop")
        for row in self.map_boxes + self.reduce_boxes:
            for box in row:
                box.stop(final_iteration)
        for box in self.aux_map_boxes + self.aux_reduce_boxes:
            box.stop(final_iteration)

    def trace(self, kind: str, **fields) -> None:
        self.runtime._emit(kind, **fields)

    @property
    def engine(self):
        return self.runtime.engine

    @property
    def cluster(self):
        return self.runtime.cluster

    @property
    def cost(self):
        return self.runtime.cost

    @property
    def dfs(self):
        return self.runtime.dfs


# =============================== map task ===============================


def _map_task(
    ctx: _GenContext,
    phase_index: int,
    pair: int,
    worker: Machine,
    start: int | None = None,
):
    """Persistent map task for one phase/pair (paper §3.1.1, §3.2, §3.3).

    ``start`` overrides the generation's start iteration for replacement
    incarnations spawned by localized recovery (they resume from the last
    durable checkpoint while the generation's other pairs run ahead)."""
    engine, cost, job = ctx.engine, ctx.cost, ctx.job
    phase = job.phases[phase_index]
    box = ctx.map_boxes[phase_index][pair]
    num_pairs = ctx.num_pairs
    one2all = phase.mapping == "one2all"
    start = ctx.start_iter if start is None else start

    yield engine.timeout(cost.task_launch)

    # ---- one-time static load: DFS → local FS (§3.2) ----
    static: dict[Any, Any] = {}
    if phase.static_path is not None:
        part = ctx.runtime._part_file(phase.static_path, job, pair)
        static = dict((yield from ctx.dfs.read_all(part, worker)))
    static_sorted = sorted_static(static) if one2all else None

    # ---- initial state (phase 0 only; later phases receive in-iteration) ----
    initial_chunks: list[list] | None = None
    if phase_index == 0:
        gathered: list = []
        for q in range(num_pairs) if one2all else (pair,):
            gathered += yield from ctx.dfs.read_all(ctx.checkpoint.part(q), worker)
        initial_chunks = [gathered]

    def trace_start() -> None:
        ctx.trace(
            "map-iteration-start",
            worker=worker.name, task=f"map{phase_index}.{pair}",
            pair=pair, iteration=iteration,
        )

    def map_chunk(chunk: list):
        """Eager join + map on one chunk (§3.3), charged before and its
        emissions after."""
        nonlocal records_in
        yield from worker.compute(
            cost.noisy(
                cost.join_record_cpu * len(chunk)
                + cost.map_record_cpu * len(chunk),
                "imr-map", phase_index, pair, iteration,
            )
        )
        # One static record + the full broadcast state (§5.1.2).
        broadcast = sort_records(chunk) if one2all else None
        chunk_keys, chunk_values = run_map(phase, chunk, static, static_sorted, broadcast)
        records_in += len(static_sorted) if one2all else len(chunk)
        keys.extend(chunk_keys)
        values.extend(chunk_values)
        yield from worker.compute(
            cost.noisy(
                cost.emit_record_cpu * len(chunk_keys),
                "imr-emit", phase_index, pair, iteration,
            )
        )

    iteration = start
    try:
        while True:
            keys: list = []
            values: list = []
            records_in = 0
            work_start = engine.now

            if initial_chunks is not None:
                chunks, initial_chunks = initial_chunks, None
                trace_start()
                for chunk in chunks:
                    yield from map_chunk(chunk)
            else:
                if job.synchronous and phase_index == 0 and iteration > start:
                    # Global barrier: previous iteration fully reported.
                    # The master releases it to phase 0's maps; a later
                    # phase's maps are paced by the earlier phases' data.
                    yield from box.wait_control("sync", iteration - 1)
                senders = num_pairs if one2all else 1
                finished: set = set()
                broadcast_pending: dict[int, list] = defaultdict(list)
                first_chunk = True
                while len(finished) < senders:
                    message = yield from box.next_message(("state",), iteration)
                    if first_chunk:
                        # Processing-time clock starts when input arrives,
                        # not while waiting for the paired reduce.
                        work_start = engine.now
                        first_chunk = False
                        trace_start()
                    _, _, sender, chunk, last = message
                    if last:
                        finished.add(sender)
                    if one2all:
                        # Cannot start before every reducer's output arrives
                        # (§5.1.2: the map needs the intact state set),
                        # which it then takes in ascending sender order.
                        broadcast_pending[sender] += chunk
                        if len(finished) < senders:
                            continue
                        chunk = [
                            rec for q in sorted(broadcast_pending)
                            for rec in broadcast_pending[q]
                        ]
                    yield from map_chunk(chunk)

            # ---- combiner (map-side aggregation), then routing ----
            if phase.combiner is not None:
                grouped = group_by_dest(zip(keys, values), ctx.part)
                out = {
                    q: columns
                    for q, columns in reduce_groups(phase.combiner, grouped)
                    if columns[0]
                }
                yield from worker.compute(cost.combine_value_cpu * len(keys))
            else:
                out = route_columns(keys, values, ctx.part)

            # ---- shuffle to this phase's reduce tasks ----
            acct = ctx.accounts[iteration]
            acct.map_records += records_in
            part_sizes = {q: sizeof_records(zip(*columns)) for q, columns in out.items()}
            yield from worker.compute(
                cost.serialize_byte_cpu * sum(part_sizes.values())
            )
            # iMapReduce keeps intermediate data in files (§6): spill the
            # partitioned map output to local disk before serving it.
            yield from worker.disk_write(sum(part_sizes.values()))
            for q in range(num_pairs):
                if q in out:
                    nbytes = part_sizes[q]
                    acct.shuffle_bytes += nbytes
                    yield from ctx.send(
                        "red", phase_index, q,
                        ("mapout", iteration, pair, *out[q]),
                        nbytes, worker, src_pair=pair,
                    )
            for q in range(num_pairs):
                yield from ctx.send(
                    "red", phase_index, q,
                    ("mapdone", iteration, pair), 0, worker, src_pair=pair,
                )
            if phase_index == 0:
                # Report this pair's map processing duration to its
                # final-phase reduce for the §3.4.2 completion report.
                ctx.reduce_boxes[len(job.phases) - 1][pair].put(
                    ("mapdur", iteration, pair, engine.now - work_start)
                )
            ctx.trace(
                "map-iteration-end",
                worker=worker.name, task=f"map{phase_index}.{pair}",
                pair=pair, iteration=iteration,
            )
            iteration += 1
    except StopIteration_:
        return ("stopped", phase_index, pair)


# =============================== reduce task ===============================


def _reduce_task(
    ctx: _GenContext,
    phase_index: int,
    pair: int,
    worker: Machine,
    start: int | None = None,
):
    """Persistent reduce task for one phase/pair.

    ``start`` as for :func:`_map_task`: replacement incarnations resume
    from the checkpoint index instead of the generation's start."""
    engine, cost, job = ctx.engine, ctx.cost, ctx.job
    phase = job.phases[phase_index]
    box = ctx.reduce_boxes[phase_index][pair]
    num_pairs = ctx.num_pairs
    is_last_phase = phase_index == len(job.phases) - 1
    track_distance = is_last_phase and job.distance_fn is not None
    interval = job.checkpoint_interval
    start = ctx.start_iter if start is None else start

    yield engine.timeout(cost.task_launch)

    prev_state: dict[Any, Any] = {}
    if track_distance:
        prev_state = dict((yield from ctx.dfs.read_all(ctx.checkpoint.part(pair), worker)))

    iteration = start
    # The final-phase reduce keeps its last two iterations' outputs so it
    # can dump whichever one the master's stop decision names (tasks may
    # legitimately run one iteration ahead in asynchronous mode).
    state_history: dict[int, list[tuple[Any, Any]]] = {}
    try:
        while True:
            keys, values = yield from box.gather_map_outputs(iteration, num_pairs)
            gather_end = engine.now
            ctx.trace(
                "reduce-iteration-start",
                worker=worker.name, task=f"red{phase_index}.{pair}",
                pair=pair, iteration=iteration,
            )

            merge_bytes = sizeof_records(zip(keys, values))
            yield from worker.disk_read(merge_bytes)
            yield from worker.compute(
                cost.noisy(
                    cost.sort_cost(len(values))
                    + cost.merge_byte_cpu * merge_bytes,
                    "imr-shuffle", phase_index, pair, iteration,
                )
            )
            acct = ctx.accounts[iteration]
            acct.reduce_records += len(values)

            next_phase = (phase_index + 1) % len(job.phases)
            next_iteration = iteration + (1 if next_phase == 0 else 0)
            streaming = job.phases[next_phase].mapping == "one2one"
            buffer = max(1, job.buffer_records)
            target_box = ctx.map_boxes[next_phase][pair]

            def flush(last: bool):
                """Stream the records emitted since the last flush to the
                paired map (§3.3): the eager trigger the paper amortises
                with the buffer."""
                chunk = list(zip(rctx.keys[len(output):], rctx.values[len(output):]))
                output.extend(chunk)
                for rec in chunk:
                    q = ctx.part(rec[0])
                    if q != pair:
                        raise TaskFailure(
                            f"reduce{phase_index}.{pair}",
                            f"one2one phase emitted key {rec[0]!r} belonging "
                            f"to partition {q}; use mapping='one2all' or keep "
                            "keys within their partition",
                        )
                acct.state_bytes += sizeof_records(chunk)
                # The paired map lives on the same worker (scheduler
                # guarantee), so no NIC cost — only the per-flush
                # context-switch overhead (§3.3).
                yield engine.timeout(cost.heartbeat / 50.0)
                target_box.put(("state", next_iteration, pair, chunk, last))

            # ---- reduce, streaming buffers out as they fill (§3.3) ----
            rctx = Context()
            output: list = []  # the records flushed so far
            charged_values = 0
            consumed = 0
            ((_none, groups),) = group_by_dest(zip(keys, values))
            for key, group in groups:
                phase.reduce_fn(key, group, rctx)
                consumed += len(group)
                if streaming and len(rctx.values) - len(output) >= buffer:
                    yield from worker.compute(
                        cost.noisy(
                            cost.reduce_value_cpu * (consumed - charged_values)
                            + cost.emit_record_cpu * (len(rctx.values) - len(output)),
                            "imr-reduce", phase_index, pair, iteration, len(output),
                        )
                    )
                    yield from flush(last=False)
                    charged_values = consumed
            yield from worker.compute(
                cost.noisy(
                    cost.reduce_value_cpu * (consumed - charged_values)
                    + cost.emit_record_cpu * (len(rctx.values) - len(output)),
                    "imr-reduce", phase_index, pair, iteration, len(output),
                )
            )
            if streaming:
                yield from flush(last=True)
            else:
                output = list(zip(rctx.keys, rctx.values))

            if is_last_phase:
                state_history[iteration] = output
                state_history.pop(iteration - 2, None)
                # ---- distance (§3.1.2) ----
                local_distance: float | None = None
                if track_distance:
                    yield from worker.compute(cost.distance_record_cpu * len(output))
                    local_distance, prev_state = distance_partial(
                        job.distance_fn, prev_state, output
                    )

                # ---- checkpoint (§3.4.1, parallel with the iteration) ----
                state_index = iteration + 1
                if interval > 0 and state_index % interval == 0:
                    path = (
                        f"{ctx.runtime._state_prefix(job, state_index)}"
                        f"/part-{pair:05d}"
                    )

                    ckpt_data = list(output)
                    if ctx.runtime.chaos.stale_checkpoint_content:
                        ckpt_data = list(state_history.get(iteration - 1, output))

                    def ckpt_proc(path=path, data=ckpt_data, s=state_index):
                        if not ctx.runtime.chaos.skip_checkpoint_write:
                            yield from ctx.dfs.write(path, data, worker, overwrite=True)
                        ctx.trace(
                            "checkpoint", worker=worker.name, pair=pair,
                            state_index=s,
                        )
                        ctx.master_box.put(("ckpt", s, pair))

                    proc = worker.spawn(ckpt_proc(), name=f"ckpt.{pair}")
                    # Registered so a localized recovery can fence the
                    # writer of a superseded incarnation.
                    writers = ctx.ckpt_procs.setdefault(pair, [])
                    writers[:] = [w for w in writers if w.is_alive]
                    writers.append(proc)

                # ---- report to master (§3.4.2 completion report) ----
                # Processing time = this pair's map work + reduce work;
                # both scale with the worker's speed and partition size,
                # which is what the load balancer needs to see.
                dur_msg = yield from box.next_message(("mapdur",), iteration)
                map_duration = dur_msg[3]
                ctx.master_box.put(
                    (
                        "report",
                        iteration,
                        pair,
                        local_distance,
                        map_duration + (engine.now - gather_end),
                    )
                )

                # ---- copy to the auxiliary phase, if any (§5.3) ----
                if ctx.aux_map_boxes:
                    aux_n = len(ctx.aux_map_boxes)
                    aux_parts: dict[int, list] = defaultdict(list)
                    for rec in output:
                        aux_parts[ctx.aux_part(rec[0])].append(rec)
                    for t in range(aux_n):
                        recs = aux_parts.get(t, [])
                        nbytes = sizeof_records(recs)
                        acct.state_bytes += nbytes
                        yield from ctx.send(
                            "auxmap", 0, t,
                            ("state", iteration, pair, recs, True),
                            nbytes, worker, src_pair=pair,
                        )

            # ---- broadcast state to every next-phase map (§5.1) ----
            if not streaming:
                nbytes = sizeof_records(output)
                for q in range(num_pairs):
                    ctx.accounts[iteration].state_bytes += nbytes
                    # always_wire: the historical path paid the wire even
                    # for an empty broadcast — timing must not change.
                    yield from ctx.send(
                        "map", next_phase, q,
                        ("state", next_iteration, pair, list(output), True),
                        nbytes, worker, src_pair=pair, always_wire=True,
                    )
            ctx.trace(
                "reduce-iteration-end",
                worker=worker.name, task=f"red{phase_index}.{pair}",
                pair=pair, iteration=iteration,
            )
            iteration += 1
    except StopIteration_ as stop:
        if is_last_phase:
            # Dump the final state to the DFS (§3.1: "written to DFS only
            # once when the iteration terminates") — exactly the iteration
            # the master's decision names, even if we ran ahead.
            final = stop.final_iteration
            if final is None or final not in state_history:
                final = max(state_history, default=None)
            data = state_history.get(final, []) if final is not None else []
            yield from ctx.dfs.write(
                job.part_path(pair), data, worker, overwrite=True
            )
        return ("stopped", phase_index, pair)


# =============================== aux tasks ===============================


def _aux_map_task(ctx: _GenContext, task: int, worker: Machine):
    """Auxiliary-phase map: observes the main phase's output (§5.3)."""
    engine, cost, job = ctx.engine, ctx.cost, ctx.job
    aux = job.aux
    assert aux is not None
    box = ctx.aux_map_boxes[task]
    task_state: dict = {}
    iteration = ctx.start_iter
    yield engine.timeout(cost.task_launch)
    try:
        while True:
            chunks = yield from box.gather_state_chunks(iteration, ctx.num_pairs)
            records = [rec for chunk in chunks for rec in chunk]
            keys, values = aux.map_step(task_state, records)
            yield from worker.compute(
                cost.map_record_cpu * len(records)
                + cost.emit_record_cpu * len(keys)
            )
            routed = route_columns(keys, values, ctx.aux_part)
            for t in range(len(ctx.aux_reduce_boxes)):
                if t in routed:
                    yield from ctx.send(
                        "auxred", 0, t,
                        ("mapout", iteration, task, *routed[t]),
                        sizeof_records(zip(*routed[t])), worker, src_pair=task,
                    )
                yield from ctx.send(
                    "auxred", 0, t,
                    ("mapdone", iteration, task), 0, worker, src_pair=task,
                )
            iteration += 1
    except StopIteration_:
        return ("stopped", "auxmap", task)


def _aux_reduce_task(ctx: _GenContext, task: int, worker: Machine):
    """Auxiliary-phase reduce: may signal global termination (§5.3)."""
    engine, cost, job = ctx.engine, ctx.cost, ctx.job
    aux = job.aux
    assert aux is not None
    box = ctx.aux_reduce_boxes[task]
    task_state: dict = {}
    iteration = ctx.start_iter
    yield engine.timeout(cost.task_launch)
    try:
        while True:
            keys, values = yield from box.gather_map_outputs(iteration, aux.num_tasks)
            yield from worker.compute(cost.sort_cost(len(values)))
            stop = aux.reduce_step(task_state, zip(keys, values))
            yield from worker.compute(cost.reduce_value_cpu * len(values))
            if stop:
                ctx.master_box.put(("aux-terminate", iteration))
            iteration += 1
    except StopIteration_:
        return ("stopped", "auxred", task)
