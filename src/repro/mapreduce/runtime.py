"""The Hadoop-like baseline engine.

Executes one :class:`~repro.mapreduce.job.Job` at a time on the simulated
cluster, the way Hadoop 0.x ran it:

1. job setup at the master (``job_setup`` virtual seconds);
2. a *map wave*: one map task per input block, placed locality-first into
   per-worker map slots, each task paying ``task_launch``, reading its
   block from the DFS, running the user mapper, partitioning (and
   optionally combining) its output and spilling it to local disk;
3. a *reduce wave*: each reduce task fetches its partition from every map
   task's machine (network unless co-located), sorts/merges, runs the
   user reducer, and writes ``part-NNNNN`` back to the DFS with
   replication;
4. job cleanup.

Failed workers are handled the Hadoop way: the affected tasks are
rescheduled on surviving workers (map outputs on a dead machine are
recomputed by re-running those map tasks).

The user's map/reduce functions really execute; every modelled cost is
charged from the :class:`~repro.mapreduce.costmodel.CostModel`.  The
tasks compute with the iMapReduce engine's per-pair functions: a map
task takes its emissions as columns (``Context.take_columns``) and
routes them with :func:`~repro.common.partition.bind_partitioner` and
:func:`~repro.imapreduce.localrun.route_columns` — or combines them per
partition with :func:`~repro.imapreduce.localrun.reduce_groups` over
:func:`~repro.common.records.group_by_dest` — and a reduce task groups
what it fetched, in map order, with
:func:`~repro.common.records.group_by_key`.  No grouping plan is kept:
every job is a fresh Hadoop job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..cluster import Cluster, Machine
from ..common.errors import SchedulingError, TaskFailure, WorkerFailure
from ..common.partition import bind_partitioner
from ..common.records import group_by_dest, group_by_key
from ..common.serialization import sizeof_records
from ..dfs import DFS, Split
from ..simulation import Store
from .api import Context
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .job import Job, JobResult, JobStats

__all__ = ["MapReduceRuntime"]


@dataclass
class _MapOutput:
    """One map task's partitioned, locally-spilled output."""

    map_id: int
    worker: str
    partitions: dict[int, tuple[list, list]]  # reduce -> (keys, values)
    sizes: dict[int, int]
    records_in: int
    op_start: float  # when the map operation began (init-time accounting)


@dataclass
class _ReduceOutput:
    reduce_id: int
    counters: dict[str, float]
    records_out: int
    shuffled_records: int
    shuffled_bytes: int


class MapReduceRuntime:
    """Runs Hadoop-style jobs on a simulated cluster."""

    #: Hadoop's default of two slots of each kind per worker (§3.1.1).
    def __init__(
        self,
        cluster: Cluster,
        dfs: DFS,
        cost: CostModel = DEFAULT_COST_MODEL,
        map_slots_per_worker: int = 2,
        reduce_slots_per_worker: int = 2,
        max_task_retries: int = 4,
        speculative_execution: bool = False,
    ):
        self.cluster = cluster
        self.dfs = dfs
        self.engine = cluster.engine
        self.cost = cost
        self.map_slots = map_slots_per_worker
        self.reduce_slots = reduce_slots_per_worker
        self.max_task_retries = max_task_retries
        #: Hadoop-style backup tasks ([40] in the paper): once a wave is
        #: half done and slots sit idle, clone a still-running task onto a
        #: different worker; the first finisher wins.  Off by default (the
        #: paper's evaluation does not exercise it); the
        #: heterogeneous-cluster ablation turns it on.
        self.speculative = speculative_execution

    # -- public API -------------------------------------------------------
    def submit(self, job: Job) -> JobResult:
        """Run ``job`` to completion; virtual time accumulates across
        submissions on the same cluster (a job chain is a timeline)."""
        proc = self.engine.process(self._job_proc(job), name=f"mr-job:{job.name}")
        return self.engine.run(proc)

    # -- job orchestration ----------------------------------------------------
    def _job_proc(self, job: Job):
        engine = self.engine
        start = engine.now
        net_before = self.cluster.network_bytes
        yield engine.timeout(self.cost.job_setup)

        splits: list[Split] = []
        for path in job.input_paths:
            splits.extend(self.dfs.splits(path))

        # ---- map wave ----
        map_results: list[_MapOutput] = yield from self._run_wave(
            tasks=list(enumerate(splits)),
            slots_per_worker=self.map_slots,
            runner=lambda task, worker: self._map_task(job, task[0], task[1], worker),
            locations=lambda task: task[1].locations,
            kind="map",
        )
        map_results.sort(key=lambda m: m.map_id)

        # ---- reduce wave ----
        reduce_results: list[_ReduceOutput] = yield from self._run_wave(
            tasks=list(range(job.num_reduces)),
            slots_per_worker=self.reduce_slots,
            runner=lambda task, worker: self._reduce_task(job, task, worker, map_results),
            locations=lambda task: (),
            kind="reduce",
        )
        reduce_results.sort(key=lambda r: r.reduce_id)

        yield engine.timeout(self.cost.job_cleanup)
        end = engine.now

        counters: dict[str, float] = {}
        for r in reduce_results:
            for name, value in r.counters.items():
                counters[name] = counters.get(name, 0.0) + value

        # Paper §4.2: initialization time is measured from job submission
        # to the *average* instant map tasks start their map operation,
        # plus the cleanup tail.
        mean_map_op_start = sum(m.op_start for m in map_results) / len(map_results)
        init_time = (mean_map_op_start - start) + self.cost.job_cleanup

        stats = JobStats(
            init_time=init_time,
            map_records=sum(m.records_in for m in map_results),
            reduce_records=sum(r.shuffled_records for r in reduce_results),
            output_records=sum(r.records_out for r in reduce_results),
            shuffle_records=sum(r.shuffled_records for r in reduce_results),
            shuffle_bytes=sum(r.shuffled_bytes for r in reduce_results),
            network_bytes=self.cluster.network_bytes - net_before,
            num_map_tasks=len(map_results),
            num_reduce_tasks=len(reduce_results),
        )
        return JobResult(
            job=job,
            start=start,
            end=end,
            counters=counters,
            stats=stats,
            output_paths=job.output_part_paths(),
        )

    # -- wave scheduling ---------------------------------------------------------
    def _run_wave(self, tasks, slots_per_worker, runner, locations, kind):
        """Schedule ``tasks`` into per-worker slots; returns their results.

        Locality-first greedy assignment, FIFO completion handling,
        Hadoop-style rescheduling of tasks lost to worker failures, and
        (optionally) speculative backup attempts for wave stragglers.
        """
        engine = self.engine
        completions = Store(engine)
        total = len(tasks)
        pending = deque(range(total))
        free = {m.name: slots_per_worker for m in self.cluster.alive_workers()}
        attempts: dict[int, list] = {i: [] for i in range(total)}
        done: dict[int, Any] = {}
        running = 0
        retries = 0
        backups = 0
        max_backups = len(self.cluster)

        def monitor(idx, worker: Machine, proc):
            try:
                result = yield proc
            except BaseException as exc:  # user code raised in the task
                completions.put((idx, worker, ("error", exc)))
                return
            completions.put((idx, worker, result))

        def launch(idx, worker_name):
            nonlocal running
            free[worker_name] -= 1
            machine = self.cluster[worker_name]
            proc = machine.spawn(runner(tasks[idx], machine), name=f"{kind}-task")
            attempts[idx].append((worker_name, proc))
            engine.process(monitor(idx, machine, proc), name=f"{kind}-mon")
            running += 1

        def try_assign():
            nonlocal backups
            progress = True
            while pending and progress:
                progress = False
                for _ in range(len(pending)):
                    idx = pending.popleft()
                    worker = self._pick_worker(free, locations(tasks[idx]))
                    if worker is None:
                        pending.append(idx)
                        continue
                    launch(idx, worker)
                    progress = True
            if not self.speculative or pending or len(done) * 2 < total:
                return
            # Speculation: the wave is at least half done and slots are
            # idle — back up single-attempt stragglers elsewhere.
            for idx in range(total):
                if backups >= max_backups:
                    break
                if idx in done or len(attempts[idx]) != 1:
                    continue
                avoid = attempts[idx][0][0]
                candidates = {w: f for w, f in free.items() if w != avoid}
                worker = self._pick_worker(candidates, ())
                if worker is not None:
                    launch(idx, worker)
                    backups += 1

        try_assign()
        while running:
            idx, worker, result = yield completions.get()
            running -= 1
            is_ok = isinstance(result, tuple) and result and result[0] == "ok"

            if idx in done:
                # A duplicate attempt resolving after the winner: reclaim
                # the slot; its output is discarded.
                if not worker.failed:
                    free[worker.name] = free.get(worker.name, 0) + 1
                try_assign()
                continue

            if is_ok:
                done[idx] = result[1]
                if not worker.failed:
                    free[worker.name] = free.get(worker.name, 0) + 1
                # First finisher wins: kill any other attempt (Hadoop
                # prefers the first completed task's output).
                for other_worker, proc in attempts[idx]:
                    if proc.is_alive:
                        proc.interrupt("speculation-loser")
            elif isinstance(result, tuple) and result and result[0] == "error":
                raise TaskFailure(f"{kind}:{idx}", result[1])
            else:
                # Worker failure (or a stray cancellation): drop the dead
                # worker's slots and requeue unless a twin attempt runs.
                if isinstance(result, WorkerFailure):
                    free.pop(worker.name, None)
                attempts[idx] = [
                    (w, p) for w, p in attempts[idx] if w != worker.name
                ]
                if not attempts[idx]:
                    retries += 1
                    if retries > self.max_task_retries * max(total, 1):
                        raise SchedulingError(
                            f"{kind} wave: too many task retries ({retries})"
                        )
                    if not any(v > 0 for v in free.values()) and not running:
                        refreshed = {
                            m.name: slots_per_worker
                            for m in self.cluster.alive_workers()
                        }
                        if not refreshed:
                            raise SchedulingError(
                                f"{kind} wave: no alive workers left"
                            )
                        free.update(refreshed)
                    pending.append(idx)
            try_assign()
            if not running and pending:
                raise SchedulingError(
                    f"{kind} wave: {len(pending)} tasks unassignable"
                )
        return [done[i] for i in sorted(done)]

    def _pick_worker(self, free_slots: dict[str, int], preferred: Iterable[str]) -> str | None:
        """Locality first; otherwise the free worker with most slots."""
        for name in preferred:
            if free_slots.get(name, 0) > 0 and not self.cluster[name].failed:
                return name
        best: str | None = None
        best_free = 0
        for name, free in free_slots.items():
            if free > best_free and not self.cluster[name].failed:
                best, best_free = name, free
        return best

    # -- tasks -----------------------------------------------------------------
    def _map_task(self, job: Job, map_id: int, split: Split, worker: Machine):
        # Imported here: repro.imapreduce imports this package (Context).
        from ..imapreduce.localrun import reduce_groups, route_columns

        engine = self.engine
        cost = self.cost
        yield engine.timeout(cost.task_launch)
        if job.side_inputs:
            side_data = {}
            for path in job.side_inputs:
                side_data[path] = yield from self.dfs.read_all(path, worker)
            if hasattr(job.mapper, "configure"):
                job.mapper.configure(side_data)
        op_start = engine.now
        records = yield from self.dfs.read_block(split.path, split.block_index, worker)

        # One Context per task: a mapper may use its counters as a
        # once-per-task flag (kmeans offers its centroids once).
        ctx = Context()
        mapper = job.mapper
        for key, value in records:
            mapper.map(key, value, ctx)
        keys, values = ctx.take_columns()

        part = bind_partitioner(job.partitioner, job.num_reduces)
        work = cost.map_record_cpu * len(records) + cost.emit_record_cpu * len(keys)
        if job.combiner is None:
            partitions = route_columns(keys, values, part)
        else:
            partitions = dict(reduce_groups(
                job.combiner.reduce, group_by_dest(zip(keys, values), part)
            ))
            work += cost.combine_value_cpu * len(keys)

        sizes = {dest: sizeof_records(zip(*columns))
                 for dest, columns in partitions.items()}
        work += cost.serialize_byte_cpu * sum(sizes.values())
        yield from worker.compute(cost.noisy(work, "map", job.name, map_id))

        yield from worker.disk_write(sum(sizes.values()))
        return (
            "ok",
            _MapOutput(
                map_id=map_id,
                worker=worker.name,
                partitions=partitions,
                sizes=sizes,
                records_in=len(records),
                op_start=op_start,
            ),
        )

    def _reduce_task(self, job: Job, reduce_id: int, worker: Machine, map_outputs: list[_MapOutput]):
        engine = self.engine
        cost = self.cost
        yield engine.timeout(cost.task_launch)

        keys: list = []
        values: list = []
        shuffled_bytes = 0
        for output in map_outputs:
            part_keys, part_values = output.partitions.get(reduce_id, ((), ()))
            if not part_keys:
                continue
            nbytes = output.sizes[reduce_id]
            yield from self.cluster.transfer(output.worker, worker, nbytes)
            yield from worker.disk_write(nbytes)
            keys.extend(part_keys)
            values.extend(part_values)
            shuffled_bytes += nbytes

        yield from worker.disk_read(shuffled_bytes)
        yield from worker.compute(
            cost.noisy(
                cost.sort_cost(len(keys)) + cost.merge_byte_cpu * shuffled_bytes,
                "shuffle", job.name, reduce_id,
            )
        )

        ctx = Context()
        reducer = job.reducer
        for key, group in group_by_key(zip(keys, values)):
            reducer.reduce(key, group, ctx)
        out = ctx.take()
        yield from worker.compute(
            cost.noisy(
                cost.reduce_value_cpu * len(keys)
                + cost.emit_record_cpu * len(out),
                "reduce", job.name, reduce_id,
            )
        )

        yield from self.dfs.write(job.part_path(reduce_id), out, worker, overwrite=True)
        return (
            "ok",
            _ReduceOutput(
                reduce_id=reduce_id,
                counters=dict(ctx.counters),
                records_out=len(out),
                shuffled_records=len(keys),
                shuffled_bytes=shuffled_bytes,
            ),
        )
