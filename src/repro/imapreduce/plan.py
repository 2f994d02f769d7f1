"""One runner under every cell: ``execute(job, inputs, statics, plan)``.

A job is described once and submitted once (paper §3.5); *how* it runs
— which backend, which accumulative schedule, warm or cold, with or
without fault tolerance — is an :class:`ExecutionPlan`, and which of
those combinations exist is the :data:`SUPPORT` table: one row per
(job algebra × backend × start × fault-tolerance) cell, holding either
the function that runs it and the test that judges it, or the reason it
is refused.  :func:`execute` resolves the cell first — a refused or
malformed plan raises :class:`PlanError` before anything is
partitioned, spooled or spawned — then applies the warm start (both
algebras, one place) and runs the cell as two halves composed:

* the job's **algebra** — its verdict policy
  (:class:`~repro.imapreduce.engine.SyncVerdict` or
  :class:`~repro.imapreduce.engine.AccumVerdict`), the fields every host
  of its pairs gets and its result type — and its **executor**, picked
  once (:func:`~repro.imapreduce.localrun.select_executor`), which owns
  the layout: its ``split_inputs`` partitions the inputs over the job's
  ``static_paths`` (a columnar executor — every accumulative job's
  :class:`~repro.imapreduce.columnar.ColumnarAccum` included — into
  arrays, in the job's one state dtype), and its ``join`` assembles the
  final state;
* the plan's **host** (:data:`_HOSTS`) — every pair in this process over
  the loopback transport, the same over the seeded deferring loopback
  with per-round jitter (the simulated backend), or the pipe mesh under
  its one supervisor (:func:`~repro.imapreduce.parallel.host_mesh`:
  spawn → coordinate → on a worker death fence, then restore through the
  executor or raise → shut down).  Every host, and every mesh worker,
  runs the executor class it is handed.  Accumulative runs pass through
  that supervisor with recovery unarmed, since :data:`SUPPORT` refuses
  their fault-tolerant cells.

``run_local``, ``run_parallel``, ``run_accum_local`` and
``run_accum_parallel`` are thin wrappers over the same runner, with the
signatures the benchmark calls and the keywords no plan field carries
(``initial_state``, ``max_recoveries``, ``reassign_on_failure``);
``run_incremental_accum`` wraps :func:`execute`.  ``repro run`` builds a
plan and calls :func:`execute`; ``repro modes`` prints the table.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..common.errors import JobError
from ..common.partition import bind_partitioner
from .accum import AccumJob, AccumRunResult, check_mode
from .checkpoint import ProcFault
from .columnar import StateColumns
from .engine import AccumVerdict, SyncVerdict, gc_paused
from .incremental import (
    ChangeModel,
    DataDelta,
    change_model,
    cold_rerun_inputs,
    random_edge_churn,
    warm_sync_state,
)
from .job import IterativeJob
from .localrun import LocalRunResult, host_loopback, host_simulated, select_executor
from .parallel import ParallelRunResult, host_mesh

__all__ = [
    "PlanError",
    "WarmStart",
    "ExecutionPlan",
    "Cell",
    "SUPPORT",
    "resolve",
    "execute",
    "run_local",
    "run_parallel",
    "run_accum_local",
    "run_accum_parallel",
    "run_incremental_accum",
    "refresh_vs_cold",
    "format_support",
]


class PlanError(JobError):
    """The plan names a refused cell, or a value no cell accepts."""


@dataclass(frozen=True)
class WarmStart:
    """Refresh instead of rerun: ``execute``'s ``inputs`` are then the
    memoized converged state and ``statics`` the *pre-delta* input;
    ``delta`` is patched in and ``model``'s change plan (a
    :class:`~repro.imapreduce.incremental.ChangeModel`, from
    ``change_model``) scopes the rerun."""

    model: ChangeModel
    delta: DataDelta


@dataclass(frozen=True)
class ExecutionPlan:
    """How to run a job.  Every field is a keyword some ``run_*`` entry
    already takes, with that entry's default; ``mode=None`` means an
    iterative job (an accumulative one then defaults to ``"async"``)."""

    backend: str = "serial"  # "serial" | "parallel" | "simulated"
    num_pairs: int = 4
    num_workers: int | None = None
    mode: str | None = None
    warm: WarmStart | None = None
    checkpoint_every: int | None = None
    spool_dir: str | None = None
    faults: tuple = ()
    start_method: str | None = None
    timeout: float | None = 600.0
    heartbeat_interval: float | None = 0.5
    suspicion_timeout: float | None = 30.0
    keep_history: bool = False
    keep_trace: bool = False
    seed: int = 0

    @property
    def fault_tolerant(self) -> bool:
        return bool(
            self.checkpoint_every is not None or self.spool_dir or self.faults
        )


@dataclass(frozen=True)
class Cell:
    """One :data:`SUPPORT` row: ``entry`` names the function that runs
    the cell (``refusal`` says why nothing does), ``oracle`` the test
    that exercises it, ``flags`` the ``repro run`` options it consumes
    beyond ``--backend``/``--mode``, ``modes`` the accumulative
    schedules it accepts."""

    entry: str | None = None
    refusal: str = ""
    oracle: str = ""
    flags: frozenset = frozenset()
    modes: tuple = ("sync", "async")


ITERATIVE, ACCUMULATIVE = "iterative", "accumulative"
BACKENDS = ("simulated", "serial", "parallel")

_FT = "--checkpoint-every/--spool-dir/--kill-worker"
_NEED_PARALLEL = Cell(refusal=f"{_FT} need --backend parallel")
_NO_ACCUM_FT = Cell(refusal=(
    f"{_FT} do not apply to accumulative runs (deltas are in flight by "
    "design; worker death is terminal)"
))
_NO_SIM_WARM = Cell(refusal=(
    "--memo-dir needs --backend serial or parallel (seeded delivery "
    "deferral has no warm-start story)"
))
SIMULATED_SYNC = (
    "--backend simulated only supports --mode async (delivery deferral "
    "needs the async scheduler)"
)

_CLUSTER = frozenset({"dataset", "engine", "cluster", "iterations", "sync",
                      "combiner", "measure_distance", "seed"})
_CLASSIC = frozenset({"dataset", "pairs", "iterations", "combiner", "seed"})
_ACCUM = frozenset({"dataset", "pairs"})
_MEMO = frozenset({"memo_dir", "delta", "delta_seed"})
_FAULTS = frozenset({"checkpoint_every", "spool_dir", "kill_worker"})
_WORKERS = frozenset({"workers"})
_MATRIX = "tests/test_cli_matrix.py::"


def _run(entry: str, test: str, flags: frozenset, **kw) -> Cell:
    return Cell(entry=entry, oracle=_MATRIX + test, flags=flags, **kw)


#: (algebra, backend, warm, fault_tolerant) -> Cell.  The whole mode
#: matrix; a new capability is a changed row here, not a new driver.
SUPPORT: dict[tuple[str, str, bool, bool], Cell] = {
    # The simulated cluster runs classic jobs through the figure runner
    # (RunSpec -> experiments.workloads.execute), which builds from the
    # same workload table as every other cell (--engine mapreduce picks
    # the table's Hadoop-baseline row); it is the one cell execute()
    # cannot call.
    (ITERATIVE, "simulated", False, False): _run(
        "experiments.workloads.execute", "test_run_cell[classic-simulated]",
        _CLUSTER),
    (ITERATIVE, "simulated", False, True): _NEED_PARALLEL,
    (ITERATIVE, "simulated", True, False): _NO_SIM_WARM,
    (ITERATIVE, "simulated", True, True): _NO_SIM_WARM,
    (ITERATIVE, "serial", False, False): _run(
        "run_local", "test_run_cell[classic-serial]", _CLASSIC),
    (ITERATIVE, "serial", False, True): _NEED_PARALLEL,
    # Iterative warm starts are library-only: ``--memo-dir`` needs
    # ``--mode`` (the CLI memoizes accumulative fixpoints).
    (ITERATIVE, "serial", True, False): _run(
        "run_local", "test_execute_cell_iterative_warm_serial", _CLASSIC),
    (ITERATIVE, "serial", True, True): _NEED_PARALLEL,
    (ITERATIVE, "parallel", False, False): _run(
        "run_parallel", "test_run_cell[classic-parallel]",
        _CLASSIC | _WORKERS),
    (ITERATIVE, "parallel", False, True): _run(
        "run_parallel", "test_run_cell[classic-parallel-kill]",
        _CLASSIC | _WORKERS | _FAULTS),
    (ITERATIVE, "parallel", True, False): _run(
        "run_parallel", "test_execute_parallel_cell[iterative-warm-parallel-fork]",
        _CLASSIC | _WORKERS),
    (ITERATIVE, "parallel", True, True): _run(
        "run_parallel",
        "test_execute_parallel_cell[iterative-warm-parallel-kill-fork]",
        _CLASSIC | _WORKERS | _FAULTS),
    (ACCUMULATIVE, "simulated", False, False): _run(
        "execute", "test_run_cell[async-simulated]",
        _ACCUM | {"seed"}, modes=("async",)),
    (ACCUMULATIVE, "simulated", False, True): _NO_ACCUM_FT,
    (ACCUMULATIVE, "simulated", True, False): _NO_SIM_WARM,
    (ACCUMULATIVE, "simulated", True, True): _NO_ACCUM_FT,
    (ACCUMULATIVE, "serial", False, False): _run(
        "run_accum_local", "test_run_cell[async-serial]", _ACCUM),
    (ACCUMULATIVE, "serial", False, True): _NO_ACCUM_FT,
    (ACCUMULATIVE, "serial", True, False): _run(
        "run_accum_local", "test_chained_refreshes[serial]", _ACCUM | _MEMO),
    (ACCUMULATIVE, "serial", True, True): _NO_ACCUM_FT,
    (ACCUMULATIVE, "parallel", False, False): _run(
        "run_accum_parallel", "test_run_cell[async-parallel]",
        _ACCUM | _WORKERS),
    (ACCUMULATIVE, "parallel", False, True): _NO_ACCUM_FT,
    (ACCUMULATIVE, "parallel", True, False): _run(
        "run_accum_parallel", "test_chained_refreshes[parallel]",
        _ACCUM | _WORKERS | _MEMO),
    (ACCUMULATIVE, "parallel", True, True): _NO_ACCUM_FT,
}


def resolve(algebra: str, plan: ExecutionPlan, *, warm: bool | None = None) -> Cell:
    """The :data:`SUPPORT` cell ``plan`` lands in, or :class:`PlanError`.

    Pure: reads only the plan, so callers validate before loading data.
    ``warm`` overrides ``plan.warm is not None`` for callers that know a
    memo is involved before they have read it (``repro run --memo-dir``).
    """
    if plan.backend not in BACKENDS:
        raise PlanError(f"unknown backend {plan.backend!r} (one of {BACKENDS})")
    is_warm = plan.warm is not None if warm is None else warm
    cell = SUPPORT[algebra, plan.backend, is_warm, plan.fault_tolerant]
    if cell.entry is None:
        raise PlanError(cell.refusal)
    if algebra == ITERATIVE and plan.mode is not None:
        raise PlanError(f"mode={plan.mode!r} needs an accumulative job (AccumJob)")
    # (An unknown mode name is left to the runner's check_mode.)
    if plan.mode == "sync" and "sync" not in cell.modes:
        raise PlanError(SIMULATED_SYNC)
    return cell


def _warm_inputs(job, memo: StateColumns, statics, warm: WarmStart, accumulative: bool):
    """Patch the delta into a copy of the static table, plan the change,
    and turn the memo into the run's starting point: for accumulative
    jobs the perturbation deltas plus the memo minus its reset keys
    (preloaded, not propagated), cut through its arrays; for iterative
    jobs the memo with reset keys at the identity and the min-algebra
    offers folded in."""
    path = job.static_paths[0] or ""
    table = dict((statics or {}).get(path, {}))
    change = warm.model.plan(table, warm.delta, memo)
    if not accumulative:
        return warm_sync_state(memo, change, warm.model), {path: table}, change, None
    kept, reset = memo, change.reset_keys
    if reset:
        keep = ~np.isin(kept.key_array, np.fromiter(reset, np.int64, len(reset)))
        kept = StateColumns(kept.key_array[keep], kept.value_array[keep])
    return change.perturbation, {path: table}, change, kept


def execute(
    job,
    inputs: Iterable[tuple[Any, Any]],
    statics: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    plan: ExecutionPlan = ExecutionPlan(),
):
    """Run ``job`` the way ``plan`` says; returns the cell's result type
    (``LocalRunResult`` / ``ParallelRunResult`` / ``AccumRunResult``).

    ``inputs`` is the initial state of an iterative job, the initial
    deltas of an accumulative one, or — with ``plan.warm`` — the
    memoized state to refresh from (see :class:`WarmStart`; the change
    plan's summary lands in an accumulative result's
    ``counters["incremental"]``).
    """
    accumulative = isinstance(job, AccumJob)
    if accumulative and plan.mode is None:
        plan = dataclasses.replace(plan, mode="async")
    cell = resolve(ACCUMULATIVE if accumulative else ITERATIVE, plan)
    if plan.backend == "simulated" and not accumulative:
        raise PlanError(
            f"iterative jobs run on the simulated cluster through "
            f"repro.{cell.entry}(RunSpec), not execute()"
        )
    if plan.warm is None:
        return _execute(job, inputs, statics, plan)
    with gc_paused():
        inputs, statics, change, kept = _warm_inputs(
            job, StateColumns.of(inputs), statics, plan.warm, accumulative
        )
    result = _execute(job, inputs, statics, plan, initial_state=kept)
    if accumulative:
        result.counters.update(
            {"incremental": change.summary(), "warm_state_keys": len(kept)}
        )
    return result


#: backend -> host: ``(job, executor, policy, state_parts, static_parts,
#: plan, fields, **supervision) -> (final reports, mesh result fields |
#: None)``.
_HOSTS = {"serial": host_loopback, "simulated": host_simulated, "parallel": host_mesh}


def _execute(job, inputs, statics, plan: ExecutionPlan, *, initial_state=None,
             **supervision):
    """The one runner: the job's algebra × the plan's host (module
    docstring), no cell check.  ``initial_state`` is an accumulative
    warm start's preloaded state; ``supervision`` (``max_recoveries``,
    ``reassign_on_failure``) goes to the mesh supervisor."""
    started = time.perf_counter()
    num_pairs = plan.num_pairs
    part = bind_partitioner(job.partitioner, num_pairs)
    accumulative = isinstance(job, AccumJob)
    # The run's one selection: every host and mesh worker runs this class.
    executor = select_executor(job)[0]
    if accumulative:
        check_mode(plan.mode)
        policy = AccumVerdict(job, num_pairs, plan.keep_trace)
        fields = {"accum_mode": plan.mode}
    else:
        policy = SyncVerdict(job, num_pairs, plan.keep_history)
        fields = {}
        if plan.checkpoint_every is None:  # the job's conf may arm them
            plan = dataclasses.replace(
                plan, checkpoint_every=job.parallel_checkpoint_every)
    with gc_paused():
        state_parts, static_parts = executor.split_inputs(
            job, inputs, statics, num_pairs, part,
            None if initial_state is None else StateColumns.of(initial_state))
    partitioned = time.perf_counter() - started
    finals, mesh = _HOSTS[plan.backend](
        job, executor, policy, state_parts, static_parts, plan, fields, **supervision)
    del state_parts, static_parts, fields  # not held beside the final state
    clock = time.perf_counter()
    outcome = policy.outcome(finals, executor)
    if mesh is not None:
        mesh["wall_seconds"] = time.perf_counter() - started
    else:
        # One in-process host: the setup and input partition were its
        # map side's routing, the final state's assembly its last report.
        phases = finals[0]["stats"]["phase_seconds"]
        phases["map"] = round(phases["map"] + partitioned, 6)
        phases["report"] = round(phases["report"] + time.perf_counter() - clock, 6)
    if not accumulative:
        if mesh is None:
            return LocalRunResult(**outcome)
        return ParallelRunResult(**outcome, num_pairs=num_pairs, **mesh)
    mode = "simulated" if plan.backend == "simulated" else plan.mode
    if mesh is None:
        return AccumRunResult(mode=mode, **outcome)
    return AccumRunResult(mode=mode, num_workers=mesh["num_workers"],
                          wall_seconds=mesh["wall_seconds"], **outcome)


# ------------------------------------------------------------- wrappers --
# The signatures benchmarks/e2e calls (pinned in
# tests/imapreduce/test_entry_signatures.py), each one plan on the runner.
def run_local(
    job: IterativeJob,
    state_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    keep_history: bool = False,
) -> LocalRunResult:
    """Execute ``job`` serially.

    ``state_records`` is the initial state; ``static_records`` maps each
    phase's ``static_path`` to its records (the DFS is not involved).

    Jobs carrying a vectorized kernel (``job.kernel``), or declaring
    their phase's fold (``Phase.fold``), run on the columnar executor
    when the job shape supports it
    (:func:`~repro.imapreduce.localrun.select_executor`) — same result
    surface, one ``map_kernel`` + merge per pair per iteration instead
    of the per-record combine and reduce loops.
    """
    return _execute(job, state_records, static_records, ExecutionPlan(
        num_pairs=num_pairs, keep_history=keep_history))


def run_parallel(
    job: IterativeJob,
    state_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    num_workers: int | None = None,
    keep_history: bool = False,
    start_method: str | None = None,
    timeout: float | None = 600.0,
    checkpoint_every: int | None = None,
    spool_dir: str | None = None,
    heartbeat_interval: float | None = 0.5,
    suspicion_timeout: float | None = 30.0,
    max_recoveries: int = 2,
    reassign_on_failure: bool = False,
    faults: Iterable[ProcFault] | None = None,
) -> ParallelRunResult:
    """Execute ``job`` on ``num_workers`` persistent worker processes.

    Same signature and semantics as :func:`run_local` (``num_pairs``
    governs partitioning and therefore the exact result; ``num_workers``
    only distributes pairs over processes, default one per CPU this
    process may run on).  The job must be picklable — every
    ``build_imr_job`` result is, and the pickle guard tests keep it that
    way.

    ``timeout`` bounds every coordinator wait (a hung worker raises
    :class:`~repro.imapreduce.parallel.ParallelExecutionError` instead
    of deadlocking the caller).

    Fault tolerance: ``checkpoint_every`` arms durable per-pair
    checkpoints every that many iterations (``None`` falls back to the
    job's ``mapred.iterjob.parallelcheckpoint`` conf, default off) into
    ``spool_dir`` (a private temp dir, cleaned up, when unset).
    ``faults`` injects seeded :class:`ProcFault` kills/stops for the
    chaos harness.  When either is armed, a confirmed worker death is
    recovered — up to ``max_recoveries`` times — by restoring the
    newest committed checkpoint and respawning the mesh (or, with
    ``reassign_on_failure``, redistributing the dead worker's pairs to
    the survivors by :func:`~repro.imapreduce.placement.reassign`).  ``suspicion_timeout`` declares
    a worker dead when its heartbeat (every ``heartbeat_interval``
    seconds) goes quiet — the only way to catch a SIGSTOPped worker.
    """
    return _execute(job, state_records, static_records, ExecutionPlan(
        backend="parallel", num_pairs=num_pairs, num_workers=num_workers,
        keep_history=keep_history, start_method=start_method, timeout=timeout,
        checkpoint_every=checkpoint_every, spool_dir=spool_dir,
        heartbeat_interval=heartbeat_interval, suspicion_timeout=suspicion_timeout,
        faults=tuple(faults or ()),
    ), max_recoveries=max_recoveries, reassign_on_failure=reassign_on_failure)


def run_accum_local(
    job,
    delta_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    mode: str = "async",
    keep_trace: bool = False,
    initial_state: Iterable[tuple[Any, Any]] | None = None,
):
    """Execute an :class:`~repro.imapreduce.accum.AccumJob` serially.

    ``delta_records`` are the initial deltas (state starts at the
    algebra's identity); ``static_records`` maps the job's static path
    to its records, as in :func:`run_local`.  ``mode="sync"`` drains
    every pending delta each round — the synchronous reference the
    fixpoint-equivalence oracle compares async runs against;
    ``mode="async"`` drains only the top-priority fraction.

    ``initial_state`` (incremental mode) preloads memoized converged
    values into the pairs' state *without* propagation; the
    ``delta_records`` then carry only the change-scoped perturbation —
    see :mod:`~repro.imapreduce.incremental`.

    Rounds are mass-checked *before* executing
    (:class:`~repro.imapreduce.engine.AccumVerdict`) — the verdict
    protocol the multiprocess coordinator runs too, so serial and
    parallel runs of the same mode are record-for-record identical.
    Every job runs on the one accumulative executor — dense pending
    arrays with an active-key mask — with its
    delta kernel (``job.kernel``) or, kernel-less, through an adapter
    that calls its own ``update_fn`` per changed key
    (:class:`~repro.imapreduce.localrun.UpdateKernel`).
    """
    return _execute(job, delta_records, static_records, ExecutionPlan(
        num_pairs=num_pairs, mode=mode, keep_trace=keep_trace,
    ), initial_state=initial_state)


def run_accum_parallel(
    job: AccumJob,
    delta_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    num_workers: int | None = None,
    mode: str = "async",
    keep_trace: bool = False,
    start_method: str | None = None,
    timeout: float | None = 600.0,
    heartbeat_interval: float | None = 0.5,
    suspicion_timeout: float | None = 30.0,
    initial_state: Iterable[tuple[Any, Any]] | None = None,
) -> AccumRunResult:
    """Execute an :class:`~repro.imapreduce.accum.AccumJob` on real
    worker processes.

    Same semantics as :func:`run_accum_local` — partitioning, executor
    selection (columnar here too, kernel-less jobs included),
    scheduling, and the pre-round mass check follow the identical
    determinism contract, so for a given ``(job, deltas, num_pairs,
    mode)`` the parallel result is record-for-record identical to the
    serial one (floats included) at every worker count and start
    method.  Only nonzero delta batches cross the mesh; converged pairs
    cost one manifest frame per peer per round.

    Nothing arms checkpoints for an accumulative run (pending deltas are
    in flight by design), so the mesh supervisor runs it with recovery
    unarmed: a worker death raises
    :class:`~repro.imapreduce.parallel.ParallelExecutionError`.  Chaos
    coverage for the async mode rides the seeded deferring transport
    (``execute`` with ``backend="simulated"``) instead.
    """
    return _execute(job, delta_records, static_records, ExecutionPlan(
        backend="parallel", num_pairs=num_pairs, num_workers=num_workers,
        mode=mode, keep_trace=keep_trace, start_method=start_method,
        timeout=timeout, heartbeat_interval=heartbeat_interval,
        suspicion_timeout=suspicion_timeout,
    ), initial_state=initial_state)


def run_incremental_accum(
    job: AccumJob,
    algorithm: str,
    delta: DataDelta,
    memo_state: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    mode: str = "async",
    backend: str = "local",
    keep_trace: bool = False,
    damping: float | None = None,
    source: Any = None,
    **backend_kwargs,
) -> AccumRunResult:
    """Warm-started accumulative refresh — :func:`execute` with a
    :class:`WarmStart`, under the signature the benchmark and the
    algorithm modules call (``backend`` is ``"local"`` or
    ``"parallel"``; ``backend_kwargs`` are further plan fields)."""
    return execute(job, memo_state, static_records, ExecutionPlan(
        backend="serial" if backend == "local" else backend,
        num_pairs=num_pairs, mode=mode, keep_trace=keep_trace,
        warm=WarmStart(change_model(algorithm, damping=damping, source=source), delta),
        **backend_kwargs,
    ))


def refresh_vs_cold(workload, memo_state, table, fraction, seed, plan):
    """One incremental refresh and the cold rerun it is judged against
    — what ``repro run --delta`` prints.

    Draws a seeded churn touching ~``fraction`` of ``table``'s edges,
    warm-starts ``plan`` from ``memo_state`` (change propagation), and
    reruns cold on the mutated input.  ``workload`` is a
    :class:`~repro.algorithms.workloads.Workload`, whose ``change``
    model names the algorithm and its algebra.  Returns ``(delta,
    (warm, seconds), (cold, seconds), agree)`` — ``agree`` at the
    ``incremental-differential`` oracle's bar (bit-exact for ``min``,
    tolerance-bounded for ``+``).
    """
    from ..testing.oracles import fixpoints_agree

    job, _inputs, _statics, model = workload
    edits = max(2, round(fraction * sum(len(row) for row in table.values())))
    # Min-algebra serving workloads refresh fastest on improvement-only
    # churn (new/faster roads); pagerank takes arbitrary insert+delete.
    delta = random_edge_churn(
        table, model.algorithm, insert=edits // 2, delete=edits - edits // 2,
        seed=seed, monotone=model.fold == "min",
    )
    started = time.perf_counter()
    warm = execute(job, memo_state, {job.static_path: table}, dataclasses.replace(
        plan, warm=WarmStart(model, delta)))
    warm_seconds = time.perf_counter() - started
    cold_deltas, mutated = cold_rerun_inputs(model, table, delta)
    started = time.perf_counter()
    cold = execute(job, cold_deltas, {job.static_path: mutated}, plan)
    cold_seconds = time.perf_counter() - started
    agree = fixpoints_agree(warm.state, cold.state, model.fold == "min")
    return delta, (warm, warm_seconds), (cold, cold_seconds), agree


def format_support() -> str:
    """:data:`SUPPORT` as the text table ``repro modes`` prints."""
    row = "{:<13}{:<10}{:<6}{:<7}{}".format
    lines = [row("algebra", "backend", "start", "faults", "runs on [judged by] / refused because")]
    for (algebra, backend, warm, armed), cell in SUPPORT.items():
        if cell.entry is None:
            what = f"refused: {cell.refusal}"
        else:
            only = f" (--mode {cell.modes[0]} only)" if len(cell.modes) == 1 else ""
            what = f"{cell.entry}{only}  [{cell.oracle}]"
        lines.append(row(algebra, backend, "warm" if warm else "cold",
                         "armed" if armed else "-", what))
    return "\n".join(lines)
