"""One entry point above the engine: ``execute(job, inputs, statics, plan)``.

A job is described once and submitted once (paper §3.5); *how* it runs
— which backend, which accumulative schedule, warm or cold, with or
without fault tolerance — is an :class:`ExecutionPlan`, and which of
those combinations exist is the :data:`SUPPORT` table: one row per
(job algebra × backend × start × fault-tolerance) cell, holding either
the engine entry that runs it and the test that judges it, or the
reason it is refused.  :func:`execute` resolves the cell first — a
refused or malformed plan raises :class:`PlanError` before anything is
partitioned, spooled or spawned — then applies the warm start (both
algebras, one place) and calls the entry with the plan fields that
entry takes.  ``repro run`` builds a plan and calls this; ``repro
modes`` prints the table.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import time
from dataclasses import dataclass
from typing import Any, Iterable

from ..common.errors import JobError
from .accum import AccumJob, AccumRunResult
from .incremental import (
    DataDelta,
    cold_rerun_inputs,
    plan_changes,
    random_edge_churn,
    warm_sync_state,
)
from .localrun import run_accum_local, run_accum_simulated, run_local
from .parallel import run_accum_parallel, run_parallel

__all__ = [
    "PlanError",
    "WarmStart",
    "ExecutionPlan",
    "Cell",
    "SUPPORT",
    "resolve",
    "execute",
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
    ``delta`` is patched in and ``algorithm``'s change planner
    (``damping`` for pagerank, ``source`` for sssp) scopes the rerun."""

    algorithm: str
    delta: DataDelta
    damping: float | None = None
    source: Any = None


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
    """One :data:`SUPPORT` row: ``entry`` names the engine function that
    runs the cell (``refusal`` says why nothing does), ``oracle`` the
    test that exercises it, ``flags`` the ``repro run`` options it
    consumes beyond ``--backend``/``--mode``, ``modes`` the accumulative
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
    # (RunSpec -> experiments.workloads.execute), which also builds the
    # Hadoop-baseline twin; it is the one cell execute() cannot call.
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
        "run_accum_simulated", "test_run_cell[async-simulated]",
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

_ENTRIES = {fn.__name__: fn for fn in (
    run_local, run_parallel, run_accum_local, run_accum_parallel, run_accum_simulated)}


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
    # (An unknown mode name is left to the entry's own check_mode.)
    if plan.mode == "sync" and "sync" not in cell.modes:
        raise PlanError(SIMULATED_SYNC)
    return cell


def _warm_inputs(job, memo_state, statics, warm: WarmStart, accumulative: bool):
    """Patch the delta into a copy of the static table, plan the change,
    and turn the memo into the run's starting point: for accumulative
    jobs the perturbation deltas plus the memo minus its reset keys
    (preloaded, not propagated); for iterative jobs the memo with reset
    keys at the identity and the min-algebra offers folded in."""
    memo_state = list(memo_state)
    path = (job.static_path if accumulative else job.phases[0].static_path) or ""
    table = dict((statics or {}).get(path, {}))
    change = plan_changes(
        warm.algorithm, table, warm.delta, dict(memo_state),
        damping=warm.damping, source=warm.source,
    )
    if not accumulative:
        identity = 0.0 if warm.algorithm == "pagerank" else math.inf
        return warm_sync_state(memo_state, change, identity), {path: table}, change, None
    reset = change.reset_keys
    kept = [kv for kv in memo_state if kv[0] not in reset] if reset else memo_state
    return change.perturbation, {path: table}, change, kept


def execute(
    job,
    inputs: Iterable[tuple[Any, Any]],
    statics: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    plan: ExecutionPlan = ExecutionPlan(),
):
    """Run ``job`` the way ``plan`` says; returns the entry's own result
    type (``LocalRunResult`` / ``ParallelRunResult`` / ``AccumRunResult``).

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
    entry = _ENTRIES.get(cell.entry)
    if entry is None:
        raise PlanError(
            f"iterative jobs run on the simulated cluster through "
            f"repro.{cell.entry}(RunSpec), not execute()"
        )
    accepted = inspect.signature(entry).parameters
    kwargs = {
        f.name: getattr(plan, f.name)
        for f in dataclasses.fields(plan) if f.name in accepted
    }
    if plan.warm is None:
        return entry(job, inputs, statics, **kwargs)
    inputs, statics, change, kept = _warm_inputs(
        job, inputs, statics, plan.warm, accumulative
    )
    if not accumulative:
        return entry(job, inputs, statics, **kwargs)
    result = entry(job, inputs, statics, initial_state=kept, **kwargs)
    result.counters.update(
        {"incremental": change.summary(), "warm_state_keys": len(kept)}
    )
    return result


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
        warm=WarmStart(algorithm, delta, damping=damping, source=source),
        **backend_kwargs,
    ))


def refresh_vs_cold(workload, algorithm, memo_state, table, fraction, seed, plan):
    """One incremental refresh and the cold rerun it is judged against
    — what ``repro run --delta`` prints.

    Draws a seeded churn touching ~``fraction`` of ``table``'s edges,
    warm-starts ``plan`` from ``memo_state`` (change propagation), and
    reruns cold on the mutated input.  ``workload`` is a
    :class:`~repro.algorithms.workloads.Workload`.  Returns ``(delta,
    (warm, seconds), (cold, seconds), agree)`` — ``agree`` at the
    ``incremental-differential`` oracle's bar (bit-exact for ``min``,
    tolerance-bounded for ``+``).
    """
    from ..testing.oracles import fixpoints_agree

    job, _inputs, _statics, planner, algebra = workload
    edits = max(2, round(fraction * sum(len(row) for row in table.values())))
    # Min-algebra serving workloads refresh fastest on improvement-only
    # churn (new/faster roads); pagerank takes arbitrary insert+delete.
    delta = random_edge_churn(
        table, algorithm, insert=edits // 2, delete=edits - edits // 2,
        seed=seed, monotone=algebra == "min",
    )
    started = time.perf_counter()
    warm = execute(job, memo_state, {job.static_path: table}, dataclasses.replace(
        plan, warm=WarmStart(algorithm, delta, **planner)))
    warm_seconds = time.perf_counter() - started
    cold_deltas, mutated = cold_rerun_inputs(algorithm, table, delta, **planner)
    started = time.perf_counter()
    cold = execute(job, cold_deltas, {job.static_path: mutated}, plan)
    cold_seconds = time.perf_counter() - started
    agree = fixpoints_agree(warm.state, cold.state, algebra == "min")
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
