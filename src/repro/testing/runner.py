"""Campaign execution: build the world a spec describes, run it, judge it.

``run_campaign`` is the single entry the smoke tests, the shrinker and
the CLI all share: spec in, :class:`CampaignOutcome` out — the
distributed run (or the exception it died with), the serial reference
execution, the trace, and every oracle violation.

``run_chaos`` drives a whole seeded campaign battery: generate K specs
from a master seed, run each, greedily shrink the failures, and return a
:class:`ChaosReport` whose failures carry one-line replay commands.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..algorithms.workloads import build_workload
from ..cluster import Cluster, heterogeneous_cluster, local_cluster
from ..common import IterKeys, stable_seed
from ..data.lastfm import load_lastfm
from ..dfs import DFS
from ..graph.generators import pagerank_graph, sssp_graph
from ..imapreduce import (
    ChaosKnobs,
    ExecutionPlan,
    FailureDetectorConfig,
    IMapReduceRuntime,
    LoadBalanceConfig,
    ProcFault,
    WarmStart,
    execute,
    random_edge_churn,
)
from ..imapreduce.incremental import cold_rerun_inputs
from ..metrics.trace import TraceEvent, Tracer
from ..simulation import Engine
from .campaign import REPLICATION, WORKLOADS, CampaignSpec, generate_campaign
from .oracles import OracleViolation, evaluate_oracles
from .shrink import shrink

__all__ = [
    "CampaignOutcome",
    "CampaignFailure",
    "ChaosReport",
    "run_campaign",
    "campaign_fails",
    "run_chaos",
]

STATE_PATH = "/chaos/state"
STATIC_PATH = "/chaos/static"
OUTPUT_PATH = "/chaos/out"


@dataclass
class CampaignOutcome:
    """Everything one campaign produced, plus the oracles' verdict."""

    spec: CampaignSpec
    result: Any = None  # IterativeRunResult | None
    reference: Any = None  # LocalRunResult | None
    final_state: list = field(default_factory=list)
    trace_events: list[TraceEvent] = field(default_factory=list)
    error: BaseException | None = None
    violations: list[OracleViolation] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Set when the campaign also ran the real multiprocess backend
    #: (``parallel`` mode): its result, or the exception it died with.
    parallel_result: Any = None  # ParallelRunResult | None
    parallel_error: BaseException | None = None
    #: Set when ``spec.use_kernels``: the kernel-enabled job's serial
    #: columnar run (or the exception it died with).  In ``parallel``
    #: mode the multiprocess backend runs the kernel job too, and the
    #: parallel oracle compares against this result bit-for-bit.
    kernel_result: Any = None  # LocalRunResult | None
    kernel_error: BaseException | None = None
    #: Set when ``spec.async_mode``: the accumulative (Maiter-mode)
    #: twin's runs, judged by the ``async-fixpoint`` oracle.
    #: ``async_reference`` is the synchronous serial run;
    #: ``async_results`` maps schedule name (``"serial-async"``,
    #: ``"simulated"``, ``"kernel-async"``, ``"parallel-async"``) to its
    #: result; ``async_errors`` maps the name to the exception instead
    #: when a run died.  ``async_algebra`` is ``"min"`` or ``"sum"``.
    async_reference: Any = None  # AccumRunResult | None
    async_results: dict = field(default_factory=dict)
    async_errors: dict = field(default_factory=dict)
    async_algebra: str = ""
    #: Set when ``spec.input_delta``: the incremental-refresh
    #: (i2MapReduce-mode) twin's runs, judged by the
    #: ``incremental-differential`` oracle.  ``incremental_reference``
    #: is the cold rerun on the *mutated* input;
    #: ``incremental_results`` maps schedule name
    #: (``"warm-serial-sync"``, ``"warm-serial-async"``,
    #: ``"warm-kernel-async"``, ``"warm-parallel-async"``) to its
    #: warm-started run; ``incremental_errors`` maps the name to the
    #: exception instead when a run died.
    incremental_reference: Any = None  # AccumRunResult | None
    incremental_results: dict = field(default_factory=dict)
    incremental_errors: dict = field(default_factory=dict)
    incremental_algebra: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignFailure:
    """A failing campaign with its shrunk reproduction."""

    campaign_seed: int
    spec: CampaignSpec
    violations: list[OracleViolation]
    shrunk: CampaignSpec | None = None
    shrink_attempts: int = 0

    def replay_lines(self, bug: str | None = None) -> list[str]:
        suffix = f" --inject-bug {bug}" if bug else ""
        lines = [f"repro chaos --campaign-seed {self.campaign_seed}{suffix}"]
        if self.shrunk is not None and self.shrunk != self.spec:
            lines.append(f"repro chaos --spec '{self.shrunk.to_json()}'{suffix}")
        return lines


@dataclass
class ChaosReport:
    """Outcome of a whole campaign battery."""

    master_seed: int
    campaigns: int = 0
    passed: int = 0
    failures: list[CampaignFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: One dict per campaign whose parallel run took the recovery path:
    #: campaign seed, the seeded ``proc_kill``, and the backend's
    #: ``recovery_events`` verbatim.  ``repro chaos --recovery-log``
    #: serializes these as JSONL for CI artifacts.
    recovery_events: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ------------------------------------------------------------ workloads --
PATHS = {"state_path": STATE_PATH, "static_path": STATIC_PATH,
         "output_path": OUTPUT_PATH}

#: Pending-mass threshold for ``+``-algebra accumulative twins; ``min``
#: algebras drain exactly at 0.  Campaign inputs are tiny (≤ 28 nodes),
#: so this leaves the async-fixpoint oracle's 1e-9 absolute tolerance
#: orders of magnitude of headroom.
ACCUM_SUM_THRESHOLD = 1e-12
#: Round budget no converging accumulative campaign run ever hits.
ACCUM_MAX_ROUNDS = 2000


def _source(spec: CampaignSpec):
    """The spec's seeded source data, in the workload table's shapes."""
    if spec.workload == "kmeans":
        data = load_lastfm(
            num_users=spec.input_size,
            num_artists=8,
            num_tastes=2,
            seed=stable_seed(spec.seed, "lastfm") % (2**31),
        )
        k = min(3, max(2, spec.num_pairs))
        return data, k, stable_seed(spec.seed, "centroids") % (2**31)
    generator = sssp_graph if spec.workload == "sssp" else pagerank_graph
    return generator(spec.input_size, seed=stable_seed(spec.seed, "graph"))


def _build_iterative(spec: CampaignSpec, use_kernel: bool = False):
    """Spec → the iterative table workload.  ``use_kernel`` attaches the
    vectorized columnar kernel (the ``use_kernels`` campaign dimension);
    inputs and record-level phases are identical either way."""
    options = dict(combiner=spec.combiner, use_kernel=use_kernel,
                   checkpoint_interval=spec.checkpoint_interval)
    if spec.workload != "kmeans":  # kmeans is always sync and unbuffered
        options.update(sync=spec.sync, buffer_records=spec.buffer_records)
    workload = build_workload(
        spec.workload, "iterative", _source(spec), paths=PATHS,
        steps=spec.max_iterations, num_pairs=spec.num_pairs, **options,
    )
    workload.job.conf.set_int(IterKeys.SEED, spec.seed or 1)
    return workload


def _build_accumulative(spec: CampaignSpec, use_kernel: bool = False):
    """The accumulative (Maiter-mode) twin: the same seeded input graph,
    formulated as an :class:`~repro.imapreduce.accum.AccumJob`."""
    return build_workload(
        spec.workload, "accumulative", _source(spec), paths=PATHS,
        steps=ACCUM_MAX_ROUNDS, num_pairs=spec.num_pairs,
        sum_threshold=ACCUM_SUM_THRESHOLD, use_kernel=use_kernel,
    )


def _run_schedules(spec, schedules, inputs, statics, results, errors) -> None:
    """Run every ``(name, use_kernel, plan)`` schedule on the spec's
    accumulative twin; a run that dies is recorded, not raised (the
    fixpoint oracles judge it)."""
    jobs: dict = {}
    for name, use_kernel, plan in schedules:
        if use_kernel not in jobs:
            jobs[use_kernel] = _build_accumulative(spec, use_kernel).job
        try:
            results[name] = execute(jobs[use_kernel], inputs, statics, plan)
        except Exception as exc:
            errors[name] = exc


def _async_schedules(spec, parallel_plan, prefix: str = "") -> list:
    """The asynchronous schedules a spec asks for, as plans: serial,
    the kernel twin (``use_kernels``), the real mesh (``parallel``)."""
    serial = ExecutionPlan(num_pairs=spec.num_pairs, mode="async")
    schedules = [(f"{prefix}serial-async", False, serial)]
    if spec.use_kernels:
        schedules.append((f"{prefix}kernel-async", True, serial))
    if parallel_plan is not None:
        schedules.append((
            f"{prefix}parallel-async", False,
            replace(parallel_plan, num_pairs=spec.num_pairs, mode="async"),
        ))
    return schedules


def _run_accum_twin(spec, outcome: CampaignOutcome, parallel_plan) -> None:
    """Run the accumulative twin under every schedule the spec asks for.

    All runs share one input; the ``async-fixpoint`` oracle compares
    each asynchronous schedule's fixpoint against the synchronous
    serial reference.
    """
    job, deltas, static_map, _planner, outcome.async_algebra = (
        _build_accumulative(spec)
    )
    serial = ExecutionPlan(num_pairs=spec.num_pairs, mode="sync")
    try:
        outcome.async_reference = execute(job, deltas, static_map, serial)
    except Exception as exc:
        outcome.async_errors["sync-reference"] = exc
        return
    schedules = _async_schedules(spec, parallel_plan)
    schedules.insert(1, (
        "simulated", False,
        replace(serial, backend="simulated", mode="async", seed=spec.seed),
    ))
    _run_schedules(spec, schedules, deltas, static_map,
                   outcome.async_results, outcome.async_errors)


def _run_incremental_twin(spec, outcome: CampaignOutcome, parallel_plan) -> None:
    """Run the incremental-refresh (i2MapReduce-mode) twin.

    One cold base run converges and is memoized; the spec's pinned
    churn parameters synthesize a :class:`DataDelta` against the
    campaign graph; a cold rerun on the mutated input becomes the
    reference fixpoint; and every warm-started refresh — serial sync,
    serial async, the kernel twin, the real multiprocess backend — is
    judged against it by the ``incremental-differential`` oracle.
    """
    job, deltas, static_map, planner, outcome.incremental_algebra = (
        _build_accumulative(spec)
    )
    table = dict(static_map[STATIC_PATH])
    insert, delete, churn_seed = spec.input_delta
    serial = ExecutionPlan(num_pairs=spec.num_pairs, mode="sync")
    try:
        delta = random_edge_churn(
            table, spec.workload, insert=insert, delete=delete,
            seed=churn_seed,
        )
        memo = execute(job, deltas, static_map, serial)
        cold_deltas, mutated = cold_rerun_inputs(
            spec.workload, table, delta, **planner
        )
        outcome.incremental_reference = execute(
            job, cold_deltas, {STATIC_PATH: mutated}, serial
        )
    except Exception as exc:
        outcome.incremental_errors["cold-base"] = exc
        return
    warm = WarmStart(spec.workload, delta, **planner)
    schedules = [
        (name, use_kernel, replace(plan, warm=warm))
        for name, use_kernel, plan in [
            ("warm-serial-sync", False, serial),
            *_async_schedules(spec, parallel_plan, prefix="warm-"),
        ]
    ]
    _run_schedules(spec, schedules, memo.state, static_map,
                   outcome.incremental_results, outcome.incremental_errors)


def _build_cluster(spec: CampaignSpec, engine: Engine) -> Cluster:
    if spec.speeds is not None:
        return heterogeneous_cluster(engine, list(spec.speeds))
    return local_cluster(engine, spec.cluster_nodes)


# -------------------------------------------------------------- running --
def run_campaign(
    spec: CampaignSpec,
    knobs: ChaosKnobs | None = None,
    *,
    parallel: bool = False,
    parallel_workers: int = 2,
    parallel_start_method: str | None = None,
) -> CampaignOutcome:
    """Run one campaign end to end and evaluate every oracle.

    ``knobs`` deliberately breaks the runtime (harness self-test): a
    correct harness must report violations for a broken runtime.

    ``parallel`` is a run-time dimension, not part of the spec (pinned
    campaign seeds keep generating byte-identical specs): the same
    workload additionally runs on the real multiprocess backend and the
    ``parallel-differential`` oracle demands record-for-record equality
    with the serial reference.  Campaign workloads never use thresholds
    or aux phases, so the comparison is float-exact by construction.
    ``parallel_start_method`` pins the multiprocessing start method
    (the differential matrix exercises ``spawn`` as well as ``fork``).
    """
    started = time.perf_counter()
    spec.validate()
    job, state, static_map = _build_iterative(spec)[:3]
    outcome = CampaignOutcome(spec=spec)

    engine = Engine()
    cluster = _build_cluster(spec, engine)
    dfs = DFS(cluster, replication=REPLICATION)
    dfs.ingest(STATE_PATH, state)
    for path, records in static_map.items():
        dfs.ingest(path, records)
    # Link-fault draws are keyed off the campaign seed, so the whole
    # scenario — workload, faults, and every per-message loss verdict —
    # replays from one integer.
    spec.fault_schedule().arm(engine, cluster, net_seed=spec.seed)

    tracer = Tracer()
    runtime = IMapReduceRuntime(
        cluster,
        dfs,
        load_balance=LoadBalanceConfig(enabled=spec.migration),
        trace=tracer,
        chaos=knobs,
        # Campaigns run with observed failure detection + localized
        # recovery: the master learns about crashes from heartbeat
        # silence (or boot-id changes), never by fiat.
        failure_detector=FailureDetectorConfig(),
    )
    try:
        outcome.result = runtime.submit(job)
    except Exception as exc:  # judged by the termination oracle
        outcome.error = exc

    # Read the final partitions straight from the DFS metadata — no
    # simulated I/O, so a fault event pending after the job's completion
    # cannot interfere with the readback.
    if outcome.result is not None:
        final: list = []
        for path in outcome.result.final_paths:
            if dfs.exists(path):
                final.extend(dfs.file_info(path).records)
        outcome.final_state = sorted(final, key=lambda kv: repr(kv[0]))

    serial = ExecutionPlan(num_pairs=spec.num_pairs)
    outcome.reference = execute(job, state, static_map, serial)
    outcome.reference.state.sort(key=lambda kv: repr(kv[0]))
    kernel_job = None
    if spec.use_kernels:
        # The same workload with its columnar kernel attached: the serial
        # columnar run is judged against the record-path reference by the
        # kernel-differential oracle.
        kernel_job = _build_iterative(spec, use_kernel=True).job
        try:
            outcome.kernel_result = execute(kernel_job, state, static_map, serial)
            outcome.kernel_result.state.sort(key=lambda kv: repr(kv[0]))
        except Exception as exc:  # judged by the kernel oracle
            outcome.kernel_error = exc
    parallel_plan = None
    if parallel:
        parallel_plan = replace(
            serial, backend="parallel", num_workers=parallel_workers,
            start_method=parallel_start_method,
        )
        # With kernels on, the multiprocess backend runs the kernel job
        # and must reproduce the *serial columnar* run bit-for-bit (both
        # paths order every merge identically); otherwise it runs the
        # record job against the record reference, as before.
        par_job = kernel_job if (spec.use_kernels and kernel_job is not None) else job
        # Process-death campaigns arm the backend's fault tolerance: the
        # seeded kill/stop fires mid-run, recovery restores the durable
        # checkpoint, and the same differential oracle that judges an
        # unfaulted run judges the recovered one.
        armed = parallel_plan
        if spec.proc_kill is not None:
            victim, at_iteration, action = spec.proc_kill
            mesh_size = max(1, min(parallel_workers, spec.num_pairs))
            armed = replace(
                parallel_plan,
                checkpoint_every=spec.checkpoint_interval,
                heartbeat_interval=0.05,
                # SIGSTOP is only caught by heartbeat silence; give spawn
                # meshes headroom for their interpreter startup.
                suspicion_timeout=(
                    30.0 if parallel_start_method == "spawn" else 8.0
                ),
                faults=(
                    ProcFault(
                        worker=victim % mesh_size,
                        iteration=at_iteration,
                        action=action,
                    ),
                ),
            )
        try:
            outcome.parallel_result = execute(par_job, state, static_map, armed)
            outcome.parallel_result.state.sort(key=lambda kv: repr(kv[0]))
        except Exception as exc:  # judged by the parallel oracle
            outcome.parallel_error = exc
    if spec.async_mode:
        _run_accum_twin(spec, outcome, parallel_plan)
    if spec.input_delta is not None:
        _run_incremental_twin(spec, outcome, parallel_plan)
    outcome.trace_events = list(tracer.events)
    outcome.violations = evaluate_oracles(spec, outcome)
    outcome.wall_seconds = time.perf_counter() - started
    return outcome


def campaign_fails(
    spec: CampaignSpec,
    knobs: ChaosKnobs | None = None,
    oracles: set[str] | None = None,
    *,
    parallel: bool = False,
) -> bool:
    """Shrinking predicate: does ``spec`` still violate (the given) oracles?"""
    try:
        outcome = run_campaign(spec, knobs, parallel=parallel)
    except Exception:
        # A spec the runner itself cannot execute (shrinker stepped
        # outside the envelope) does not count as a reproduction.
        return False
    if oracles is None:
        return bool(outcome.violations)
    return any(v.oracle in oracles for v in outcome.violations)


def run_chaos(
    master_seed: int,
    campaigns: int,
    *,
    workloads: tuple[str, ...] = WORKLOADS,
    knobs: ChaosKnobs | None = None,
    shrink_failures: bool = True,
    strip_net_faults: bool = False,
    parallel: bool = False,
    parallel_start_method: str | None = None,
    log: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run a battery of ``campaigns`` seeded campaigns.

    Campaign seeds derive from ``master_seed`` through a dedicated RNG,
    so the battery is reproducible as a whole and every individual
    failure is replayable via ``--campaign-seed``.
    """
    started = time.perf_counter()
    rng = random.Random(master_seed)
    report = ChaosReport(master_seed=master_seed)
    for index in range(campaigns):
        campaign_seed = rng.randrange(1, 2**48)
        spec = generate_campaign(campaign_seed, workloads)
        if strip_net_faults:
            spec = spec.but(net_faults=())
        outcome = run_campaign(
            spec, knobs, parallel=parallel,
            parallel_start_method=parallel_start_method,
        )
        report.campaigns += 1
        par = outcome.parallel_result
        if par is not None and getattr(par, "recoveries", 0):
            report.recovery_events.append(
                {
                    "campaign_seed": campaign_seed,
                    "proc_kill": list(spec.proc_kill)
                    if spec.proc_kill is not None
                    else None,
                    "recoveries": par.recoveries,
                    "events": list(par.recovery_events),
                }
            )
        if outcome.ok:
            report.passed += 1
            if log:
                log(
                    f"campaign {index + 1}/{campaigns} seed={campaign_seed} "
                    f"ok ({spec.describe()})"
                )
            continue
        failure = CampaignFailure(
            campaign_seed=campaign_seed,
            spec=spec,
            violations=list(outcome.violations),
        )
        if log:
            log(
                f"campaign {index + 1}/{campaigns} seed={campaign_seed} "
                f"FAILED: {'; '.join(map(str, outcome.violations))}"
            )
        if shrink_failures:
            failed_oracles = {v.oracle for v in outcome.violations}
            failure.shrunk, failure.shrink_attempts = shrink(
                spec,
                lambda s: campaign_fails(
                    s, knobs, failed_oracles, parallel=parallel
                ),
            )
            if log and failure.shrunk != spec:
                log(f"  shrunk to: {failure.shrunk.describe()}")
        report.failures.append(failure)
    report.wall_seconds = time.perf_counter() - started
    return report
