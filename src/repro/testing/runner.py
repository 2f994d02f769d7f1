"""Campaign execution: build the table a spec describes, run it, judge it.

A campaign is a table of rows (:func:`campaign_rows`): one per run —
the serial reference, the simulated cluster, and every twin the spec's
dimensions ask for — each naming the run it is compared with and the
oracle that judges it.  ``run_campaign`` is the single entry the smoke
tests, the shrinker and the CLI all share: spec in, every row run
through :func:`~repro.imapreduce.execute` (the cluster through the
simulated runtime), :class:`CampaignOutcome` out — each run's result or
the exception it died with, the trace, and every oracle violation.

``run_chaos`` drives a whole seeded campaign battery: generate K specs
from a master seed, run each, greedily shrink the failures, and return a
:class:`ChaosReport` whose failures carry one-line replay commands.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Callable

from ..algorithms.workloads import build_workload
from ..cluster import heterogeneous_cluster, local_cluster
from ..common import IterKeys, stable_seed
from ..common.records import sort_records
from ..data.lastfm import load_lastfm
from ..dfs import DFS
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
from .campaign import GRAPHS, REPLICATION, WORKLOADS, CampaignSpec, generate_campaign
from .oracles import CLUSTER, OracleViolation, Row, evaluate_oracles
from .shrink import shrink

__all__ = [
    "CampaignOutcome",
    "CampaignFailure",
    "ChaosReport",
    "campaign_rows",
    "run_campaign",
    "campaign_fails",
    "run_chaos",
]

STATE_PATH = "/chaos/state"
STATIC_PATH = "/chaos/static"
OUTPUT_PATH = "/chaos/out"
#: The serial record-path run every iterative twin is judged against.
REFERENCE = "reference"


@dataclass
class CampaignOutcome:
    """Everything one campaign produced, plus the oracles' verdict.

    ``rows`` is the campaign's table (:func:`campaign_rows`) and ``runs``
    maps each row's name to its run's result, or to the exception it
    died with; a row absent from ``runs`` was not run, because a run it
    is seeded from or compared with raised (directly, or upstream of a
    row that was not run).  The ``cluster`` entry
    carries the simulated runtime's result fields plus ``state``, the
    key-sorted DFS readback, and ``trace_events`` is that run's trace.
    """

    spec: CampaignSpec
    rows: list[Row] = field(default_factory=list)
    runs: dict[str, Any] = field(default_factory=dict)
    trace_events: list[TraceEvent] = field(default_factory=list)
    violations: list[OracleViolation] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def recovery_record(self) -> dict | None:
        """The mesh run's recovery trace — campaign seed, the seeded
        ``proc_kill`` and the backend's ``recovery_events`` verbatim —
        or ``None`` unless it took the recovery path."""
        par = self.runs.get("parallel")
        if par is None or isinstance(par, BaseException) or not par.recoveries:
            return None
        kill = self.spec.proc_kill
        return {
            "campaign_seed": self.spec.seed,
            "proc_kill": list(kill) if kill is not None else None,
            "recoveries": par.recoveries,
            "events": list(par.recovery_events),
        }


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
    #: :meth:`CampaignOutcome.recovery_record` of every campaign whose
    #: parallel run took the recovery path.  ``repro chaos
    #: --recovery-log`` serializes these as JSONL for CI artifacts.
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
    return GRAPHS[spec.workload](spec.input_size, seed=stable_seed(spec.seed, "graph"))


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


def _armed(spec: CampaignSpec, parallel_plan: ExecutionPlan) -> ExecutionPlan:
    """The mesh plan; process-death campaigns arm its fault tolerance —
    the seeded kill/stop fires mid-run, recovery restores the durable
    checkpoint, and the recovered run is judged like an unfaulted one."""
    if spec.proc_kill is None:
        return parallel_plan
    victim, at_iteration, action = spec.proc_kill
    mesh_size = max(1, min(parallel_plan.num_workers, spec.num_pairs))
    return replace(
        parallel_plan,
        checkpoint_every=spec.checkpoint_interval,
        heartbeat_interval=0.05,
        # SIGSTOP is only caught by heartbeat silence; give spawn
        # meshes headroom for their interpreter startup.
        suspicion_timeout=30.0 if parallel_plan.start_method == "spawn" else 8.0,
        faults=(ProcFault(worker=victim % mesh_size, iteration=at_iteration,
                          action=action),),
    )


def _schedules(spec: CampaignSpec, parallel_plan, simulated: bool) -> list:
    """``(name, use_kernel, plan)`` for every asynchronous schedule of
    the accumulative twin the spec asks for: serial, the seeded-deferral
    simulated one, the delta kernel (``use_kernels``), the mesh."""
    serial = ExecutionPlan(num_pairs=spec.num_pairs, mode="async")
    schedules = [("serial-async", False, serial)]
    if simulated:
        schedules.append(("simulated", False,
                          replace(serial, backend="simulated", seed=spec.seed)))
    if spec.use_kernels:
        schedules.append(("kernel-async", True, serial))
    if parallel_plan is not None:
        schedules.append(("parallel-async", False,
                          replace(parallel_plan, mode="async")))
    return schedules


def campaign_rows(spec: CampaignSpec, parallel_plan=None) -> list[Row]:
    """The campaign as a table: every run it makes, in order, and what
    each is judged against.  A new execution mode joins as rows, listed
    after the runs it is seeded from or compared with.

    The iterative workload runs on the serial reference, the simulated
    cluster, the kernel twin (``use_kernels``) and the mesh
    (``parallel_plan``; with kernels on it runs the kernel job and must
    reproduce the serial columnar run bit for bit).  ``async_mode``
    adds the accumulative (Maiter-mode) twin: a synchronous serial
    reference and every asynchronous schedule.  ``input_delta`` adds
    the incremental-refresh (i2MapReduce-mode) twin: a cold base run,
    the spec's churn applied to the campaign graph, a cold rerun on the
    mutated input, and every warm refresh of the base's memo.
    """
    job, state, static_map, change = _build_iterative(spec)
    # Min-algebra fixpoints are bit-exact across schedules and executors.
    exact = change is not None and change.fold == "min"
    serial = ExecutionPlan(num_pairs=spec.num_pairs)
    rows = [
        Row(REFERENCE, job, state, static_map, serial, oracle="differential"),
        # The simulated tasks run the engine's per-pair functions in its
        # delivery order: the cluster reproduces the reference bit for bit.
        Row(CLUSTER, job, state, static_map, None, REFERENCE, "differential",
            exact=True, crash_oracle="termination"),
    ]
    twin, mesh_job = REFERENCE, job
    if spec.use_kernels:
        twin, mesh_job = "kernel", _build_iterative(spec, use_kernel=True).job
        rows.append(Row(twin, mesh_job, state, static_map, serial, REFERENCE,
                        "kernel-differential", exact=exact))
    if parallel_plan is not None:
        rows.append(Row("parallel", mesh_job, state, static_map,
                        _armed(spec, parallel_plan), twin,
                        "parallel-differential", exact=True))
    if not spec.async_mode and spec.input_delta is None:
        return rows

    jobs = {False: _build_accumulative(spec)}
    if spec.use_kernels:
        jobs[True] = _build_accumulative(spec, use_kernel=True)
    _job, deltas, static_map, _change = jobs[False]
    sync = ExecutionPlan(num_pairs=spec.num_pairs, mode="sync")

    def accum(name, kernel, plan, inputs, statics, reference, oracle,
              seed_from=None):
        return Row(name, jobs[kernel].job, inputs, statics, plan, reference,
                   oracle, exact=exact, progress=True,
                   seed_from=seed_from)

    if spec.async_mode:
        oracle = "async-fixpoint"
        rows.append(accum("sync-reference", False, sync, deltas, static_map,
                          None, oracle))
        rows += [
            accum(name, kernel, plan, deltas, static_map, "sync-reference", oracle)
            for name, kernel, plan in _schedules(spec, parallel_plan, True)
        ]
    if spec.input_delta is not None:
        oracle = "incremental-differential"
        table = dict(static_map[STATIC_PATH])
        insert, delete, churn_seed = spec.input_delta
        delta = random_edge_churn(table, spec.workload, insert=insert,
                                  delete=delete, seed=churn_seed)
        cold_deltas, mutated = cold_rerun_inputs(change, table, delta)
        warm = WarmStart(change, delta)
        rows += [
            accum("cold-base", False, sync, deltas, static_map, None, oracle),
            accum("cold-rerun", False, sync, cold_deltas,
                  {STATIC_PATH: mutated}, None, oracle),
        ]
        rows += [
            accum(f"warm-{name}", kernel, replace(plan, warm=warm), None,
                  static_map, "cold-rerun", oracle, seed_from="cold-base")
            for name, kernel, plan in [
                ("serial-sync", False, sync),
                *_schedules(spec, parallel_plan, False),
            ]
        ]
    return rows


def _run_cluster(spec: CampaignSpec, row: Row, knobs, tracer: Tracer):
    """The simulated-cluster row: the spec's topology, faults and mode
    matrix on :class:`IMapReduceRuntime`.  Its result carries ``state``,
    the key-sorted DFS readback, or is the exception the run died with."""
    engine = Engine()
    if spec.speeds is not None:
        cluster = heterogeneous_cluster(engine, list(spec.speeds))
    else:
        cluster = local_cluster(engine, spec.cluster_nodes)
    dfs = DFS(cluster, replication=REPLICATION)
    dfs.ingest(STATE_PATH, row.inputs)
    for path, records in row.statics.items():
        dfs.ingest(path, records)
    # Link-fault draws are keyed off the campaign seed, so the whole
    # scenario — workload, faults, and every per-message loss verdict —
    # replays from one integer.
    spec.fault_schedule().arm(engine, cluster, net_seed=spec.seed)
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
        result = runtime.submit(row.job)
    except Exception as exc:  # judged by the termination oracle
        return exc
    # Read the final partitions straight from the DFS metadata — no
    # simulated I/O, so a fault event pending after the job's completion
    # cannot interfere with the readback — key-sorted, as the serial
    # backends hand their state over.
    state = sort_records(
        record
        for path in result.final_paths
        if dfs.exists(path)
        for record in dfs.file_info(path).records
    )
    return SimpleNamespace(**vars(result), state=state)


# -------------------------------------------------------------- running --
def run_campaign(
    spec: CampaignSpec,
    knobs: ChaosKnobs | None = None,
    *,
    parallel: bool = False,
    parallel_workers: int = 2,
    parallel_start_method: str | None = None,
) -> CampaignOutcome:
    """Run every row of one campaign's table and evaluate every oracle.

    ``knobs`` deliberately breaks the simulated runtime (harness
    self-test): a correct harness must report violations for a broken
    runtime.

    ``parallel`` is a run-time dimension, not part of the spec (pinned
    campaign seeds keep generating byte-identical specs): it adds the
    real multiprocess backend's rows, judged record for record against
    their serial twins.  ``parallel_start_method`` pins the
    multiprocessing start method (the differential matrix exercises
    ``spawn`` as well as ``fork``).
    """
    started = time.perf_counter()
    spec.validate()
    parallel_plan = None
    if parallel:
        parallel_plan = ExecutionPlan(
            num_pairs=spec.num_pairs, backend="parallel",
            num_workers=parallel_workers, start_method=parallel_start_method,
        )
    outcome = CampaignOutcome(spec=spec, rows=campaign_rows(spec, parallel_plan))
    runs, tracer = outcome.runs, Tracer()
    for row in outcome.rows:
        sources = [runs.get(s) for s in (row.seed_from, row.reference) if s]
        if any(s is None or isinstance(s, BaseException) for s in sources):
            continue  # not run: the judge reports the raise it stems from
        if row.plan is None:
            runs[row.name] = _run_cluster(spec, row, knobs, tracer)
            continue
        inputs = row.inputs
        if row.seed_from is not None:  # an earlier run's final state
            inputs = runs[row.seed_from].state
        try:
            runs[row.name] = execute(row.job, inputs, row.statics, row.plan)
        except Exception as exc:  # judged by the row's oracle
            runs[row.name] = exc
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
    """Shrinking predicate: does ``spec`` still violate (the given) oracles?

    A run that raised is a violation of its row's oracle like any other,
    reference rows included: a spec on which the serial reference
    crashes reproduces a ``differential`` failure.  Only a spec the
    runner cannot build (the shrinker stepped outside the envelope
    ``CampaignSpec.validate`` checks) does not count.
    """
    try:
        outcome = run_campaign(spec, knobs, parallel=parallel)
    except Exception:
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
        record = outcome.recovery_record()
        if record is not None:
            report.recovery_events.append(record)
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
