"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``datasets [sssp|pagerank]``
    Print the Table 1 / Table 2 dataset stand-ins (paper vs generated).

``list-figures``
    List every reproducible table/figure with the paper's claim.

``figure <name> …``
    Regenerate one or more figures (e.g. ``figure fig6 fig18``) and print
    the paper-style series and statistics.

``run <algorithm>``
    Run one workload.  The flags build an ``ExecutionPlan`` (backend,
    ``--mode sync|async`` for the accumulative/Maiter formulation,
    ``--memo-dir``/``--delta`` for incremental refreshes,
    ``--checkpoint-every``/``--kill-worker`` for fault tolerance) that
    ``repro.imapreduce.execute`` runs; a combination the support table
    refuses, a flag the chosen cell ignores, or an out-of-range value
    exits 2 before anything is loaded.

``modes``
    Print that support table: every backend × algebra × warm-start ×
    fault-tolerance cell with the engine entry and test that cover it,
    or the reason it is refused.

``report``
    Write EXPERIMENTS.md (optionally reusing ``--results-dir`` output
    saved by a benchmark run).

``chaos``
    Run a battery of seeded random chaos campaigns against the runtime
    and judge each with the differential/invariant oracles.  Options:
    ``--seed``, ``--campaigns``, ``--campaign-seed`` (replay one),
    ``--spec`` (replay a shrunk JSON spec), ``--workloads``,
    ``--no-shrink``, ``--inject-bug`` (harness self-test),
    ``--no-net-faults`` (crash-only campaigns), ``--parallel`` (+
    ``--parallel-start-method``, ``--recovery-log``), ``--verbose``.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iMapReduce reproduction — datasets, figures and workloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("datasets", help="print Table 1/2 dataset stand-ins")
    p_data.add_argument("kind", nargs="?", choices=("sssp", "pagerank"), default=None)

    sub.add_parser("list-figures", help="list reproducible tables/figures")

    p_fig = sub.add_parser("figure", help="regenerate figures by name")
    p_fig.add_argument("names", nargs="+", help="e.g. fig6 fig18 table1")

    p_run = sub.add_parser("run", help="run one workload on the simulated cluster")
    p_run.add_argument("algorithm", choices=("sssp", "pagerank", "kmeans", "matrixpower"))
    p_run.add_argument("--dataset", default=None, help="dataset name (default per algorithm)")
    p_run.add_argument("--backend", choices=("simulated", "serial", "parallel"),
                       default=None,
                       help="simulated cluster (default; serial with "
                            "--memo-dir), serial in-process engine, or the "
                            "real multiprocess mesh — `repro modes` lists "
                            "what each supports")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes for --backend parallel")
    p_run.add_argument("--pairs", type=int, default=None,
                       help="task pairs for the serial/parallel backends "
                            "(default 8)")
    p_run.add_argument("--mode", choices=("sync", "async"), default=None,
                       help="run the accumulative (Maiter) formulation "
                            "instead of the classic iterative job: 'sync' "
                            "drains every pending delta each round, 'async' "
                            "drains the highest-priority fraction first "
                            "(sssp and pagerank only)")
    p_run.add_argument("--engine", choices=("imapreduce", "mapreduce"), default=None,
                       help="(simulated cluster) default imapreduce")
    p_run.add_argument("--cluster", default=None,
                       help="(simulated cluster) local (default) | single | ec2-<n>")
    p_run.add_argument("--iterations", type=int, default=None,
                       help="iteration budget of a classic run (default 10)")
    p_run.add_argument("--sync", action="store_true", help="synchronous maps (iMapReduce)")
    p_run.add_argument("--combiner", action="store_true")
    p_run.add_argument("--measure-distance", action="store_true",
                       help="arm per-iteration convergence measurement")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed for all stochastic run choices (default "
                            "0 = historical defaults)")
    p_run.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="(--backend parallel) durable checkpoint every N "
                            "iterations; arms recovery on worker death")
    p_run.add_argument("--spool-dir", default=None, metavar="DIR",
                       help="(--backend parallel) keep checkpoint spool files "
                            "in DIR instead of a temp dir")
    p_run.add_argument("--kill-worker", default=None, metavar="W@I[:stop]",
                       help="(--backend parallel) fault injection: SIGKILL "
                            "worker W at iteration I (':stop' sends SIGSTOP "
                            "and lets the heartbeat suspicion catch it)")
    p_run.add_argument("--memo-dir", default=None, metavar="DIR",
                       help="(--mode sync|async) memoize the converged "
                            "state in DIR; a later run with --delta "
                            "warm-starts from it (i2MapReduce mode)")
    p_run.add_argument("--delta", type=float, default=None, metavar="FRAC",
                       help="(--mode + --memo-dir) mutate FRAC of the "
                            "edges (seeded churn) and refresh "
                            "incrementally from the memoized state, "
                            "printing the warm-vs-cold comparison")
    p_run.add_argument("--delta-seed", type=int, default=None,
                       help="seed for the --delta churn draw (default 0)")

    sub.add_parser("modes", help="print the supported-mode matrix "
                                 "(backend x algebra x warm x faults)")

    p_rep = sub.add_parser("report", help="write EXPERIMENTS.md")
    p_rep.add_argument("--output", default="EXPERIMENTS.md")
    p_rep.add_argument("--results-dir", default=None,
                       help="reuse figure text saved by a benchmark run")

    p_chaos = sub.add_parser(
        "chaos", help="run seeded chaos campaigns with differential oracles"
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="master seed for the campaign battery")
    p_chaos.add_argument("--campaigns", type=int, default=20,
                         help="number of campaigns to run")
    p_chaos.add_argument("--campaign-seed", type=int, default=None,
                         help="replay one campaign by its seed")
    p_chaos.add_argument("--spec", default=None, metavar="JSON",
                         help="replay an exact campaign spec (JSON)")
    p_chaos.add_argument("--workloads", default=None,
                         help="comma-separated subset, e.g. sssp,pagerank")
    p_chaos.add_argument("--no-shrink", action="store_true",
                         help="skip shrinking failing campaigns")
    p_chaos.add_argument("--inject-bug", default=None,
                         choices=("skip-ckpt-write", "stale-ckpt",
                                  "ignore-hb-timeout", "skip-retransmit"),
                         help="deliberately break the runtime (self-test)")
    p_chaos.add_argument("--no-net-faults", action="store_true",
                         help="strip link faults (loss/delay/partitions) "
                              "from every campaign")
    p_chaos.add_argument("--parallel", action="store_true",
                         help="also run each campaign's workload on the real "
                              "multiprocess backend and demand record-for-"
                              "record equality with the serial reference")
    p_chaos.add_argument("--parallel-start-method", default=None,
                         choices=("fork", "spawn"),
                         help="pin the multiprocessing start method for "
                              "--parallel runs")
    p_chaos.add_argument("--recovery-log", default=None, metavar="PATH",
                         help="append one JSON line per recovered parallel "
                              "run (seeded proc kill, restored checkpoint, "
                              "resume point) — CI artifact")
    p_chaos.add_argument("--verbose", action="store_true",
                         help="log every campaign, not just failures")

    p_gc = sub.add_parser(
        "gc", help="prune stale checkpoint spools / memo versions"
    )
    p_gc.add_argument("--spool-dir", required=True, metavar="DIR",
                      help="checkpoint spool or --memo-dir directory")
    p_gc.add_argument("--keep", type=int, default=1,
                      help="committed manifests to retain (default 1)")
    return parser


_DEFAULT_DATASETS = {
    "sssp": "dblp",
    "pagerank": "google",
    "kmeans": "lastfm",
    "matrixpower": "matrix40",
}


def _cmd_datasets(args) -> int:
    from .data import dataset_table

    kinds = [args.kind] if args.kind else ["sssp", "pagerank"]
    for kind in kinds:
        table_no = 1 if kind == "sssp" else 2
        print(f"Table {table_no} ({kind}): paper -> stand-in")
        for row in dataset_table(kind):
            print(
                f"  {row['graph']:<12} paper {row['paper_nodes']:>10,} nodes /"
                f" {row['paper_edges']:>12,} edges ({row['paper_file_size']});"
                f"  stand-in {row['nodes']:>8,} / {row['edges']:>10,}"
                f" ({row['file_size_bytes'] / 1e6:.1f} MB)"
            )
    return 0


def _cmd_list_figures(args) -> int:
    from .experiments.figures import ALL_FIGURES
    from .experiments.report import PAPER_CLAIMS

    for name in ALL_FIGURES:
        print(f"  {name:<8} {PAPER_CLAIMS[name]}")
    return 0


def _cmd_figure(args) -> int:
    from .experiments.figures import ALL_FIGURES

    unknown = [n for n in args.names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    for name in args.names:
        print(ALL_FIGURES[name]().format_text())
    return 0


#: ``repro run`` values that apply when the flag is unset — argparse
#: leaves every option ``None``/``False`` so that a flag the chosen
#: SUPPORT cell does not consume is detectable, not silently ignored.
_RUN_DEFAULTS = {"pairs": 8, "iterations": 10, "engine": "imapreduce",
                 "cluster": "local", "seed": 0, "delta_seed": 0}
_RUN_MINIMUM = {"workers": 1, "pairs": 1, "iterations": 1,
                "checkpoint_every": 1}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _plan_run(args):
    """``repro run`` flags → ``(cell, plan, note)``.

    Everything that can be refused is refused here — an unsupported
    cell, a flag the cell does not consume, an out-of-range value — as
    one :class:`PlanError`, before any dataset is loaded, directory
    created or process spawned.  Fills the unset options of ``args``
    with their defaults on the way out.
    """
    import re

    from .algorithms.workloads import RUN_KMEANS_K, builder_for
    from .imapreduce import ProcFault
    from .imapreduce.plan import SUPPORT, ExecutionPlan, PlanError, resolve

    algebra = "iterative" if args.mode is None else "accumulative"
    memoized = args.memo_dir is not None
    if args.delta is not None and not memoized:
        raise PlanError("--delta needs --memo-dir (the memoized state to "
                        "warm-start from)")
    # An unset --backend resolves per cell: memoized runs need a real
    # executor, everything else keeps the simulated default.
    backend = args.backend or ("serial" if memoized else "simulated")
    try:
        builder_for(args.algorithm, algebra)
    except ValueError as exc:
        raise PlanError(str(exc)) from None
    for dest, low in _RUN_MINIMUM.items():
        value = getattr(args, dest)
        if value is not None and value < low:
            raise PlanError(f"{_flag(dest)} must be >= {low}, got {value}")
    if args.delta is not None and not 0.0 < args.delta <= 1.0:
        raise PlanError(f"--delta must be in (0, 1], got {args.delta}")
    if args.combiner and args.algorithm == "matrixpower":
        raise PlanError("--combiner: matrixpower has no combiner")
    faults = ()
    if args.kill_worker is not None:
        match = re.fullmatch(r"(\d+)@(\d+)(?::(kill|stop))?", args.kill_worker)
        if match is None:
            raise PlanError("bad --kill-worker: expected W@I[:stop], got "
                            f"{args.kill_worker!r}")
        faults = (ProcFault(worker=int(match[1]), iteration=int(match[2]),
                            action=match[3] or "kill"),)
    pairs, note = args.pairs or _RUN_DEFAULTS["pairs"], None
    if (args.algorithm == "kmeans" and backend != "simulated"
            and pairs > RUN_KMEANS_K):
        note = (f"kmeans hosts at most k = {RUN_KMEANS_K} pairs: running "
                f"{RUN_KMEANS_K}, not {pairs}")
        pairs = RUN_KMEANS_K
    plan = ExecutionPlan(
        backend=backend, num_pairs=pairs, num_workers=args.workers,
        mode=args.mode, checkpoint_every=args.checkpoint_every,
        spool_dir=args.spool_dir, faults=faults,
        seed=(args.seed or 0) if backend == "simulated" else 0,
    )
    cell = resolve(algebra, plan, warm=memoized)
    every_flag = frozenset().union(*(c.flags for c in SUPPORT.values()))
    ignored = sorted(
        _flag(dest) for dest in every_flag - cell.flags
        if getattr(args, dest) not in (None, False)
    )
    if ignored:
        where = " x ".join(filter(None, (
            algebra, backend, "warm" if memoized else "cold",
            "fault-tolerant" if plan.fault_tolerant else "")))
        raise PlanError(f"{', '.join(ignored)} not used by the {where} "
                        "cell (see `repro modes`)")
    for dest, default in _RUN_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    return cell, plan, note


def _cmd_run(args) -> int:
    from .imapreduce.plan import PlanError

    try:
        cell, plan, note = _plan_run(args)
    except PlanError as exc:
        print(exc, file=sys.stderr)
        return 2
    dataset = args.dataset or _DEFAULT_DATASETS[args.algorithm]
    if (plan.backend, plan.mode) != ("simulated", None):
        if note:
            print(note)
        return _run_engine(args, dataset, plan)
    # Classic runs on the simulated cluster go through the figure runner
    # (it also builds the Hadoop-baseline twin); the flags this cell
    # consumes are exactly RunSpec's other fields.
    from .experiments.workloads import RunSpec, execute as run_spec
    from .metrics import format_run

    args.dataset = dataset
    spec = RunSpec(algorithm=args.algorithm,
                   **{dest: getattr(args, dest) for dest in cell.flags})
    print(format_run(run_spec(spec)))
    return 0


def _where(plan, result) -> str:
    pairs = f"{plan.num_pairs} pairs"
    if plan.backend == "parallel":
        return f"parallel ({result.num_workers} workers, {pairs})"
    if plan.backend == "simulated":
        return f"simulated ({pairs}, seed {plan.seed})"
    return f"serial ({pairs})"


def _format_result(title: str, plan, job, result, elapsed: float) -> str:
    """The one result formatter of every real-engine ``repro run``."""
    if plan.mode is None:
        lines = [
            f"{title} [{_where(plan, result)}]: {result.iterations_run} "
            f"iterations, terminated by {result.terminated_by}, "
            f"{len(result.state)} records, {elapsed:.2f}s wall"
        ]
        if plan.checkpoint_every:
            lines.append(
                f"  checkpoints committed at iterations "
                f"{result.checkpoints or '[]'} "
                f"({result.counter('ckpt_writes')} spool writes, "
                f"{result.counter('ckpt_bytes'):,} bytes)"
            )
        lines += [
            f"  recovery #{event['generation']}: {event['reason']}; "
            f"restored checkpoint {event['restored_checkpoint']}, "
            f"resumed from iteration {event['resume_from']} "
            f"({event['mode']})"
            for event in getattr(result, "recovery_events", ())
        ]
        return "\n".join(lines)
    return (
        f"{title} [{_where(plan, result)}, accumulative {plan.mode}]: "
        f"{result.rounds} rounds, terminated by {result.terminated_by} "
        f"(pending mass {result.pending_mass:.3g} vs threshold "
        f"{job.threshold:.3g}), {len(result.state)} records, "
        f"{elapsed:.2f}s wall\n"
        f"  {result.updates_processed:,} updates, "
        f"{result.deltas_emitted:,} deltas emitted, "
        f"{result.deltas_shipped:,} shipped cross-pair"
    )


def _run_engine(args, dataset: str, plan) -> int:
    """Real-engine ``repro run``: workload-table lookup, ``execute``,
    one formatter.  With ``--memo-dir`` the converged state is memoized
    (the i2MapReduce path); with ``--delta`` as well, :func:`_refresh`
    warm-starts from that memo instead."""
    import os
    import time

    from .algorithms.workloads import MAX_ROUNDS, build_workload, load_source
    from .imapreduce import MemoStore, execute

    accum = plan.mode is not None
    if args.delta is not None and not (
            os.path.isdir(args.memo_dir) and MemoStore(args.memo_dir).has()):
        print(f"no memoized state under {args.memo_dir!r}; run once "
              "without --delta first", file=sys.stderr)
        return 2
    workload = build_workload(
        args.algorithm, "accumulative" if accum else "iterative",
        load_source(args.algorithm, dataset, args.seed),
        steps=MAX_ROUNDS if accum else args.iterations,
        num_pairs=plan.num_pairs,
        **({"combiner": True} if args.combiner else {}),
    )
    memo = MemoStore(args.memo_dir) if args.memo_dir else None
    if args.delta is not None:
        return _refresh(args, dataset, plan, workload, memo)
    started = time.perf_counter()
    result = execute(workload.job, workload.inputs, workload.statics, plan)
    elapsed = time.perf_counter() - started
    print(_format_result(f"{args.algorithm} on {dataset}", plan,
                         workload.job, result, elapsed))
    if memo is not None:
        version = _memoize(memo, args, dataset, plan, workload, result, [])
        print(f"  memoized {len(result.state)} records as version "
              f"{version} under {args.memo_dir}")
    return 0


def _memoize(memo, args, dataset, plan, workload, result, deltas) -> int:
    """Save ``result`` with the edit history that produced its graph:
    ``deltas`` is every ``DataDelta.to_tuple()`` applied to the pristine
    dataset so far, replayed by the next refresh (refreshes chain)."""
    return memo.save(
        result.state, job_name=workload.job.name, num_pairs=plan.num_pairs,
        partitioner=workload.job.partitioner,
        meta={"algorithm": args.algorithm, "dataset": dataset,
              "deltas": deltas, **workload.planner},
    )


def _refresh(args, dataset: str, plan, workload, memo) -> int:
    """``repro run --mode ... --memo-dir D --delta F``: synthesize a
    seeded churn touching ~F of the edges, refresh incrementally from
    the memo (warm start + change propagation), rerun cold on the
    mutated input, and — when the two fixpoints agree within the
    ``incremental-differential`` oracle's tolerance — memoize the
    refreshed state.  Disagreement exits 1 and memoizes nothing."""
    from .imapreduce import DataDelta, DeltaError, patch_static_table
    from .imapreduce.incremental import ADJACENCY_KINDS
    from .imapreduce.plan import refresh_vs_cold

    job = workload.job
    try:
        memo_records, meta = memo.load(job_name=job.name)
    except DeltaError as exc:
        print(exc, file=sys.stderr)
        return 2
    if meta.get("dataset") != dataset:
        print(f"memo under {args.memo_dir!r} holds {meta.get('dataset')!r} "
              f"state, not {dataset!r}", file=sys.stderr)
        return 2
    # The memo is the fixpoint of the graph *after* every earlier
    # refresh, so replay those edits before drawing and planning this one.
    table = dict(workload.statics[job.static_path])
    history = list(meta.get("deltas", ()))
    for applied in history:
        patch_static_table(table, DataDelta.from_tuple(applied),
                           ADJACENCY_KINDS[args.algorithm])
    num_edges = sum(len(row) for row in table.values())
    delta, (warm, warm_wall), (cold, cold_wall), agree = refresh_vs_cold(
        workload, args.algorithm, memo_records, table, args.delta,
        args.delta_seed, plan,
    )
    max_diff = max(
        (abs(a[1] - b[1]) for a, b in zip(warm.state, cold.state)
         if a[1] != b[1]),
        default=0.0,
    )
    print(
        f"{args.algorithm} on {dataset} [{_where(plan, warm)}, "
        f"accumulative {plan.mode}, incremental refresh]: delta "
        f"{delta.size} edits (~{args.delta:.2%} of {num_edges:,} edges, "
        f"seed {args.delta_seed})"
    )
    frontier = warm.counters["incremental"]["frontier_keys"]
    for name, run, tail in (
        ("warm", warm, f"{warm_wall:.2f}s (frontier {frontier} keys)"),
        ("cold", cold, f"{cold_wall:.2f}s"),
    ):
        print(f"  {name}: {run.rounds} rounds, {run.updates_processed:,} "
              f"updates, {run.deltas_shipped:,} shipped, {tail}")
    if not agree:
        print(f"  warm refresh DISAGREES with the cold rerun (max "
              f"difference {max_diff:.3g}); nothing memoized",
              file=sys.stderr)
        return 1
    version = _memoize(memo, args, dataset, plan, workload, warm,
                       history + [delta.to_tuple()])
    # A churn that misses everything reachable leaves nothing to redo.
    saved = (
        f"{cold.updates_processed / warm.updates_processed:.1f}x fewer "
        "updates than cold rerun" if warm.updates_processed
        else f"no updates needed (cold rerun: {cold.updates_processed:,})"
    )
    print(f"  {saved}; states agree to {max_diff:.3g}; memoized version "
          f"{version}")
    return 0


def _cmd_modes(args) -> int:
    from .imapreduce.plan import format_support

    print(format_support())
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import main as report_main

    report_main(args.output, args.results_dir)
    return 0


def _append_recovery_log(path: str, records: list[dict]) -> None:
    """Append recovery traces as JSONL (one campaign per line)."""
    import json

    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, default=str) + "\n")


_BUG_KNOBS = {
    "skip-ckpt-write": "skip_checkpoint_write",
    "stale-ckpt": "stale_checkpoint_content",
    "ignore-hb-timeout": "ignore_heartbeat_timeout",
    "skip-retransmit": "skip_retransmit",
}


def _cmd_chaos(args) -> int:
    from .imapreduce import ChaosKnobs
    from .testing import (
        WORKLOADS,
        CampaignSpec,
        generate_campaign,
        run_campaign,
        run_chaos,
    )

    knobs = None
    if args.inject_bug:
        knobs = ChaosKnobs(**{_BUG_KNOBS[args.inject_bug]: True})

    # Single-campaign replay modes.
    if args.spec is not None or args.campaign_seed is not None:
        try:
            if args.spec is not None:
                spec = CampaignSpec.from_json(args.spec)
                spec.validate()
            else:
                spec = generate_campaign(args.campaign_seed)
        except (ValueError, TypeError) as exc:
            print(f"bad campaign spec: {exc}", file=sys.stderr)
            return 2
        if args.no_net_faults:
            spec = spec.but(net_faults=())
        print(f"replaying: {spec.describe()}")
        outcome = run_campaign(
            spec, knobs, parallel=args.parallel,
            parallel_start_method=args.parallel_start_method,
        )
        par = outcome.parallel_result
        if args.recovery_log and par is not None and par.recoveries:
            _append_recovery_log(args.recovery_log, [{
                "campaign_seed": args.campaign_seed,
                "proc_kill": list(spec.proc_kill)
                if spec.proc_kill is not None else None,
                "recoveries": par.recoveries,
                "events": list(par.recovery_events),
            }])
        if outcome.ok:
            print(f"all oracles passed ({outcome.wall_seconds:.2f}s)")
            return 0
        for violation in outcome.violations:
            print(f"  {violation}")
        return 1

    workloads = WORKLOADS
    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
        unknown = [w for w in workloads if w not in WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2

    log = print if args.verbose else None
    report = run_chaos(
        args.seed,
        args.campaigns,
        workloads=workloads,
        knobs=knobs,
        shrink_failures=not args.no_shrink,
        strip_net_faults=args.no_net_faults,
        parallel=args.parallel,
        parallel_start_method=args.parallel_start_method,
        log=log,
    )
    if args.recovery_log and report.recovery_events:
        _append_recovery_log(args.recovery_log, report.recovery_events)
    print(
        f"chaos: seed={report.master_seed} campaigns={report.campaigns} "
        f"passed={report.passed} failed={len(report.failures)} "
        f"recovered={len(report.recovery_events)} "
        f"({report.wall_seconds:.1f}s)"
    )
    for failure in report.failures:
        print(f"\ncampaign seed {failure.campaign_seed} FAILED:")
        print(f"  spec: {failure.spec.describe()}")
        for violation in failure.violations:
            print(f"  {violation}")
        if failure.shrunk is not None and failure.shrunk != failure.spec:
            print(
                f"  shrunk ({failure.shrink_attempts} attempts): "
                f"{failure.shrunk.describe()}"
            )
        print("  replay with:")
        for line in failure.replay_lines(args.inject_bug):
            print(f"    {line}")
    return 0 if report.ok else 1


def _cmd_gc(args) -> int:
    """``repro gc``: retention pass over a spool / memo directory."""
    import os

    from .imapreduce.checkpoint import CheckpointStore

    if args.keep < 1:
        print("--keep must be >= 1", file=sys.stderr)
        return 2
    if not os.path.isdir(args.spool_dir):
        print(f"no such directory: {args.spool_dir}", file=sys.stderr)
        return 2
    stats = CheckpointStore(args.spool_dir).gc(keep=args.keep)
    print(
        f"gc {args.spool_dir}: kept {stats['kept_manifests']} "
        f"manifest(s), pruned {stats['pruned_manifests']} manifest(s) "
        f"+ {stats['pruned_files']} spool file(s) "
        f"({stats['pruned_bytes']:,} bytes reclaimed)"
    )
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "list-figures": _cmd_list_figures,
    "figure": _cmd_figure,
    "run": _cmd_run,
    "modes": _cmd_modes,
    "report": _cmd_report,
    "chaos": _cmd_chaos,
    "gc": _cmd_gc,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
