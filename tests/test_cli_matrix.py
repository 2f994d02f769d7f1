"""The ``repro run`` mode matrix, cell by cell.

Every cell of ``repro.imapreduce.plan.SUPPORT`` (job algebra × backend ×
warm start × fault tolerance) is either *exercised* here — through the
CLI, asserting the exit code and the printed lines with wall times
masked, or through ``execute`` directly for the cells the CLI does not
reach and for the fork/spawn axis — or *refused*: exit 2, the table's
message, and nothing loaded, created or spawned.  ``SUPPORT`` names the
row that covers each cell; the last tests hold the two in step.
"""

import dataclasses
import multiprocessing.process
import re
import subprocess
import sys
import tempfile

import pytest

from repro.algorithms.workloads import build_workload
from repro.cli import build_parser, main
from repro.data.datasets import load_graph
from repro.graph.generators import sssp_graph
from repro.imapreduce import (
    SUPPORT,
    ExecutionPlan,
    MemoStore,
    PlanError,
    ProcFault,
    WarmStart,
    execute,
)
from repro.imapreduce.incremental import cold_rerun_inputs, random_edge_churn
from repro.imapreduce.plan import format_support, resolve

_WALL = re.compile(r"\d+\.\d\ds(?= wall| \(frontier|$)", re.MULTILINE)


def run_cli(capsys, *argv):
    """``repro run argv`` → (exit code, masked stdout lines, stderr)."""
    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, _WALL.sub("<t>s", captured.out).splitlines(), captured.err


SSSP = ("sssp", "--dataset", "dblp")
SYNC_TAIL = "  111,519 updates, 248,737 deltas emitted, 186,802 shipped cross-pair"
ASYNC_TAIL = "  47,479 updates, 230,664 deltas emitted, 173,375 shipped cross-pair"
PROGRESS = "terminated by progress (pending mass 0 vs threshold 0), 15527 records, <t>s wall"

#: id -> (argv, expected stdout lines).  The ids are what SUPPORT's
#: ``oracle`` fields name.
CELLS = {
    "classic-simulated": (
        (*SSSP, "--iterations", "2"),
        ["run imapreduce:sssp: 10.7s total (2 iterations, setup 5.1s, network 6.88 MB)",
         "  iter   elapsed    init      shuffle        state     distance",
         "     1     3.27s   0.00s      0.40 MB      0.40 MB            -",
         "     2     2.24s   0.00s      0.40 MB      0.40 MB            -"],
    ),
    "classic-serial": (
        (*SSSP, "--iterations", "2", "--backend", "serial", "--pairs", "3"),
        ["sssp on dblp [serial (3 pairs)]: 2 iterations, terminated by "
         "maxiter, 15527 records, <t>s wall"],
    ),
    "classic-parallel": (
        (*SSSP, "--iterations", "2", "--backend", "parallel", "--pairs", "4",
         "--workers", "2"),
        ["sssp on dblp [parallel (2 workers, 4 pairs)]: 2 iterations, "
         "terminated by maxiter, 15527 records, <t>s wall"],
    ),
    "classic-parallel-checkpoint": (
        (*SSSP, "--iterations", "4", "--backend", "parallel", "--pairs", "4",
         "--workers", "2", "--checkpoint-every", "2"),
        ["sssp on dblp [parallel (2 workers, 4 pairs)]: 4 iterations, "
         "terminated by maxiter, 15527 records, <t>s wall",
         "  checkpoints committed at iterations [1, 3] (4 spool writes, "
         "434,732 bytes)"],
    ),
    "classic-parallel-kill": (
        (*SSSP, "--iterations", "6", "--backend", "parallel", "--pairs", "4",
         "--workers", "2", "--checkpoint-every", "2", "--kill-worker", "0@3"),
        ["sssp on dblp [parallel (2 workers, 4 pairs)]: 6 iterations, "
         "terminated by maxiter, 15527 records, <t>s wall",
         "  checkpoints committed at iterations [1, 3, 5] (4 spool writes, "
         "434,732 bytes)",
         "  recovery #1: worker imr-worker-0 exited (code -9 (SIGKILL)) "
         "without a final report; restored checkpoint 1, resumed from "
         "iteration 2 (respawn)"],
    ),
    # The benchmark's CLI probe (benchmarks/e2e/probes.py) runs this shape.
    "classic-serial-pagerank": (
        ("pagerank", "--dataset", "pagerank-s", "--backend", "serial",
         "--combiner", "--iterations", "2"),
        ["pagerank on pagerank-s [serial (8 pairs)]: 2 iterations, "
         "terminated by maxiter, 10000 records, <t>s wall"],
    ),
    # Regression: NameError at the parent (ladder branch never imported).
    "classic-serial-matrixpower": (
        ("matrixpower", "--backend", "serial", "--iterations", "2"),
        ["matrixpower on matrix40 [serial (8 pairs)]: 2 iterations, "
         "terminated by maxiter, 1600 records, <t>s wall"],
    ),
    "classic-parallel-matrixpower": (
        ("matrixpower", "--backend", "parallel", "--workers", "2",
         "--pairs", "2", "--iterations", "1"),
        ["matrixpower on matrix40 [parallel (2 workers, 2 pairs)]: 1 "
         "iterations, terminated by maxiter, 1600 records, <t>s wall"],
    ),
    # The --pairs 8 -> 4 clamp is said, not just visible in the banner.
    "classic-serial-kmeans-clamp": (
        ("kmeans", "--backend", "serial", "--pairs", "8", "--iterations", "2"),
        ["kmeans hosts at most k = 4 pairs: running 4, not 8",
         "kmeans on lastfm [serial (4 pairs)]: 2 iterations, terminated by "
         "maxiter, 4 records, <t>s wall"],
    ),
    "sync-serial": (
        (*SSSP, "--mode", "sync", "--backend", "serial", "--pairs", "4"),
        [f"sssp on dblp [serial (4 pairs), accumulative sync]: 21 rounds, {PROGRESS}",
         SYNC_TAIL],
    ),
    "sync-parallel": (
        (*SSSP, "--mode", "sync", "--backend", "parallel", "--pairs", "4",
         "--workers", "2"),
        ["sssp on dblp [parallel (2 workers, 4 pairs), accumulative sync]: "
         f"21 rounds, {PROGRESS}", SYNC_TAIL],
    ),
    "async-serial": (
        (*SSSP, "--mode", "async", "--backend", "serial", "--pairs", "4"),
        [f"sssp on dblp [serial (4 pairs), accumulative async]: 87 rounds, {PROGRESS}",
         ASYNC_TAIL],
    ),
    "async-parallel": (
        (*SSSP, "--mode", "async", "--backend", "parallel", "--pairs", "4",
         "--workers", "2"),
        ["sssp on dblp [parallel (2 workers, 4 pairs), accumulative async]: "
         f"87 rounds, {PROGRESS}", ASYNC_TAIL],
    ),
    # An unset --backend stays simulated for unmemoized runs.
    "async-simulated": (
        (*SSSP, "--mode", "async", "--pairs", "4", "--seed", "3"),
        ["sssp on dblp [simulated (4 pairs, seed 3), accumulative async]: "
         f"92 rounds, {PROGRESS}",
         "  48,429 updates, 235,130 deltas emitted, 176,530 shipped cross-pair"],
    ),
}


@pytest.mark.parametrize("cell", CELLS)
def test_run_cell(cell, capsys):
    argv, expected = CELLS[cell]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


# ------------------------------------------------------- memoized cells --
@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_chained_refreshes(backend, tmp_path, capsys):
    """--memo-dir, then three --memo-dir --delta refreshes: each replays
    the edit history onto the pristine dataset before planning, so warm
    and cold agree every time (the second diverged to inf at the parent
    and still exited 0).  The memoizing run leaves --backend unset on
    the serial leg: it resolves to serial, and the banner says so."""
    memo = str(tmp_path / "memo")
    where = "--backend parallel --workers 2".split() if backend == "parallel" else []
    banner = "parallel (2 workers, 4 pairs)" if backend == "parallel" else "serial (4 pairs)"
    base = (*SSSP, "--mode", "sync", "--pairs", "4", "--memo-dir", memo, *where)
    code, out, err = run_cli(capsys, *base)
    assert (code, err) == (0, "")
    assert out == [
        f"sssp on dblp [{banner}, accumulative sync]: 21 rounds, {PROGRESS}",
        SYNC_TAIL,
        f"  memoized 15527 records as version 0 under {memo}",
    ]
    edges = []
    for seed in (1, 2, 3):
        code, out, err = run_cli(
            capsys, *base, "--delta", "0.01", "--delta-seed", str(seed))
        assert (code, err) == (0, ""), out
        head = re.fullmatch(
            rf"sssp on dblp \[{re.escape(banner)}, accumulative sync, "
            rf"incremental refresh\]: delta \d+ edits \(~1\.00% of "
            rf"([\d,]+) edges, seed {seed}\)", out[0])
        assert head, out[0]
        edges.append(int(head[1].replace(",", "")))
        assert re.fullmatch(r"  warm: \d+ rounds, [\d,]+ updates, [\d,]+ "
                            r"shipped, <t>s \(frontier \d+ keys\)", out[1])
        assert re.fullmatch(r"  cold: 2\d rounds, 11\d,\d+ updates, [\d,]+ "
                            r"shipped, <t>s", out[2])
        assert re.fullmatch(rf"  \d+\.\dx fewer updates than cold rerun; "
                            rf"states agree to 0; memoized version {seed}",
                            out[3])
    # Each refresh sees the graph the previous ones left (inserts grow it).
    assert edges[0] == 75_424 and edges[0] < edges[1] < edges[2]


#: argv[1] is the memo dir: memoize, refresh with a 2-edit churn, then
#: report the exit codes and whether the experiments package got loaded.
_REACHES_NOTHING = """
import sys
from repro.cli import main
base = ["run", "sssp", "--dataset", "dblp", "--mode", "async", "--memo-dir", sys.argv[1]]
codes = [main(base), main(base + ["--delta", "0.00003", "--delta-seed", "3"])]
print(codes, "repro.experiments" in sys.modules)
"""


def test_refresh_that_reaches_nothing(tmp_path):
    """A churn that misses everything reachable from the source leaves
    the warm run nothing to redo: the summary says so (it printed ``infx
    fewer updates``), exits 0 and memoizes the refreshed state.  Run in
    a fresh interpreter to see what the refresh path imports: printing
    one comparison must not load the experiments package (figures, the
    simulated-cluster harness)."""
    proc = subprocess.run(
        [sys.executable, "-c", _REACHES_NOTHING, str(tmp_path / "memo")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _WALL.sub("<t>s", proc.stdout).splitlines()[-4:] == [
        "  warm: 0 rounds, 0 updates, 0 shipped, <t>s (frontier 0 keys)",
        "  cold: 82 rounds, 47,450 updates, 202,218 shipped, <t>s",
        "  no updates needed (cold rerun: 47,450); states agree to 0; "
        "memoized version 1",
        "[0, 0] False",
    ]


def test_refresh_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    memo = str(tmp_path / "memo")
    base = (*SSSP, "--mode", "sync", "--pairs", "2", "--memo-dir", memo)
    assert run_cli(capsys, *base)[0] == 0
    monkeypatch.setattr("repro.testing.oracles.records_identical",
                        lambda a, b: False)
    code, out, err = run_cli(capsys, *base, "--delta", "0.01")
    assert code == 1 and "DISAGREES" in err and "nothing memoized" in err
    assert MemoStore(memo).versions() == [0]


def test_foreign_memo_is_refused_not_a_traceback(tmp_path, capsys):
    memo = str(tmp_path / "memo")
    assert run_cli(capsys, *SSSP, "--mode", "sync", "--memo-dir", memo)[0] == 0
    code, out, err = run_cli(
        capsys, "pagerank", "--dataset", "pagerank-s", "--mode", "sync",
        "--memo-dir", memo, "--delta", "0.01")
    assert (code, out) == (2, [])
    assert "belongs to job 'sssp-accum', not 'pagerank-accum'" in err
    code, out, err = run_cli(
        capsys, "sssp", "--dataset", "sssp-s", "--mode", "sync",
        "--memo-dir", memo, "--delta", "0.01")
    assert (code, out) == (2, []) and "holds 'dblp' state, not 'sssp-s'" in err


def test_delta_without_a_memo_yet(tmp_path, capsys):
    code, out, err = run_cli(capsys, *SSSP, "--mode", "sync", "--memo-dir",
                             str(tmp_path / "memo"), "--delta", "0.01")
    assert (code, out) == (2, []) and "run once without --delta first" in err
    assert not (tmp_path / "memo").exists()


# -------------------------------------------------------- refused cells --
FT = "--checkpoint-every/--spool-dir/--kill-worker"
REFUSED = {
    "accum-checkpoint": (
        (*SSSP, "--mode", "async", "--backend", "parallel", "--checkpoint-every", "2"),
        f"{FT} do not apply to accumulative runs"),
    "accum-kill": (
        (*SSSP, "--mode", "sync", "--backend", "serial", "--kill-worker", "0@1"),
        f"{FT} do not apply to accumulative runs"),
    "simulated-sync": (
        (*SSSP, "--mode", "sync"),
        "--backend simulated only supports --mode async"),
    "delta-without-memo": (
        (*SSSP, "--mode", "async", "--delta", "0.01"),
        "--delta needs --memo-dir"),
    "memo-on-kmeans": (
        ("kmeans", "--mode", "async", "--memo-dir", "MEMO"),
        "no accumulative formulation for 'kmeans' (supported: pagerank, sssp)"),
    "memo-without-mode": (
        (*SSSP, "--memo-dir", "MEMO"),
        "--memo-dir not used by the iterative x serial x warm cell"),
    "simulated-memo": (
        (*SSSP, "--mode", "async", "--backend", "simulated", "--memo-dir", "MEMO"),
        "--memo-dir needs --backend serial or parallel"),
    "serial-checkpoint": (
        (*SSSP, "--backend", "serial", "--checkpoint-every", "2"),
        f"{FT} need --backend parallel"),
    "serial-kill": (
        (*SSSP, "--backend", "serial", "--kill-worker", "0@1:stop"),
        f"{FT} need --backend parallel"),
    "simulated-spool": (
        (*SSSP, "--spool-dir", "SPOOL"), f"{FT} need --backend parallel"),
    "bad-kill-worker": (
        (*SSSP, "--backend", "parallel", "--kill-worker", "zz"),
        "bad --kill-worker: expected W@I[:stop], got 'zz'"),
    "workers-zero": (
        (*SSSP, "--backend", "parallel", "--workers", "0"),
        "--workers must be >= 1, got 0"),
    "delta-negative": (
        (*SSSP, "--mode", "sync", "--memo-dir", "MEMO", "--delta", "-0.5"),
        "--delta must be in (0, 1], got -0.5"),
    "delta-above-one": (
        (*SSSP, "--mode", "sync", "--memo-dir", "MEMO", "--delta", "5"),
        "--delta must be in (0, 1], got 5.0"),
    "cluster-flags-on-serial": (
        (*SSSP, "--backend", "serial", "--engine", "mapreduce", "--cluster",
         "ec2-3", "--sync", "--measure-distance"),
        "--cluster, --engine, --measure-distance, --sync not used by the "
        "iterative x serial x cold cell"),
    "classic-flags-under-mode": (
        (*SSSP, "--mode", "async", "--backend", "serial", "--iterations", "3",
         "--combiner"),
        "--combiner, --iterations not used by the accumulative x serial x "
        "cold cell"),
    "workers-on-serial": (
        (*SSSP, "--backend", "serial", "--workers", "2"),
        "--workers not used by the iterative x serial x cold cell"),
    "pairs-on-simulated-cluster": (
        (*SSSP, "--pairs", "4"),
        "--pairs not used by the iterative x simulated x cold cell"),
    "seed-on-serial-accum": (
        (*SSSP, "--mode", "sync", "--backend", "serial", "--seed", "3"),
        "--seed not used by the accumulative x serial x cold cell"),
    "matrixpower-combiner": (
        ("matrixpower", "--backend", "serial", "--combiner"),
        "--combiner: matrixpower has no combiner"),
}


@pytest.fixture
def nothing_happens(tmp_path, monkeypatch):
    """A refusal must come before any dataset load, spool/memo directory
    or worker process: fail the test if one appears."""
    def no_spawn(self):
        raise AssertionError("a refused plan started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_spawn)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    loads = load_graph.cache_info()
    yield
    assert load_graph.cache_info() == loads, "a refused plan loaded a dataset"
    assert list(tmp_path.iterdir()) == [], "a refused plan left files behind"


@pytest.mark.parametrize("case", REFUSED)
def test_refused(case, capsys, nothing_happens):
    argv, message = REFUSED[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, [])
    assert message in err and "Traceback" not in err


def test_every_refused_cell_raises_before_anything_runs(nothing_happens):
    job = build_workload("sssp", "iterative", sssp_graph(8, seed=1), steps=2).job
    accum = build_workload("sssp", "accumulative", sssp_graph(8, seed=1)).job
    delta = random_edge_churn({0: (), 1: ()}, "sssp", insert=1, seed=1)
    refused = {key: cell for key, cell in SUPPORT.items() if cell.entry is None}
    assert len(refused) == 12
    for (algebra, backend, warm, armed), cell in refused.items():
        plan = ExecutionPlan(
            backend=backend,
            warm=WarmStart("sssp", delta, source=0) if warm else None,
            checkpoint_every=2 if armed else None,
        )
        with pytest.raises(PlanError, match=re.escape(cell.refusal)):
            execute(accum if algebra == "accumulative" else job, [], {}, plan)


def test_simulated_cluster_cell_is_not_an_execute_entry(nothing_happens):
    job = build_workload("sssp", "iterative", sssp_graph(8, seed=1), steps=2).job
    with pytest.raises(PlanError, match="RunSpec"):
        execute(job, [], {}, ExecutionPlan(backend="simulated"))
    with pytest.raises(PlanError, match="needs an accumulative job"):
        execute(job, [], {}, ExecutionPlan(mode="async"))
    with pytest.raises(PlanError, match="unknown backend"):
        execute(job, [], {}, ExecutionPlan(backend="cloud"))


def test_stop_fault_parses_into_the_plan():
    # (Running a SIGSTOP costs the 30 s suspicion window; the execute
    # rows below run one with a short window instead.)
    from repro.cli import _plan_run

    args = build_parser().parse_args(
        ["run", *SSSP, "--backend", "parallel", "--kill-worker", "1@4:stop"])
    cell, plan, _note = _plan_run(args)
    assert plan.faults == (ProcFault(worker=1, iteration=4, action="stop"),)
    assert cell is SUPPORT["iterative", "parallel", False, True]


# ------------------------------------------- execute() cells, fork + spawn --
def _small(formulation, **options):
    graph = sssp_graph(60, seed=7)
    return build_workload("sssp", formulation, graph, num_pairs=4, **options)


def _warm_case(formulation, **options):
    """(job, memo state, statics, WarmStart, cold-rerun reference)."""
    job, inputs, statics, planner, _ = _small(formulation, **options)
    plan = ExecutionPlan(num_pairs=4, mode="sync" if formulation == "accumulative" else None)
    memo = execute(job, inputs, statics, plan)
    (path, records), = statics.items()
    table = dict(records)
    delta = random_edge_churn(table, "sssp", insert=3, delete=3, seed=5)
    cold_deltas, mutated = cold_rerun_inputs("sssp", table, delta, **planner)
    if formulation == "iterative":
        cold_deltas = [(u, 0.0 if u == 0 else float("inf")) for u in mutated]
    reference = execute(job, cold_deltas, {path: mutated}, plan)
    return job, memo.state, statics, WarmStart("sssp", delta, **planner), reference


KILL = dict(checkpoint_every=2, heartbeat_interval=0.05,
            faults=(ProcFault(worker=0, iteration=3),))
STOP = dict(KILL, suspicion_timeout=2.0,
            faults=(ProcFault(worker=0, iteration=3, action="stop"),))

EXECUTE_CELLS = {
    # id -> (formulation, warm?, job options, plan fields)
    "iterative-cold-parallel": ("iterative", False, dict(steps=6), {}),
    "iterative-cold-parallel-kill": ("iterative", False, dict(steps=6), KILL),
    "iterative-warm-parallel": ("iterative", True, dict(threshold=0.0), {}),
    "iterative-warm-parallel-kill": ("iterative", True, dict(threshold=0.0), KILL),
    "accumulative-cold-parallel": ("accumulative", False, {}, dict(mode="async")),
    "accumulative-warm-parallel": ("accumulative", True, {}, dict(mode="async")),
}


def _execute_cell(name, parallel):
    formulation, warm, options, fields = EXECUTE_CELLS[name]
    if warm:
        job, inputs, statics, start, reference = _warm_case(formulation, **options)
        fields = dict(fields, warm=start)
    else:
        job, inputs, statics = _small(formulation, **options)[:3]
        reference = None
    serial = ExecutionPlan(num_pairs=4, mode=fields.get("mode"), warm=fields.get("warm"))
    expected = execute(job, inputs, statics, serial)
    result = execute(job, inputs, statics, dataclasses.replace(serial, **parallel, **fields))
    assert result.state == expected.state  # record for record, floats included
    if reference is not None:
        assert dict(result.state) == dict(reference.state)
    return result


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("name", EXECUTE_CELLS)
def test_execute_parallel_cell(name, start_method):
    result = _execute_cell(name, dict(
        backend="parallel", num_workers=2, start_method=start_method))
    if name.endswith("kill"):
        assert result.recoveries == 1 and result.checkpoints


def test_execute_cell_iterative_warm_serial():
    job, memo, statics, start, reference = _warm_case("iterative", threshold=0.0)
    warm = execute(job, memo, statics, ExecutionPlan(num_pairs=4, warm=start))
    assert dict(warm.state) == dict(reference.state)
    assert warm.iterations_run <= reference.iterations_run


def test_execute_sigstop_is_caught_by_heartbeat_silence():
    job, inputs, statics = _small("iterative", steps=6)[:3]
    expected = execute(job, inputs, statics, ExecutionPlan(num_pairs=4))
    result = execute(job, inputs, statics, ExecutionPlan(
        backend="parallel", num_pairs=4, num_workers=2, **STOP))
    assert result.state == expected.state and result.recoveries == 1
    assert "no heartbeat" in result.recovery_events[0]["reason"]


# ------------------------------------------------- the table stays honest --
def _collected_ids():
    ids = {f"test_run_cell[{cell}]" for cell in CELLS}
    ids |= {f"test_chained_refreshes[{b}]" for b in ("serial", "parallel")}
    ids |= {f"test_execute_parallel_cell[{name}-{method}]"
            for name in EXECUTE_CELLS for method in ("fork", "spawn")}
    ids.add("test_execute_cell_iterative_warm_serial")
    return {"tests/test_cli_matrix.py::" + i for i in ids}


def test_every_cell_is_exercised_or_refused():
    assert len(SUPPORT) == 2 * 3 * 2 * 2
    for key, cell in SUPPORT.items():
        if cell.entry is None:
            assert cell.refusal and not cell.oracle, key
        else:
            assert cell.oracle in _collected_ids(), (key, cell.oracle)


def test_flags_consumed_are_real_flags():
    dests = {action.dest for action in build_parser()._subparsers._group_actions[0]
             .choices["run"]._actions}
    for cell in SUPPORT.values():
        assert cell.flags <= dests


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
def test_modes_prints_the_table_and_the_docs_quote_it(doc, capsys):
    import pathlib

    assert main(["modes"]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert out == format_support() and len(out.splitlines()) == 1 + len(SUPPORT)
    text = (pathlib.Path(__file__).parent.parent / doc).read_text()
    block = text.split("<!-- repro modes -->\n```\n", 1)[1].split("\n```", 1)[0]
    assert block == out, f"regenerate the `repro modes` block in {doc}"


def test_resolve_is_pure_and_warm_overridable():
    plan = ExecutionPlan(backend="serial", mode="sync")
    assert resolve("accumulative", plan).entry == "run_accum_local"
    assert resolve("accumulative", plan, warm=True).oracle.endswith(
        "test_chained_refreshes[serial]")
