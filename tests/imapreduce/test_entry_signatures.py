"""The entry points ``benchmarks/e2e`` imports keep their exact shape.

The benchmark (which no PR may edit) calls these by keyword; a refactor
that renames or reorders one would break it without failing any other
tier-1 test.  The literals were printed from the commit before
``execute``/``ExecutionPlan`` existed.

Which names are the API is settled here too: ``execute`` and
``ExecutionPlan``, plus every name ``benchmarks/e2e`` imports
(:func:`test_every_name_the_benchmark_imports_resolves` reads them off
its source).  Anything else under ``repro`` may move.
"""

import ast
import dataclasses
import inspect
import pathlib

import pytest

from repro.imapreduce import (
    ExecutionPlan,
    MemoStore,
    patch_static_table,
    plan_changes,
    random_edge_churn,
    run_accum_local,
    run_accum_parallel,
    run_incremental_accum,
    run_local,
    run_parallel,
)

_STATE = "Iterable[tuple[Any, Any]]"
_STATICS = f"static_records: 'dict[str, {_STATE}] | None' = None"

PINNED = {
    run_local: (
        f"(job: 'IterativeJob', state_records: '{_STATE}', {_STATICS}, *, "
        "num_pairs: 'int' = 4, keep_history: 'bool' = False) -> 'LocalRunResult'"
    ),
    run_parallel: (
        f"(job: 'IterativeJob', state_records: '{_STATE}', {_STATICS}, *, "
        "num_pairs: 'int' = 4, num_workers: 'int | None' = None, "
        "keep_history: 'bool' = False, start_method: 'str | None' = None, "
        "timeout: 'float | None' = 600.0, checkpoint_every: 'int | None' = None, "
        "spool_dir: 'str | None' = None, heartbeat_interval: 'float | None' = 0.5, "
        "suspicion_timeout: 'float | None' = 30.0, max_recoveries: 'int' = 2, "
        "reassign_on_failure: 'bool' = False, "
        "faults: 'Iterable[ProcFault] | None' = None) -> 'ParallelRunResult'"
    ),
    run_accum_local: (
        f"(job, delta_records: '{_STATE}', {_STATICS}, *, num_pairs: 'int' = 4, "
        "mode: 'str' = 'async', keep_trace: 'bool' = False, "
        f"initial_state: '{_STATE} | None' = None)"
    ),
    run_accum_parallel: (
        f"(job: 'AccumJob', delta_records: '{_STATE}', {_STATICS}, *, "
        "num_pairs: 'int' = 4, num_workers: 'int | None' = None, "
        "mode: 'str' = 'async', keep_trace: 'bool' = False, "
        "start_method: 'str | None' = None, timeout: 'float | None' = 600.0, "
        "heartbeat_interval: 'float | None' = 0.5, "
        "suspicion_timeout: 'float | None' = 30.0, "
        f"initial_state: '{_STATE} | None' = None) -> 'AccumRunResult'"
    ),
    run_incremental_accum: (
        "(job: 'AccumJob', algorithm: 'str', delta: 'DataDelta', "
        f"memo_state: '{_STATE}', {_STATICS}, *, num_pairs: 'int' = 4, "
        "mode: 'str' = 'async', backend: 'str' = 'local', "
        "keep_trace: 'bool' = False, damping: 'float | None' = None, "
        "source: 'Any' = None, **backend_kwargs) -> 'AccumRunResult'"
    ),
    MemoStore.save: (
        f"(self, state_records: '{_STATE}', *, job_name: 'str', "
        "num_pairs: 'int', partitioner, meta: 'dict | None' = None) -> 'int'"
    ),
    MemoStore.load: "(self, *, job_name: 'str | None' = None) -> 'tuple[list, dict]'",
    patch_static_table: (
        "(table: 'dict', delta: 'DataDelta', kind: 'AdjacencyKind') -> 'set'"
    ),
    random_edge_churn: (
        "(table: 'dict', algorithm: 'str', *, insert: 'int' = 0, "
        "delete: 'int' = 0, update: 'int' = 0, seed: 'int' = 0, "
        "monotone: 'bool' = False) -> 'DataDelta'"
    ),
    plan_changes: (
        "(algorithm: 'str', table: 'dict', delta: 'DataDelta', "
        "memo_state: 'dict', *, damping: 'float | None' = None, "
        "source: 'Any' = None) -> 'ChangePlan'"
    ),
}


@pytest.mark.parametrize("entry", PINNED, ids=lambda f: f.__qualname__)
def test_signature_is_pinned(entry):
    assert str(inspect.signature(entry)) == PINNED[entry]


#: ``ExecutionPlan``'s fields and defaults, in order.  When the plan was
#: introduced each was a keyword (with that default) of a ``run_*``
#: entry; ``backend``/``warm`` bundle ``run_incremental_accum``'s.
PLAN_FIELDS = (
    ("backend", "serial"), ("num_pairs", 4), ("num_workers", None),
    ("mode", None), ("warm", None), ("checkpoint_every", None),
    ("spool_dir", None), ("faults", ()), ("start_method", None),
    ("timeout", 600.0), ("heartbeat_interval", 0.5),
    ("suspicion_timeout", 30.0), ("keep_history", False),
    ("keep_trace", False), ("seed", 0),
)


def test_every_plan_field_is_an_existing_keyword_with_its_default():
    """No new option: the plan's fields are pinned, like the entry
    signatures above — a new field fails here, not in review."""
    fields = tuple((f.name, f.default) for f in dataclasses.fields(ExecutionPlan))
    assert fields == PLAN_FIELDS


def test_real_backends_do_not_import_the_simulator():
    """``AuxContext`` has one home, beside ``Phase``/``AuxPhase``, and the
    old import paths give the same class; no module of the serial or
    multiprocess backend — nor ``plan``, which every ``repro run``
    imports — imports ``runtime.py`` (the engine used to, for that
    ten-line class; ``plan`` for the simulated accumulative run)."""
    import repro.imapreduce as package
    from repro.imapreduce import (
        accum, checkpoint, columnar, engine, job, localrun, parallel, plan,
        runtime, workerproc,
    )

    assert job.AuxContext.__module__ == job.__name__
    assert runtime.AuxContext is package.AuxContext is job.AuxContext
    for module in (accum, checkpoint, columnar, engine, job, localrun, parallel,
                   plan, workerproc):
        imported = {
            node.module
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.ImportFrom)
        }
        assert "runtime" not in imported, module.__name__


def test_every_name_the_benchmark_imports_resolves():
    """Beyond the pinned signatures, ``benchmarks/e2e/{probes,workloads}.py``
    reach ≈25 deeper names (``localrun.map_pair``, ``accum.partition_state``,
    ``columnar.encode_columnar``, ``workerproc.read_frame``, …).  Read
    every ``repro`` import statement off the benchmark's source and run
    it: a moved name is an ``ImportError`` here, not in the driver's
    benchmark run."""
    e2e = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
    statements = set()
    for path in e2e.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if not node.level else []
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(module.split(".")[0] == "repro" for module in modules):
                statements.add(ast.unparse(node))
    # The walk sees the deep imports the signatures above do not cover.
    assert any("map_pair" in statement for statement in statements)
    for statement in sorted(statements):
        exec(statement, {})
