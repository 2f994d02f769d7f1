"""Unit tests for the judge, the invariant oracles and the comparison
helpers — and one campaign whose every row is checked to be wired to
its oracle."""

import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np

from repro.imapreduce import ExecutionPlan
from repro.metrics.trace import TraceEvent
from repro.testing import generate_campaign
from repro.testing.oracles import (
    ALL_ORACLES,
    CLUSTER,
    Row,
    evaluate_oracles,
    judge,
    oracle_checkpoint_rollback,
    oracle_parallel_recovery,
    oracle_termination,
    oracle_trace_well_formed,
    records_identical,
    states_match,
    values_close,
    values_identical,
)
from repro.testing.runner import CampaignOutcome, campaign_rows, run_campaign


def spec(max_iterations=5, checkpoint_interval=2, proc_kill=None):
    return SimpleNamespace(
        max_iterations=max_iterations, checkpoint_interval=checkpoint_interval,
        proc_kill=proc_kill,
    )


def res(state=(), iterations_run=3, terminated_by="max-iterations"):
    """An iterative run's result, as the judge reads it."""
    return SimpleNamespace(
        state=list(state), iterations_run=iterations_run,
        terminated_by=terminated_by,
    )


def acc(state, terminated_by="progress"):
    """An accumulative run's result, as the judge reads it."""
    return SimpleNamespace(state=list(state), terminated_by=terminated_by)


def outcome(runs=None, rows=(), trace_events=()):
    return CampaignOutcome(
        spec=None, rows=list(rows), runs={CLUSTER: res()} if runs is None else runs,
        trace_events=list(trace_events),
    )


#: The iterative rows every campaign has, and its two iterative twins.
ITERATIVE = [
    Row("reference", oracle="differential"),
    Row(CLUSTER, reference="reference", oracle="differential",
        crash_oracle="termination"),
]
KERNEL = Row("kernel", reference="reference", oracle="kernel-differential")
MESH = Row("parallel", reference="reference", oracle="parallel-differential",
           exact=True)


def table(seed=38, parallel=False, **dims):
    """A real campaign table (nothing is run to build one)."""
    base = dict(use_kernels=False, async_mode=False, input_delta=None,
                proc_kill=None)
    plan = ExecutionPlan(num_pairs=2, backend="parallel", num_workers=2)
    return campaign_rows(generate_campaign(seed).but(**{**base, **dims}),
                         plan if parallel else None)


def by_name(rows):
    return {row.name: row for row in rows}


# ---------------------------------------------------------- values_close --
def test_values_close_exact_and_tolerant():
    assert values_close(3, 3)
    assert values_close(1.0, 1.0 + 1e-12)
    assert not values_close(1.0, 1.1)
    assert values_close(float("inf"), float("inf"))
    assert not values_close(float("inf"), 1.0)


def test_values_close_sequences_and_arrays():
    assert values_close([1.0, (2.0, 3.0)], [1.0 + 1e-12, (2.0, 3.0)])
    assert not values_close([1.0, 2.0], [1.0])
    assert values_close(np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-12]))
    assert not values_close(np.array([1.0]), np.array([1.0, 2.0]))


def test_values_close_non_numeric():
    assert values_close("a", "a")
    assert not values_close("a", "b")


# ---------------------------------------------------------- states_match --
def test_states_match_identical():
    state = [(0, 1.0), (1, 2.0)]
    assert states_match(state, state) == []


def test_states_match_reports_each_difference_kind():
    ref = [(0, 1.0), (1, 2.0)]
    assert any("missing" in p for p in states_match([(0, 1.0)], ref))
    assert any(
        "unexpected" in p for p in states_match([(0, 1.0), (1, 2.0), (2, 9.0)], ref)
    )
    assert any("diverge" in p for p in states_match([(0, 1.0), (1, 2.5)], ref))
    assert any(
        "duplicate" in p for p in states_match([(0, 1.0), (0, 1.0), (1, 2.0)], ref)
    )


# ---------------------------------------------------- oracle: termination --
def test_termination_passes_clean_run():
    assert oracle_termination(spec(), outcome()) == []


def test_termination_flags_error_and_missing_result():
    """The cluster's raise is judged under ``termination``; a cluster
    that was not run (its reference raised) is reported as that raise."""
    v = evaluate_oracles(spec(), outcome({CLUSTER: RuntimeError("boom")}, ITERATIVE))
    assert [x.oracle for x in v] == ["termination"]
    assert v[0].detail == "cluster: run raised RuntimeError: boom"
    v = evaluate_oracles(spec(), outcome({"reference": RuntimeError("x")}, ITERATIVE))
    assert [(x.oracle, x.detail) for x in v] == [
        ("differential", "reference: run raised RuntimeError: x")]


def test_termination_flags_budget_overrun():
    over = outcome({CLUSTER: res(iterations_run=9, terminated_by="x")})
    assert oracle_termination(spec(max_iterations=5), over)


# ------------------------------------------------ the judge: differential --
def test_differential_passes_matching_states():
    runs = {CLUSTER: res([(0, 1.0)]), "reference": res([(0, 1.0)])}
    assert judge(ITERATIVE, runs) == []


def test_differential_defers_to_termination_on_error():
    """The cluster's failure is reported once, under the termination
    oracle (its row's ``crash_oracle``), not as a differential."""
    runs = {CLUSTER: RuntimeError("x"), "reference": res()}
    (v,) = judge(ITERATIVE, runs)
    assert v.oracle == "termination"
    assert oracle_termination(spec(), outcome(runs, ITERATIVE)) == []
    v = evaluate_oracles(spec(), outcome(runs, ITERATIVE))
    assert [x.oracle for x in v] == ["termination"]


def test_differential_flags_metadata_and_state_divergence():
    runs = {
        CLUSTER: res([(0, 1.0)], iterations_run=2, terminated_by="threshold"),
        "reference": res([(0, 2.0)]),
    }
    (v,) = judge(ITERATIVE, runs)
    assert v.oracle == "differential" and v.detail.startswith("cluster: ")
    assert "terminated_by" in v.detail
    assert "iterations" in v.detail
    assert "diverge" in v.detail


# ----------------------------------------------------- oracle: checkpoint --
def ev(time, kind, **fields):
    return TraceEvent(time, kind, fields)


def test_checkpoint_passes_monotone_durable_and_valid_resume():
    events = [
        ev(0.0, "generation-start", start_iter=0, recoveries=0),
        ev(1.0, "checkpoint-durable", state_index=2),
        ev(2.0, "generation-start", start_iter=2, recoveries=1),
        ev(3.0, "checkpoint-durable", state_index=4),
    ]
    assert oracle_checkpoint_rollback(spec(), outcome(trace_events=events)) == []


def test_checkpoint_flags_resume_past_durable():
    events = [
        ev(0.0, "generation-start", start_iter=0, recoveries=0),
        ev(1.0, "checkpoint-durable", state_index=2),
        ev(2.0, "generation-start", start_iter=4, recoveries=1),
    ]
    v = oracle_checkpoint_rollback(spec(), outcome(trace_events=events))
    assert any("resumed from state 4" in x.detail for x in v)


def test_checkpoint_flags_backwards_durable_index():
    events = [
        ev(1.0, "checkpoint-durable", state_index=4),
        ev(2.0, "checkpoint-durable", state_index=2),
    ]
    v = oracle_checkpoint_rollback(spec(), outcome(trace_events=events))
    assert any("backwards" in x.detail for x in v)


# ---------------------------------------------------------- oracle: trace --
def test_trace_oracle_passes_well_formed_timeline():
    events = [
        ev(0.0, "map-iteration-start", task=0, iteration=0),
        ev(1.0, "map-iteration-end", task=0, iteration=0),
        ev(2.0, "iteration-complete", iteration=0),
    ]
    assert oracle_trace_well_formed(spec(), outcome(trace_events=events)) == []


def test_trace_oracle_flags_time_reversal():
    events = [
        ev(5.0, "iteration-complete", iteration=0),
        ev(1.0, "iteration-complete", iteration=1),
    ]
    v = oracle_trace_well_formed(spec(), outcome(trace_events=events))
    assert v and all(x.oracle == "trace" for x in v)


# -------------------------------------------------------------- evaluate --
def test_evaluate_runs_every_oracle():
    assert set(ALL_ORACLES) == {
        "termination", "differential", "kernel-differential",
        "parallel-differential", "parallel-recovery", "async-fixpoint",
        "incremental-differential", "checkpoint", "trace",
    }
    rows = table(parallel=True, use_kernels=True, async_mode=True,
                 input_delta=(1, 1, 7))
    assert {row.oracle for row in rows} < set(ALL_ORACLES)
    v = evaluate_oracles(spec(), outcome({CLUSTER: RuntimeError("boom")}, rows))
    assert [x.oracle for x in v] == ["termination"]


# ------------------------------------------------------------ the mesh row --
def test_parallel_oracle_inert_without_parallel_run():
    assert "parallel" not in by_name(table())
    runs = {CLUSTER: res(), "reference": res(), "parallel": RuntimeError("x")}
    assert judge(ITERATIVE, runs) == []


def test_parallel_oracle_reports_backend_error():
    runs = {CLUSTER: res(), "reference": res(),
            "parallel": RuntimeError("worker died")}
    (v,) = judge(ITERATIVE + [MESH], runs)
    assert v.oracle == "parallel-differential"
    assert v.detail == "parallel: run raised RuntimeError: worker died"


def test_parallel_oracle_demands_exact_equality():
    ref = res([(0, 1.0), (1, 2.0)])
    ok = {"reference": ref, "parallel": res([(0, 1.0), (1, 2.0)])}
    assert judge([MESH], ok) == []
    # Even a 1-ulp float drift is a violation: no tolerance.
    drift = {"reference": ref, "parallel": res([(0, 1.0), (1, 2.0 + 2**-50)])}
    (v,) = judge([MESH], drift)
    assert v.oracle == "parallel-differential"
    assert "record-identical" in v.detail


def test_parallel_oracle_checks_iterations_and_termination():
    runs = {"reference": res(),
            "parallel": res(iterations_run=2, terminated_by="threshold")}
    (v,) = judge([MESH], runs)  # one violation per diverging run
    assert v.oracle == "parallel-differential"
    assert "terminated_by='threshold'" in v.detail
    assert "iterations_run=2" in v.detail


# ------------------------------------------------ parallel-recovery oracle --
def _kill_spec(at_iteration=2, action="kill"):
    return spec(proc_kill=(0, at_iteration, action))


def _recovered(recoveries=1, events=None):
    return SimpleNamespace(
        state=[], iterations_run=5, terminated_by="max-iterations",
        recoveries=recoveries,
        recovery_events=events if events is not None else [
            {"resume_from": 2, "restored_checkpoint": 1}
        ],
    )


def test_recovery_oracle_inert_without_proc_kill_or_parallel_run():
    assert oracle_parallel_recovery(spec(), outcome({"parallel": _recovered(0)})) == []
    assert oracle_parallel_recovery(_kill_spec(), outcome()) == []
    died = outcome({"parallel": RuntimeError("x")})
    assert oracle_parallel_recovery(_kill_spec(), died) == []


def test_recovery_oracle_flags_fault_that_never_fired():
    v = oracle_parallel_recovery(
        _kill_spec(), outcome({"parallel": _recovered(recoveries=0)})
    )
    assert len(v) == 1 and "never triggered a recovery" in v[0].detail


def test_recovery_oracle_checks_resume_barrier():
    ok = outcome({"parallel": _recovered()})
    assert oracle_parallel_recovery(_kill_spec(), ok) == []
    # Resuming *past* the interrupted iteration means state was skipped.
    late = outcome({"parallel": _recovered(
        events=[{"resume_from": 4, "restored_checkpoint": 3}]
    )})
    v = oracle_parallel_recovery(_kill_spec(at_iteration=2), late)
    assert {x.oracle for x in v} == {"parallel-recovery"}
    assert len(v) == 2  # resume too late + checkpoint too new
    # A from-scratch restart (no checkpoint armed) is a legal recovery.
    scratch = outcome({"parallel": _recovered(
        events=[{"resume_from": 0, "restored_checkpoint": None}]
    )})
    assert oracle_parallel_recovery(_kill_spec(), scratch) == []


def test_values_identical_is_exact_and_numpy_safe():
    assert values_identical((1, 2.0), (1, 2.0))
    assert not values_identical((1, 2.0), (1, 2.0 + 2**-50))
    assert not values_identical(1, 1.0)  # type-exact
    assert not values_identical(1, True)
    assert values_identical(np.array([1.0]), np.array([1.0]))
    assert not values_identical(np.array([1.0]), np.array([1.0 + 2**-50]))
    assert not values_identical(np.array([1.0]), [1.0])
    assert records_identical([(0, np.array([1.0, 2.0]))],
                             [(0, np.array([1.0, 2.0]))])
    assert not records_identical([(0, np.array([1.0]))],
                                 [(0, np.array([2.0]))])


# ---------------------------------------------------------- the kernel row --
def test_kernel_oracle_inert_without_dimension():
    rows = table(parallel=True)
    assert "kernel" not in by_name(rows)
    assert by_name(rows)["parallel"].reference == "reference"
    runs = {CLUSTER: res(), "reference": res(), "kernel": RuntimeError("boom")}
    assert judge(ITERATIVE, runs) == []


def test_kernel_oracle_reports_kernel_error():
    """Reported once, under the kernel's name; the mesh row, whose
    reference it is, is skipped rather than reported again."""
    mesh = dataclasses.replace(MESH, reference="kernel")
    runs = {CLUSTER: res(), "reference": res(), "kernel": RuntimeError("boom"),
            "parallel": res([(0, 9.0)])}
    (v,) = judge(ITERATIVE + [KERNEL, mesh], runs)
    assert v.oracle == "kernel-differential"
    assert v.detail == "kernel: run raised RuntimeError: boom"


def test_kernel_oracle_tolerant_for_sum_exact_for_min():
    # The table decides: sum merges (pagerank) are tolerant, min (sssp) exact.
    assert not by_name(table(38, use_kernels=True))["kernel"].exact
    assert by_name(table(8, use_kernels=True))["kernel"].exact
    runs = {"reference": res([(0, 1.0)]), "kernel": res([(0, 1.0 + 1e-12)])}
    assert judge([KERNEL], runs) == []
    # The same drift under an exact row is a violation.
    (v,) = judge([dataclasses.replace(KERNEL, exact=True)], runs)
    assert v.oracle == "kernel-differential"


def test_parallel_oracle_compares_against_kernel_twin():
    """With use_kernels, the backend runs the kernel job — the bit-exact
    twin is the serial columnar run, not the record reference."""
    rows = table(parallel=True, use_kernels=True)
    mesh = by_name(rows)["parallel"]
    assert (mesh.reference, mesh.exact) == ("kernel", True)
    assert mesh.job is by_name(rows)["kernel"].job
    runs = {
        CLUSTER: res([(0, 1.0)]),
        "reference": res([(0, 1.0)]),
        "kernel": res([(0, 1.0 + 1e-12)]),
        "parallel": res([(0, 1.0 + 1e-12)]),
    }
    # Bit-equal to the kernel twin, despite the record drift.
    assert judge(rows, runs) == []
    (v,) = judge([dataclasses.replace(mesh, reference="reference")], runs)
    assert v.oracle == "parallel-differential"


# ----------------------------------------------- the accumulative rows --
ASYNC = [
    Row("sync-reference", oracle="async-fixpoint", progress=True),
    Row("serial-async", reference="sync-reference", oracle="async-fixpoint",
        progress=True),
    Row("simulated", reference="sync-reference", oracle="async-fixpoint",
        progress=True),
]


def test_async_oracle_inert_without_dimension():
    assert "async-fixpoint" not in {row.oracle for row in table()}
    runs = {CLUSTER: res(), "reference": res(),
            "serial-async": RuntimeError("boom")}
    assert judge(ITERATIVE, runs) == []


def test_async_oracle_reports_run_errors_and_missing_reference():
    runs = {"sync-reference": acc([(0, 1.0)]), "serial-async": acc([(0, 1.0)]),
            "simulated": RuntimeError("boom")}
    (v,) = judge(ASYNC, runs)
    assert v.detail == "simulated: run raised RuntimeError: boom"
    # A reference that raised is reported once; its rows are skipped.
    runs["sync-reference"] = RuntimeError("no reference")
    runs["simulated"] = acc([(0, 9.0)])
    (v,) = judge(ASYNC, runs)
    assert v.oracle == "async-fixpoint"
    assert v.detail.startswith("sync-reference: run raised")


def test_async_oracle_demands_progress_termination():
    ref = acc([(0, 1.0)])
    budget = acc([(0, 1.0)], terminated_by="maxrounds")
    (v,) = judge(ASYNC[:2], {"sync-reference": ref, "serial-async": budget})
    assert v.detail.startswith("serial-async") and "maxrounds" in v.detail
    # The reference is held to it too.
    (v,) = judge(ASYNC[:2], {"sync-reference": budget, "serial-async": ref})
    assert v.detail.startswith("sync-reference") and "maxrounds" in v.detail


def test_async_oracle_tolerant_for_sum_exact_for_min():
    assert not any(r.exact for r in table(38, async_mode=True)[2:])
    assert all(r.exact for r in table(8, async_mode=True)[2:])
    runs = {"sync-reference": acc([(0, 1.0)]),
            "serial-async": acc([(0, 1.0 + 1e-12)])}
    # Sum algebra: schedule-order float drift within tolerance passes.
    assert judge(ASYNC[:2], runs) == []
    # Min algebra: the same drift is a violation — the fixpoint is
    # unique, so every schedule must land bit-exactly.
    exact = [dataclasses.replace(r, exact=True) for r in ASYNC[:2]]
    (v,) = judge(exact, runs)
    assert "record-identical" in v.detail


def test_async_oracle_flags_real_divergence_per_run():
    runs = {"sync-reference": acc([(0, 1.0)]), "serial-async": acc([(0, 1.0)]),
            "simulated": acc([(0, 2.0)])}
    (v,) = judge(ASYNC, runs)
    assert v.detail.startswith("simulated")


# ---------------------------------------------------------- the wiring --
def test_every_row_is_wired_to_its_oracle():
    """One campaign with every dimension on.  Corrupting one value of
    one run's state must fire exactly the oracles of the rows that read
    that run — as the run under test or as its reference — and nothing
    else: each row compares what it claims to, under its own name."""
    spec_ = generate_campaign(38).but(
        use_kernels=True, async_mode=True, input_delta=(1, 1, 7)
    )
    assert spec_.workload == "pagerank" and spec_.proc_kill is None
    clean = run_campaign(spec_, parallel=True)
    assert clean.ok, clean.violations
    assert list(clean.runs) == [row.name for row in clean.rows]
    assert set(clean.runs) == {
        "cluster", "reference", "kernel", "parallel",
        "sync-reference", "serial-async", "simulated", "kernel-async",
        "parallel-async", "cold-base", "cold-rerun", "warm-serial-sync",
        "warm-serial-async", "warm-kernel-async", "warm-parallel-async",
    }
    for name, run in clean.runs.items():
        at = next(i for i, (_k, v) in enumerate(run.state) if math.isfinite(v))
        key, value = run.state[at]
        broken = copy.copy(run)
        broken.state = [*run.state[:at], (key, value + 1.0), *run.state[at + 1:]]
        corrupted = dataclasses.replace(clean, runs={**clean.runs, name: broken})
        fired = {v.oracle for v in evaluate_oracles(spec_, corrupted)}
        readers = {
            row.oracle for row in clean.rows
            if row.reference is not None and name in (row.name, row.reference)
        }
        assert fired == readers, name
    kernel_readers = {r.oracle for r in clean.rows if "kernel" in (r.name, r.reference)}
    assert kernel_readers == {"kernel-differential", "parallel-differential"}



def test_rows_reading_a_raised_run_are_not_run(monkeypatch):
    """A serial reference that raises is reported once, as a
    ``differential`` violation; every row that reads it, directly or
    through a row that was not run, is skipped — the mesh is never
    spawned — and the shrink predicate counts the raise."""
    from repro.testing import runner

    def broken_reference(spec_, plan=None):
        return [dataclasses.replace(row, job=None) if row.name == "reference"
                else row for row in campaign_rows(spec_, plan)]

    monkeypatch.setattr(runner, "campaign_rows", broken_reference)
    spec_ = generate_campaign(38).but(use_kernels=True, async_mode=False,
                                      input_delta=None, proc_kill=None)
    out = run_campaign(spec_, parallel=True)
    assert [row.name for row in out.rows] == ["reference", CLUSTER, "kernel", "parallel"]
    assert list(out.runs) == ["reference"]
    (v,) = out.violations
    assert v.oracle == "differential" and v.detail.startswith("reference: run raised")
    assert runner.campaign_fails(spec_, oracles={"differential"}, parallel=True)
