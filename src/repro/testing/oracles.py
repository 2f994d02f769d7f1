"""Differential and invariant oracles for chaos campaigns.

Each oracle inspects one completed campaign run and returns a list of
violations (empty == pass).  The headline check is *differential*: the
distributed engine's final state must match the serial reference
executor's (:func:`repro.imapreduce.run_local`) within a small floating
tolerance — the same result-equivalence methodology Stratosphere and
i2MapReduce use to validate their iterative runtimes — regardless of
which faults, migrations or asynchronous run-ahead the campaign threw at
the engine.  The invariant oracles then cross-check the *path* the
engine took: it terminated cleanly, recoveries rolled back no further
forward than the last durable checkpoint, and the trace is structurally
well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..metrics.trace import check_well_formed

__all__ = [
    "OracleViolation",
    "values_close",
    "values_identical",
    "records_identical",
    "states_match",
    "fixpoints_agree",
    "oracle_termination",
    "oracle_differential",
    "oracle_kernel_differential",
    "oracle_parallel_differential",
    "oracle_parallel_recovery",
    "oracle_async_fixpoint",
    "oracle_incremental_differential",
    "oracle_checkpoint_rollback",
    "oracle_trace_well_formed",
    "ALL_ORACLES",
    "evaluate_oracles",
]

#: Float tolerance for the differential comparison.  Arrival order of
#: shuffled values can differ between the engines (reduction order of
#: float sums), so bit-equality is too strict; measured discrepancies are
#: ~1e-16, so 1e-6 relative leaves six orders of headroom while still
#: catching any real divergence.
RTOL = 1e-6
ATOL = 1e-9


@dataclass(frozen=True)
class OracleViolation:
    """One failed check: which oracle, and what it saw."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def values_close(a: Any, b: Any, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Tolerant structural equality over the state-value vocabulary.

    Handles floats (including ``inf``), numpy arrays and scalars, and
    tuples/lists of the above recursively; any other type must compare
    equal exactly.
    """
    import numpy as np

    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(values_close(x, y, rtol, atol) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape:
            return False
        return bool(np.allclose(a_arr, b_arr, rtol=rtol, atol=atol, equal_nan=True))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:  # covers inf == inf and exact ints
            return True
        return bool(np.isclose(a, b, rtol=rtol, atol=atol, equal_nan=True))
    return a == b


def values_identical(a: Any, b: Any) -> bool:
    """Bit-exact structural equality (no tolerance), numpy-safe.

    ``a == b`` on records whose values hold numpy arrays raises (array
    truth value); this walks containers and compares arrays with
    ``array_equal`` instead.
    """
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b)
            and a.dtype == b.dtype
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(values_identical(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def records_identical(
    a: list[tuple[Any, Any]], b: list[tuple[Any, Any]]
) -> bool:
    """Record-for-record equality of two final states."""
    return values_identical(list(a), list(b))


def states_match(
    distributed: list[tuple[Any, Any]], reference: list[tuple[Any, Any]]
) -> list[str]:
    """Compare two final states key-by-key; returns difference reports."""
    problems: list[str] = []
    dist = dict(distributed)
    ref = dict(reference)
    if len(dist) != len(distributed):
        problems.append("distributed state has duplicate keys")
    missing = sorted(set(ref) - set(dist), key=repr)
    extra = sorted(set(dist) - set(ref), key=repr)
    if missing:
        problems.append(f"keys missing from distributed state: {missing[:5]}")
    if extra:
        problems.append(f"unexpected keys in distributed state: {extra[:5]}")
    mismatches = [
        key
        for key in ref
        if key in dist and not values_close(dist[key], ref[key])
    ]
    if mismatches:
        sample = sorted(mismatches, key=repr)[:5]
        detail = ", ".join(
            f"{k!r}: engine={dist[k]!r} reference={ref[k]!r}" for k in sample
        )
        problems.append(f"{len(mismatches)} value(s) diverge: {detail}")
    return problems


def fixpoints_agree(a: list, b: list, exact: bool) -> bool:
    """Do two runs' final states name the same fixpoint?  ``exact``
    (min algebras) demands record identity; otherwise :data:`RTOL` /
    :data:`ATOL` — the bar the fixpoint oracles below enforce."""
    return records_identical(a, b) if exact else not states_match(a, b)


# --------------------------------------------------------------- oracles --
# Every oracle has the signature (spec, outcome) -> list[OracleViolation];
# ``outcome`` is the CampaignOutcome the runner assembled.


def oracle_termination(spec, outcome) -> list[OracleViolation]:
    """Every campaign terminates cleanly, within its iteration budget."""
    v: list[OracleViolation] = []
    if outcome.error is not None:
        v.append(
            OracleViolation(
                "termination",
                f"run raised {type(outcome.error).__name__}: {outcome.error}",
            )
        )
        return v
    result = outcome.result
    if result is None:
        v.append(OracleViolation("termination", "run produced no result"))
        return v
    if result.iterations_run > spec.max_iterations:
        v.append(
            OracleViolation(
                "termination",
                f"ran {result.iterations_run} iterations, budget was "
                f"{spec.max_iterations}",
            )
        )
    return v


def oracle_differential(spec, outcome) -> list[OracleViolation]:
    """Final state equals the serial reference execution within tolerance."""
    if outcome.error is not None or outcome.result is None:
        return []  # termination oracle owns this failure
    v: list[OracleViolation] = []
    ref = outcome.reference
    if outcome.result.terminated_by != ref.terminated_by:
        v.append(
            OracleViolation(
                "differential",
                f"terminated_by={outcome.result.terminated_by!r}, reference "
                f"says {ref.terminated_by!r}",
            )
        )
    if outcome.result.iterations_run != ref.iterations_run:
        v.append(
            OracleViolation(
                "differential",
                f"ran {outcome.result.iterations_run} iterations, reference "
                f"ran {ref.iterations_run}",
            )
        )
    for problem in states_match(outcome.final_state, ref.state):
        v.append(OracleViolation("differential", problem))
    return v


def oracle_kernel_differential(spec, outcome) -> list[OracleViolation]:
    """The columnar kernel run agrees with the record-path reference.

    ``min``-merge workloads (sssp) must match record for record — the
    kernel performs the identical float additions and ``min`` is
    order-independent.  ``sum``-merge workloads (pagerank, kmeans) are
    compared within :data:`RTOL`/:data:`ATOL`: vectorized accumulation
    reorders the float additions, bounded by ``(n−1)·eps·Σ|xᵢ|`` — orders
    of magnitude inside the tolerance at campaign scale.  Inert unless
    ``spec.use_kernels``.
    """
    if not getattr(spec, "use_kernels", False):
        return []
    v: list[OracleViolation] = []
    if outcome.kernel_error is not None:
        v.append(
            OracleViolation(
                "kernel-differential",
                f"kernel run raised {type(outcome.kernel_error).__name__}: "
                f"{outcome.kernel_error}",
            )
        )
        return v
    ker = outcome.kernel_result
    if ker is None:
        return v
    ref = outcome.reference
    if ker.terminated_by != ref.terminated_by:
        v.append(
            OracleViolation(
                "kernel-differential",
                f"terminated_by={ker.terminated_by!r}, reference says "
                f"{ref.terminated_by!r}",
            )
        )
    if ker.iterations_run != ref.iterations_run:
        v.append(
            OracleViolation(
                "kernel-differential",
                f"ran {ker.iterations_run} iterations, reference ran "
                f"{ref.iterations_run}",
            )
        )
    if spec.workload == "sssp":
        if not records_identical(ker.state, ref.state):
            detail = "; ".join(states_match(ker.state, ref.state)) or (
                "states compare close but not record-identical"
            )
            v.append(OracleViolation("kernel-differential", detail))
    else:
        for problem in states_match(ker.state, ref.state):
            v.append(OracleViolation("kernel-differential", problem))
    return v


def oracle_parallel_differential(spec, outcome) -> list[OracleViolation]:
    """The real multiprocess backend reproduces its serial twin
    *record for record* — no float tolerance.

    ``run_parallel`` shares the per-pair map/combine code path with
    ``run_local`` and orders every reduce input and distance fold
    identically, so its results are bit-equal by construction; any
    drift, however small, is a routing or ordering bug.  With
    ``spec.use_kernels`` the backend ran the kernel job, and the serial
    twin is the *columnar* run (same ordering argument, vectorized); the
    comparison stays bit-exact.  The oracle is inert unless the campaign
    ran in ``parallel`` mode.
    """
    v: list[OracleViolation] = []
    if outcome.parallel_error is not None:
        v.append(
            OracleViolation(
                "parallel-differential",
                f"run_parallel raised "
                f"{type(outcome.parallel_error).__name__}: "
                f"{outcome.parallel_error}",
            )
        )
        return v
    par = outcome.parallel_result
    if par is None:
        return v
    ref = outcome.reference
    if getattr(spec, "use_kernels", False):
        ref = outcome.kernel_result
        if ref is None:  # kernel run failed; its own oracle reports that
            return v
    if par.terminated_by != ref.terminated_by:
        v.append(
            OracleViolation(
                "parallel-differential",
                f"terminated_by={par.terminated_by!r}, reference says "
                f"{ref.terminated_by!r}",
            )
        )
    if par.iterations_run != ref.iterations_run:
        v.append(
            OracleViolation(
                "parallel-differential",
                f"ran {par.iterations_run} iterations, reference ran "
                f"{ref.iterations_run}",
            )
        )
    if not records_identical(par.state, ref.state):
        detail = "; ".join(states_match(par.state, ref.state)) or (
            "states compare close but not record-identical"
        )
        v.append(OracleViolation("parallel-differential", detail))
    return v


def oracle_parallel_recovery(spec, outcome) -> list[OracleViolation]:
    """A seeded process death must actually fire *and* be recovered, and
    every recovery must resume no later than the iteration the death
    interrupted.

    The differential oracle already proves the recovered result equals
    the unfaulted reference; this one proves the run took the recovery
    path at all (a fault that silently never fired would make the
    differential check vacuous) and that the resume point respects the
    checkpoint barrier — the real-backend analogue of
    :func:`oracle_checkpoint_rollback`.  Inert unless the campaign
    carries a ``proc_kill`` and ran in ``parallel`` mode.
    """
    if getattr(spec, "proc_kill", None) is None:
        return []
    par = outcome.parallel_result
    if par is None:  # parallel mode off, or the run died: other oracles own it
        return []
    v: list[OracleViolation] = []
    _victim, at_iteration, action = spec.proc_kill
    if par.recoveries < 1:
        v.append(
            OracleViolation(
                "parallel-recovery",
                f"seeded proc {action} at iteration {at_iteration} never "
                "triggered a recovery",
            )
        )
        return v
    for event in par.recovery_events:
        if event["resume_from"] > at_iteration:
            v.append(
                OracleViolation(
                    "parallel-recovery",
                    f"recovery resumed from iteration {event['resume_from']} "
                    f"but the fault interrupted iteration {at_iteration}",
                )
            )
        restored = event["restored_checkpoint"]
        if restored is not None and restored >= at_iteration:
            v.append(
                OracleViolation(
                    "parallel-recovery",
                    f"restored checkpoint {restored} is not older than the "
                    f"interrupted iteration {at_iteration}",
                )
            )
    return v


def oracle_async_fixpoint(spec, outcome) -> list[OracleViolation]:
    """Fixpoint equivalence for the accumulative (Maiter-mode) twin.

    Every asynchronous schedule of the same accumulative job — serial
    top-fraction, seeded-deferral simulated, delta kernel, real
    multiprocess — must land on the synchronous reference's fixpoint:
    record-identical for ``min`` algebras (the fixpoint is unique and
    the deltas drain exactly), within :data:`RTOL`/:data:`ATOL` for
    ``+`` algebras (every run stops at pending mass ≤ the job threshold,
    so each sits within a threshold-sized ball of the true fixpoint —
    the campaign thresholds leave orders of magnitude of headroom).
    Every run must terminate by accumulated progress, not the round
    budget.  Inert unless ``spec.async_mode``.
    """
    if not getattr(spec, "async_mode", False):
        return []
    v: list[OracleViolation] = []
    for name, error in outcome.async_errors.items():
        v.append(
            OracleViolation(
                "async-fixpoint",
                f"{name} run raised {type(error).__name__}: {error}",
            )
        )
    ref = outcome.async_reference
    if ref is None:
        if not outcome.async_errors:
            v.append(
                OracleViolation("async-fixpoint", "no sync reference was run")
            )
        return v
    if ref.terminated_by != "progress":
        v.append(
            OracleViolation(
                "async-fixpoint",
                f"sync reference terminated by {ref.terminated_by!r}, "
                "not accumulated progress",
            )
        )
    exact = outcome.async_algebra == "min"
    for name, result in outcome.async_results.items():
        if result.terminated_by != "progress":
            v.append(
                OracleViolation(
                    "async-fixpoint",
                    f"{name} run terminated by {result.terminated_by!r}, "
                    "not accumulated progress",
                )
            )
            continue
        if exact:
            if not records_identical(result.state, ref.state):
                detail = "; ".join(states_match(result.state, ref.state)) or (
                    "states compare close but not record-identical"
                )
                v.append(
                    OracleViolation(
                        "async-fixpoint",
                        f"{name} (min algebra, must be bit-exact): {detail}",
                    )
                )
        else:
            for problem in states_match(result.state, ref.state):
                v.append(OracleViolation("async-fixpoint", f"{name}: {problem}"))
    return v


def oracle_incremental_differential(spec, outcome) -> list[OracleViolation]:
    """Warm-refresh equivalence for the incremental (i2MapReduce-mode)
    twin.

    Every warm-started refresh of the mutated input — memoized state
    plus change-propagated perturbation deltas, on any engine — must
    land on the *cold rerun's* fixpoint: record-identical for ``min``
    algebras (surviving memo values are the same left-folded path sums
    the cold rerun computes, invalidated keys re-derive them), within
    :data:`RTOL`/:data:`ATOL` for ``+`` algebras (the residual-injected
    warm run stops at the same pending-mass threshold the cold run
    does).  Every run must terminate by accumulated progress, not the
    round budget.  Inert unless ``spec.input_delta``.
    """
    if getattr(spec, "input_delta", None) is None:
        return []
    v: list[OracleViolation] = []
    for name, error in outcome.incremental_errors.items():
        v.append(
            OracleViolation(
                "incremental-differential",
                f"{name} run raised {type(error).__name__}: {error}",
            )
        )
    ref = outcome.incremental_reference
    if ref is None:
        if not outcome.incremental_errors:
            v.append(
                OracleViolation(
                    "incremental-differential", "no cold rerun was run"
                )
            )
        return v
    if ref.terminated_by != "progress":
        v.append(
            OracleViolation(
                "incremental-differential",
                f"cold rerun terminated by {ref.terminated_by!r}, "
                "not accumulated progress",
            )
        )
    exact = outcome.incremental_algebra == "min"
    for name, result in outcome.incremental_results.items():
        if result.terminated_by != "progress":
            v.append(
                OracleViolation(
                    "incremental-differential",
                    f"{name} run terminated by {result.terminated_by!r}, "
                    "not accumulated progress",
                )
            )
            continue
        if exact:
            if not records_identical(result.state, ref.state):
                detail = "; ".join(states_match(result.state, ref.state)) or (
                    "states compare close but not record-identical"
                )
                v.append(
                    OracleViolation(
                        "incremental-differential",
                        f"{name} (min algebra, warm must be bit-exact "
                        f"against the cold rerun): {detail}",
                    )
                )
        else:
            for problem in states_match(result.state, ref.state):
                v.append(
                    OracleViolation(
                        "incremental-differential", f"{name}: {problem}"
                    )
                )
    return v


def oracle_checkpoint_rollback(spec, outcome) -> list[OracleViolation]:
    """Recovery never resumes from a newer iteration than the last
    durable checkpoint, and durable checkpoints only move forward."""
    v: list[OracleViolation] = []
    durable = 0
    last_durable = 0
    for event in outcome.trace_events:
        if event.kind == "checkpoint-durable":
            index = event.fields["state_index"]
            if index <= last_durable:
                v.append(
                    OracleViolation(
                        "checkpoint",
                        f"durable checkpoint went backwards: {index} after "
                        f"{last_durable}",
                    )
                )
            last_durable = index
            durable = max(durable, index)
        elif event.kind == "generation-start":
            start = event.fields["start_iter"]
            if start > durable:
                v.append(
                    OracleViolation(
                        "checkpoint",
                        f"generation resumed from state {start} but only "
                        f"state {durable} was durable",
                    )
                )
        elif event.kind == "pair-recovery":
            resume = event.fields.get("resume_state", 0)
            if resume > durable:
                v.append(
                    OracleViolation(
                        "checkpoint",
                        f"pair {event.fields.get('pair')} recovered from state "
                        f"{resume} but only state {durable} was durable",
                    )
                )
    return v


def oracle_trace_well_formed(spec, outcome) -> list[OracleViolation]:
    """Per-iteration trace events form a structurally valid timeline."""
    problems = check_well_formed(
        list(outcome.trace_events), spec.checkpoint_interval
    )
    return [OracleViolation("trace", p) for p in problems]


ALL_ORACLES: dict[str, Callable] = {
    "termination": oracle_termination,
    "differential": oracle_differential,
    "kernel-differential": oracle_kernel_differential,
    "parallel-differential": oracle_parallel_differential,
    "parallel-recovery": oracle_parallel_recovery,
    "async-fixpoint": oracle_async_fixpoint,
    "incremental-differential": oracle_incremental_differential,
    "checkpoint": oracle_checkpoint_rollback,
    "trace": oracle_trace_well_formed,
}


def evaluate_oracles(spec, outcome) -> list[OracleViolation]:
    """Run every oracle; concatenated violations, [] == all pass."""
    violations: list[OracleViolation] = []
    for oracle in ALL_ORACLES.values():
        violations.extend(oracle(spec, outcome))
    return violations
