"""Differential and invariant oracles for chaos campaigns.

A campaign is a table of :class:`Row` s — one per run it makes, each
naming the run it is compared with — and :func:`judge` is the one
differential oracle over all of them: the simulated cluster against the
serial reference, the kernel twin against the record path, the mesh
against its serial twin bit for bit, every asynchronous schedule against
the synchronous fixpoint, every warm refresh against the cold rerun.
That is the result-equivalence methodology Stratosphere and i2MapReduce
use to validate their iterative runtimes, applied regardless of which
faults, migrations or asynchronous run-ahead the campaign threw at the
engine.  The invariant oracles then cross-check the *path* the engine
took: it terminated cleanly, recoveries fired and rolled back no further
forward than the last durable checkpoint, and the trace is structurally
well-formed.  Every oracle returns a list of violations (empty == pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..metrics.trace import check_well_formed

__all__ = [
    "OracleViolation",
    "values_close",
    "values_identical",
    "records_identical",
    "states_match",
    "fixpoints_agree",
    "CLUSTER",
    "Row",
    "judge",
    "oracle_termination",
    "oracle_parallel_recovery",
    "oracle_checkpoint_rollback",
    "oracle_trace_well_formed",
    "ALL_ORACLES",
    "evaluate_oracles",
]

#: Float tolerance for the differential comparison of rows that are not
#: ``exact``: a kernel twin and the ``+``-algebra accumulative schedules
#: add floats in another order than their reference (reduction order of
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
    :data:`ATOL` — the bar :func:`judge` enforces."""
    return records_identical(a, b) if exact else not states_match(a, b)


# ------------------------------------------------------------- the table --
#: The simulated-cluster run's name; its state is the DFS readback.
CLUSTER = "cluster"


@dataclass(frozen=True)
class Row:
    """One run a campaign makes, and how it is judged.

    ``inputs`` is the state (iterative jobs) or the initial deltas
    (accumulative jobs); with ``seed_from`` set, the named earlier run's
    final state is the input instead (a warm refresh starts from the
    cold base's memo).  ``plan`` is ``None`` only on the simulated-
    cluster row, which runs on the simulated runtime, not ``execute``.
    The run is compared with the run named ``reference`` — record for
    record when ``exact``, within :data:`RTOL`/:data:`ATOL` otherwise —
    and every violation carries ``oracle``; a raise carries
    ``crash_oracle`` when set (the cluster's is ``termination``).  A row
    without a reference is only checked to run (and, with ``progress``,
    to stop by accumulated progress).
    """

    name: str
    job: Any = None
    inputs: Any = None
    statics: Any = None
    plan: Any = None
    reference: str | None = None
    oracle: str = ""
    exact: bool = False
    progress: bool = False
    seed_from: str | None = None
    crash_oracle: str | None = None


def _row_problems(row: Row, run, runs: dict) -> list[str]:
    if row.progress and run.terminated_by != "progress":
        return [f"terminated by {run.terminated_by!r}, not accumulated progress"]
    ref = runs.get(row.reference)
    if ref is None or isinstance(ref, BaseException):
        return []  # a reference row, or its reference raised (reported there)
    problems = []
    if not row.progress:  # accumulative schedules differ in their rounds
        for attr in ("terminated_by", "iterations_run"):
            ours, theirs = getattr(run, attr), getattr(ref, attr)
            if ours != theirs:
                problems.append(f"{attr}={ours!r}, {row.reference} says {theirs!r}")
    problems += states_match(run.state, ref.state)
    if row.exact and not problems and not records_identical(run.state, ref.state):
        problems.append("states compare close but not record-identical")
    return problems


def judge(rows, runs: dict) -> list[OracleViolation]:
    """The differential oracles: one rule set over every row of the table.

    A run that raised is reported once, under its own name, and a row
    whose reference raised is skipped.  Accumulative rows (``progress``)
    must stop by accumulated progress; iterative rows must match their
    reference's ``terminated_by`` and ``iterations_run``.  Then the
    states: ``exact`` rows record for record (the simulated cluster and
    the mesh, whose per-pair code and merge order are the serial
    executor's; ``min`` algebras, whose fixpoint is unique and drains
    exactly), the rest within tolerance (``+`` algebras reorder float
    additions and stop at a pending-mass threshold; a kernel twin folds
    in its own order).  One violation per failing row, prefixed with its name.
    A row absent from ``runs`` was not run: a run it reads raised, and
    that run is the one reported.
    """
    violations = []
    for row in rows:
        run = runs.get(row.name)
        if isinstance(run, BaseException):
            violations.append(OracleViolation(
                row.crash_oracle or row.oracle,
                f"{row.name}: run raised {type(run).__name__}: {run}",
            ))
        elif run is not None and (problems := _row_problems(row, run, runs)):
            violations.append(OracleViolation(
                row.oracle, f"{row.name}: " + "; ".join(problems)
            ))
    return violations


# --------------------------------------------------------------- oracles --
# The invariant oracles have the signature (spec, outcome) ->
# list[OracleViolation]; ``outcome`` is the CampaignOutcome the runner
# assembled.


def oracle_termination(spec, outcome) -> list[OracleViolation]:
    """The simulated-cluster run stays within its iteration budget.  (A
    raise is the judge's to report, under this oracle's name: the
    cluster row's ``crash_oracle``.)"""
    run = outcome.runs.get(CLUSTER)
    if run is None or isinstance(run, BaseException):
        return []  # not run (the reference raised), or raised: judged
    if run.iterations_run > spec.max_iterations:
        return [OracleViolation(
            "termination",
            f"{CLUSTER}: ran {run.iterations_run} iterations, budget was "
            f"{spec.max_iterations}",
        )]
    return []


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
    par = outcome.runs.get("parallel")
    if par is None or isinstance(par, BaseException):
        return []  # parallel mode off, or the run died: the judge reports it
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


#: Every oracle name a violation can carry: the invariant oracles and
#: the differential ones table rows are judged under.
ALL_ORACLES = (
    "termination", "differential", "kernel-differential",
    "parallel-differential", "parallel-recovery", "async-fixpoint",
    "incremental-differential", "checkpoint", "trace",
)


def evaluate_oracles(spec, outcome) -> list[OracleViolation]:
    """Run every oracle; concatenated violations, [] == all pass."""
    return [
        *oracle_termination(spec, outcome),
        *judge(outcome.rows, outcome.runs),
        *oracle_parallel_recovery(spec, outcome),
        *oracle_checkpoint_rollback(spec, outcome),
        *oracle_trace_well_formed(spec, outcome),
    ]
