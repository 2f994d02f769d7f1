"""Chaos-campaign harness: seeded random fault injection with
differential oracles across execution modes.

The subsystem turns the runtime's hardest-to-test claims — checkpoint/
rollback fault tolerance (§3.4.1), task-pair migration (§3.4.2) and
asynchronous map execution (§3.3) — into a property that scales with the
runtime instead of one hand-written test per bug:

    for any seeded random campaign (workload × topology × fault schedule
    × mode matrix), the distributed engine's result must match the serial
    reference execution, and the path it took must satisfy the runtime's
    own invariants.

A campaign is a table of rows, one per run — the serial reference, the
simulated cluster, and every twin the spec's dimensions ask for (kernel,
mesh, Maiter async schedules, i2MapReduce warm refreshes) — each naming
the run it is compared with; one judge applies one rule set to every
row, so a new execution mode joins the harness as rows, not as a new
oracle.

Entry points: :func:`generate_campaign` (seed → spec),
:func:`campaign_rows` (spec → table), :func:`run_campaign` (spec →
judged outcome), :func:`run_chaos` (battery + shrinking), and the
``repro chaos`` CLI.
"""

from .campaign import WORKLOADS, CampaignSpec, generate_campaign
from .oracles import (
    ALL_ORACLES,
    OracleViolation,
    Row,
    evaluate_oracles,
    judge,
    records_identical,
    states_match,
    values_close,
    values_identical,
)
from .runner import (
    CampaignFailure,
    CampaignOutcome,
    ChaosReport,
    campaign_fails,
    campaign_rows,
    run_campaign,
    run_chaos,
)
from .shrink import shrink, shrink_candidates

__all__ = [
    "WORKLOADS",
    "CampaignSpec",
    "generate_campaign",
    "ALL_ORACLES",
    "OracleViolation",
    "Row",
    "evaluate_oracles",
    "judge",
    "records_identical",
    "states_match",
    "values_close",
    "values_identical",
    "CampaignFailure",
    "CampaignOutcome",
    "ChaosReport",
    "campaign_fails",
    "campaign_rows",
    "run_campaign",
    "run_chaos",
    "shrink",
    "shrink_candidates",
]
