"""Chaos smoke battery (tier-1): fixed-seed campaigns through the full
harness, plus the harness self-test — a deliberately broken runtime must
be caught, shrunk and rendered replayable.

The battery seed is frozen so CI failures are replayable verbatim:

    repro chaos --seed 20240806 --campaigns 20
"""

import pytest

from repro.imapreduce import ChaosKnobs
from repro.testing import (
    CampaignSpec,
    generate_campaign,
    run_campaign,
    run_chaos,
)

BATTERY_SEED = 20240806
BATTERY_SIZE = 20

#: Campaign seeds (from the ``--seed 42`` battery) known to catch each
#: deliberately injected bug; pinned so the self-test is a single run.
SKIP_CKPT_SEED = 157973306085300  # recovery resumes from a missing checkpoint
STALE_CKPT_SEED = 101794425918146  # recovery resumes one iteration stale
IGNORE_HB_SEED = 153510258008401  # unrecovered crash, detector gagged
SKIP_RETRANSMIT_SEED = 68931111375448  # lossy window, no retransmission


def test_smoke_battery_all_oracles_pass():
    report = run_chaos(BATTERY_SEED, BATTERY_SIZE, shrink_failures=False)
    assert report.campaigns == BATTERY_SIZE
    details = "\n".join(
        f"seed {f.campaign_seed}: " + "; ".join(map(str, f.violations))
        for f in report.failures
    )
    assert report.ok, f"chaos campaigns failed:\n{details}"


def test_smoke_battery_covers_the_matrix():
    specs = [
        generate_campaign(seed)
        for seed in _battery_seeds(BATTERY_SEED, BATTERY_SIZE)
    ]
    assert {s.workload for s in specs} == {"sssp", "pagerank", "kmeans"}
    assert {s.sync for s in specs} == {True, False}
    assert {s.combiner for s in specs} == {True, False}
    assert any(s.faults for s in specs)
    assert any(s.speeds is not None for s in specs)
    assert any(f.loss_rate > 0 for s in specs for f in s.net_faults)
    assert any(f.partition for s in specs for f in s.net_faults)


def _battery_seeds(master_seed, count):
    import random

    rng = random.Random(master_seed)
    return [rng.randrange(1, 2**48) for _ in range(count)]


def test_campaign_generation_is_pure():
    assert generate_campaign(7) == generate_campaign(7)
    assert generate_campaign(7) != generate_campaign(8)


def test_spec_json_roundtrip():
    spec = generate_campaign(SKIP_CKPT_SEED)
    assert CampaignSpec.from_json(spec.to_json()) == spec


# ------------------------------------------------------------ self-test --
# A chaos harness that cannot catch a broken runtime is decoration.  Each
# knob breaks one §3.4.1 guarantee; the pinned campaign must fail with
# the bug injected and pass without it.


def test_skipped_checkpoint_write_is_caught():
    spec = generate_campaign(SKIP_CKPT_SEED)
    assert spec.faults, "self-test needs a campaign with a failure"
    clean = run_campaign(spec)
    assert clean.ok, f"clean run must pass: {clean.violations}"
    broken = run_campaign(spec, ChaosKnobs(skip_checkpoint_write=True))
    assert not broken.ok
    assert "termination" in {v.oracle for v in broken.violations}


def test_stale_checkpoint_content_is_caught_by_differential_oracle():
    spec = generate_campaign(STALE_CKPT_SEED)
    clean = run_campaign(spec)
    assert clean.ok, f"clean run must pass: {clean.violations}"
    broken = run_campaign(spec, ChaosKnobs(stale_checkpoint_content=True))
    assert {v.oracle for v in broken.violations} == {"differential"}


def test_gagged_failure_detector_is_caught():
    """A detector that never confirms turns an unrecovered crash into a
    stall; the master's watchdog must surface it as a termination
    failure rather than hanging the campaign."""
    spec = generate_campaign(IGNORE_HB_SEED)
    assert any(
        e.action == "fail"
        and e.machine not in {r.machine for r in spec.faults if r.action == "recover"}
        for e in spec.faults
    ), "self-test needs an unrecovered crash"
    clean = run_campaign(spec)
    assert clean.ok, f"clean run must pass: {clean.violations}"
    broken = run_campaign(spec, ChaosKnobs(ignore_heartbeat_timeout=True))
    assert "termination" in {v.oracle for v in broken.violations}


def test_skipped_retransmission_is_caught():
    """Dropping a lost data message instead of retransmitting starves the
    receiving pair forever; the watchdog must catch the stall."""
    spec = generate_campaign(SKIP_RETRANSMIT_SEED)
    assert any(
        f.loss_rate > 0 or f.partition for f in spec.net_faults
    ), "self-test needs a lossy network window"
    clean = run_campaign(spec)
    assert clean.ok, f"clean run must pass: {clean.violations}"
    broken = run_campaign(spec, ChaosKnobs(skip_retransmit=True))
    assert "termination" in {v.oracle for v in broken.violations}


def test_injected_bug_shrinks_to_replayable_campaign():
    knobs = ChaosKnobs(stale_checkpoint_content=True)
    report = run_chaos(
        42, 50, knobs=knobs, shrink_failures=True
    )
    assert not report.ok, "deliberately broken runtime must fail campaigns"
    failure = report.failures[0]
    assert failure.shrunk is not None
    # The shrunk spec is itself a valid, still-failing reproduction...
    failure.shrunk.validate()
    assert not run_campaign(failure.shrunk, knobs).ok
    # ...and the replay lines name both the seed and the exact spec.
    lines = failure.replay_lines("stale-ckpt")
    assert any(f"--campaign-seed {failure.campaign_seed}" in l for l in lines)
    assert all("--inject-bug stale-ckpt" in l for l in lines)


# ------------------------------------------------- async (Maiter) twin --
#: Pinned battery seeds whose campaigns carry ``async_mode`` (drawn from
#: ``--seed 20240806``); replayable via ``repro chaos --campaign-seed N``.
ASYNC_SSSP_SEED = 195064592273757
ASYNC_PAGERANK_SEED = 81277046555875


def test_async_dimension_restricted_to_accumulative_workloads():
    spec = generate_campaign(BATTERY_SEED)
    with pytest.raises(ValueError, match="accumulative"):
        spec.but(workload="kmeans", async_mode=True).validate()
    for workload in ("sssp", "pagerank"):
        spec.but(workload=workload, async_mode=True).validate()


def test_async_dimension_is_append_only_for_pinned_seeds():
    """The new rng draw happens *after* every pre-existing dimension, so
    a pinned seed's non-async fields replay byte-identically — the
    discipline that keeps old shrunk reproductions valid."""
    spec = generate_campaign(ASYNC_SSSP_SEED)
    assert spec.async_mode and spec.workload == "sssp"
    assert "accum-async" in spec.describe()
    again = generate_campaign(ASYNC_SSSP_SEED)
    assert again == spec


def test_async_campaign_passes_fixpoint_oracle():
    spec = generate_campaign(ASYNC_PAGERANK_SEED)
    assert spec.async_mode and spec.workload == "pagerank"
    outcome = run_campaign(spec)
    details = "; ".join(map(str, outcome.violations))
    assert outcome.ok, details
    for name in ("sync-reference", "serial-async", "simulated"):
        assert not isinstance(outcome.runs[name], BaseException)


# -------------------------------------------- incremental (i2MR) twin --
#: Pinned campaign seeds whose specs draw ``input_delta`` (churn
#: parameters against the static graph); replayable via
#: ``repro chaos --campaign-seed N``.
DELTA_SSSP_SEED = 8       # sssp, async, delta +0/-2
DELTA_PAGERANK_SEED = 9   # pagerank, sync engine, delta +2/-1


def test_input_delta_restricted_to_graph_workloads():
    spec = generate_campaign(BATTERY_SEED)
    with pytest.raises(ValueError, match="graph workload"):
        spec.but(workload="kmeans", input_delta=(1, 1, 7)).validate()
    for workload in ("sssp", "pagerank"):
        spec.but(workload=workload, input_delta=(1, 1, 7)).validate()


def test_input_delta_dimension_is_append_only_for_pinned_seeds():
    """The churn draw happens *after* every pre-existing dimension
    (async_mode included), so pinned seeds replay byte-identically."""
    spec = generate_campaign(DELTA_SSSP_SEED)
    assert spec.input_delta is not None and spec.workload == "sssp"
    assert "delta:" in spec.describe()
    again = generate_campaign(DELTA_SSSP_SEED)
    assert again == spec


def test_input_delta_campaign_passes_incremental_oracle():
    spec = generate_campaign(DELTA_PAGERANK_SEED)
    assert spec.input_delta is not None and spec.workload == "pagerank"
    outcome = run_campaign(spec)
    details = "; ".join(map(str, outcome.violations))
    assert outcome.ok, details
    for name in ("cold-rerun", "warm-serial-sync", "warm-serial-async"):
        assert not isinstance(outcome.runs[name], BaseException)
