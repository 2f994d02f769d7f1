"""Unit tests for the §3.4.2 migration policy (pure decision logic)."""

from repro.imapreduce.placement import plan_migration

OWNER = ["hnode0", "hnode1", "hnode2", "hnode3"]


def test_migrates_clear_straggler():
    plan = plan_migration(OWNER, {0: 1.0, 1: 1.0, 2: 1.1, 3: 4.0}, 0.5)
    assert plan is not None
    assert plan["from"] == "hnode3"
    assert plan["pair"] == 3
    assert plan["to"] in ("hnode0", "hnode1")
    assert plan["deviation"] > 0.5


def test_no_migration_when_balanced():
    assert plan_migration(OWNER, {0: 1.0, 1: 1.05, 2: 0.98, 3: 1.02}, 0.5) is None


def test_threshold_controls_sensitivity():
    times = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.4}
    assert plan_migration(OWNER, times, 0.2) is not None
    assert plan_migration(OWNER, times, 1.0) is None


def test_average_excludes_longest_and_shortest():
    """The paper's trimmed mean: one extreme fast worker must not drag
    the average down and trigger spurious migrations."""
    # Times 0.1 / 1.0 / 1.0 / 1.3: trimmed avg = 1.0; deviation 0.3 < 0.5.
    assert plan_migration(OWNER, {0: 0.1, 1: 1.0, 2: 1.0, 3: 1.3}, 0.5) is None


def test_picks_slowest_pair_on_slowest_worker():
    owner = ["hnode0", "hnode0", "hnode1", "hnode2", "hnode3", "hnode3"]
    plan = plan_migration(
        owner, {0: 1.0, 1: 1.1, 2: 1.0, 3: 1.0, 4: 3.0, 5: 4.0}, 0.5
    )
    assert plan is not None
    assert plan["from"] == "hnode3"
    assert plan["pair"] == 5  # the slower of the straggler's two pairs


def test_needs_at_least_three_workers():
    assert plan_migration(["hnode0", "hnode1"], {0: 1.0, 1: 5.0}, 0.5) is None
