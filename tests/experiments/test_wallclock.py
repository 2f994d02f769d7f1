"""Quick-mode smoke for the wall-clock benchmark library.

Tiny problem sizes, one repeat: exercises the whole suite path —
workload builders, serial/parallel timing, integrity checks, the sizeof
micro-benchmark, and the JSON writer — in a few seconds.
"""

import json

from repro.experiments.wallclock import (
    COUNTERS,
    build_cases,
    compare_counters,
    run_suite,
    sizeof_microbench,
    time_case,
)
from repro.imapreduce.workerproc import PHASE_COUNTERS


def test_quick_suite_writes_json(tmp_path):
    out = tmp_path / "bench.json"
    results = run_suite(out_path=str(out), workers=(1, 2), quick=True)
    loaded = json.loads(out.read_text())
    assert loaded == results
    assert loaded["meta"]["quick"] is True
    assert loaded["meta"]["workers"] == [1, 2]
    # Four record workloads plus their four kernel twins.
    assert len(loaded["workloads"]) == 8
    twins = [w for w in loaded["workloads"] if w.get("kernel_of")]
    assert {w["name"] for w in twins} == {
        "pagerank-kernel", "sssp-kernel", "kmeans-kernel", "jacobi-kernel"
    }
    for twin in twins:
        assert twin["kernel_matches_record"] is True, twin["name"]
        assert twin["speedup_vs_record"] > 0.0
        # The sender-side combine ships no more than the twin's combiner.
        assert set(twin["records_sent_vs_record"]) == {"1", "2"}
        for mine, record in twin["records_sent_vs_record"].values():
            assert mine <= record, twin["name"]
    assert set(loaded["phase_breakdown"]) == {
        w["name"] for w in loaded["workloads"]
    }
    total_batches = total_dense = 0
    for workload in loaded["workloads"]:
        assert workload["record_identical"], workload["name"]
        assert [p["workers"] for p in workload["parallel"]] == [1, 2]
        for point in workload["parallel"]:
            assert point["static_loads"] == point["workers"]
            assert point["seconds"] >= 0.0
            assert set(point["counters"]) == set(COUNTERS)
            assert set(point["phase_seconds"]) == set(PHASE_COUNTERS)
            # The mesh never ships more batches than the dense PR4
            # plane; a worker with nothing for a peer sends a manifest.
            assert point["counters"]["batches_sent"] <= point["dense_batches"]
            if point["workers"] == 1:
                assert point["counters"]["batches_sent"] == 0
            total_batches += point["counters"]["batches_sent"]
            total_dense += point["dense_batches"]
        breakdown = loaded["phase_breakdown"][workload["name"]]
        assert set(breakdown) == {"1", "2"}
    # Across the suite the skip-empty contract saves real messages
    # (sssp's frontier leaves some peers unfed even at smoke sizes).
    assert total_batches < total_dense


def test_suite_runs_without_output_file():
    case = build_cases(quick=True)[1]  # sssp: cheapest
    row, ref, job = time_case(case, workers=(2,), repeats=1)
    assert row["record_identical"]
    assert row["parallel"][0]["workers"] == 2
    assert ref.state and job.kernel is None


def test_compare_counters_flags_regressions(tmp_path):
    out = tmp_path / "bench.json"
    results = run_suite(out_path=str(out), workers=(2,), quick=True)
    # Data-plane counters are deterministic: a run is its own baseline.
    assert compare_counters(results, results) == []
    worse = json.loads(json.dumps(results))
    point = worse["workloads"][0]["parallel"][0]
    point["counters"]["batches_sent"] += 1
    point["counters"]["bytes_pickled"] = int(
        point["counters"]["bytes_pickled"] * 2
    )
    regressions = compare_counters(worse, results)
    assert len(regressions) == 2
    assert any("batches_sent" in line for line in regressions)
    assert any("bytes_pickled" in line for line in regressions)
    # A baseline missing the point passes (new workloads are additive).
    assert compare_counters(results, {"workloads": []}) == []


def test_sizeof_microbench_reports_speedup():
    micro = sizeof_microbench(calls=5_000)
    assert micro["calls"] > 0
    assert micro["uncached_seconds"] >= 0.0
    assert micro["memoized_seconds"] >= 0.0


def test_checkpoint_overhead_section():
    from repro.experiments.wallclock import checkpoint_overhead

    ck = checkpoint_overhead(quick=True, workers=2, checkpoint_every=1,
                             repeats=1)
    assert ck["workload"] == "pagerank"
    assert ck["record_identical"] is True
    # HB/ckpt frames live outside ship(): the data plane must not notice.
    assert ck["dataplane_counters_identical"] is True
    assert ck["ckpt_writes"] > 0 and ck["ckpt_bytes"] > 0
    assert ck["checkpoints"]  # committed manifests at every boundary
    assert ck["checkpoint_phase_seconds"] >= 0.0


def test_compare_counters_gates_checkpoint_overhead():
    # Synthetic results: the gate fires on full-size runs only, and only
    # past the ceiling.
    base = {"workloads": [], "meta": {"quick": False}}
    ok = dict(base, checkpoint_overhead={
        "overhead_pct": 3.0, "checkpoint_every": 5,
        "record_identical": True, "dataplane_counters_identical": True,
    })
    assert compare_counters(ok, {"workloads": []}) == []
    slow = dict(base, checkpoint_overhead={
        "overhead_pct": 9.5, "checkpoint_every": 5,
        "record_identical": True, "dataplane_counters_identical": True,
    })
    problems = compare_counters(slow, {"workloads": []})
    assert len(problems) == 1 and "checkpoint overhead" in problems[0]
    quick = dict(slow, meta={"quick": True})
    assert compare_counters(quick, {"workloads": []}) == []
    broken = dict(base, checkpoint_overhead={
        "overhead_pct": 1.0, "checkpoint_every": 5,
        "record_identical": False, "dataplane_counters_identical": False,
    })
    problems = compare_counters(broken, {"workloads": []})
    assert any("diverged" in p for p in problems)
    assert any("data-plane counters" in p for p in problems)


def test_compare_counters_gates_kernel_shuffle_volume():
    row = {"name": "pagerank-kernel", "parallel": [],
           "records_sent_vs_record": {"1": [0, 0], "2": [213, 213]}}
    assert compare_counters({"workloads": [row]}, {"workloads": []}) == []
    row["records_sent_vs_record"]["2"] = [214, 213]
    problems = compare_counters({"workloads": [row]}, {"workloads": []})
    assert len(problems) == 1 and "pagerank-kernel@2w" in problems[0]


def test_compare_counters_gates_incremental_refresh():
    # Synthetic results: at churn <= gated_churn the warm run must beat
    # the cold rerun on both counters and the fixpoints must agree; the
    # 10% point is informational except for state divergence.
    def level(churn, *, fewer_updates=True, fewer_shipped=True, match=True):
        return {
            "churn": churn, "delta_size": 3, "frontier_keys": 5,
            "warm": {"rounds": 4, "updates_processed": 10,
                     "deltas_shipped": 20, "seconds": 0.1},
            "cold": {"rounds": 40, "updates_processed": 100,
                     "deltas_shipped": 200, "seconds": 1.0},
            "update_speedup": 10.0,
            "warm_fewer_updates": fewer_updates,
            "warm_fewer_shipped": fewer_shipped,
            "states_match": match,
        }

    def results(levels):
        return {
            "workloads": [], "meta": {"quick": True},
            "incremental_refresh": {
                "gated_churn": 0.01,
                "workloads": [{"name": "sssp-refresh", "levels": levels}],
            },
        }

    ok = results([level(0.001), level(0.01), level(0.1)])
    assert compare_counters(ok, {"workloads": []}) == []
    # A 10% point doing cold-rerun work passes; a diverged one fails.
    lazy = results([level(0.1, fewer_updates=False, fewer_shipped=False)])
    assert compare_counters(lazy, {"workloads": []}) == []
    regressed = results([level(0.01, fewer_updates=False)])
    problems = compare_counters(regressed, {"workloads": []})
    assert len(problems) == 1 and "strictly fewer pairs" in problems[0]
    leaky = results([level(0.001, fewer_shipped=False)])
    problems = compare_counters(leaky, {"workloads": []})
    assert len(problems) == 1 and "strictly fewer delta records" in problems[0]
    wrong = results([level(0.1, match=False)])
    problems = compare_counters(wrong, {"workloads": []})
    assert len(problems) == 1 and "diverged" in problems[0]


def test_history_tolerates_old_baselines():
    """``repro bench --history`` must render every committed baseline.

    The older BENCH_PR4/PR5 files predate the kernel counters, the
    async_convergence section and the incremental_refresh section; the
    trajectory table backfills missing keys with ``n/a`` instead of
    crashing or printing zeros.
    """
    import os

    from repro.experiments.wallclock import format_history, load_history

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    entries = load_history(root)
    committed = {e["file"] for e in entries}
    assert {"BENCH_PR4.json", "BENCH_PR5.json"} <= committed
    text = format_history(entries)
    for entry in entries:
        assert entry["file"] in text


def test_history_backfills_missing_keys_with_na():
    # A degenerate baseline stripped to the bare row shape: every
    # newer counter key must render as n/a.
    from repro.experiments.wallclock import format_history

    entries = [{
        "pr": 1, "file": "BENCH_PR1.json",
        "data": {
            "meta": {},
            "workloads": [{"name": "pagerank", "parallel": [{"workers": 2}]}],
            "async_convergence": {"workloads": [{"name": "pagerank-accum"}]},
            "incremental_refresh": {
                "workloads": [
                    {"name": "sssp-refresh", "levels": [{"churn": 0.01}]}
                ]
            },
        },
    }]
    text = format_history(entries)
    assert "n/a" in text
    for row_name in ("pagerank", "pagerank-accum", "sssp-refresh"):
        assert row_name in text
