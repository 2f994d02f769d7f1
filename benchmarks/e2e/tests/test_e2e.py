"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e/tests``."""

import json
import os
import re
import sys

import numpy as np
import pytest

import compare
import hostspeed
import registry
import run as runner
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
FAKE = [sys.executable, os.path.join(HERE, "fake_op.py")]
EXPECTED = (np.zeros(3), 0.0)


# ------------------------------------------------------------------ names --
def test_names_are_plain_and_unique():
    contract = registry.benchmark_json(10)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    for name in [*names, *registry.END_TO_END_NAMES]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)
    for layer in registry.PER_LAYER:
        assert set(layer.on) <= set(registry.WORKLOAD_NAMES)


def test_benchmark_json_agrees_with_the_registry():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == registry.benchmark_json(committed["run_seconds"])
    assert 1 <= committed["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(committed["per_layer"]) <= 128


# ------------------------------------------------------------------ spans --
def test_recorded_span_tree_is_well_formed():
    rec = spans.Recorder("op-1")
    with rec.span("engine") as root:
        with rec.span("parallel.run_parallel"):
            pass
        with rec.span("memo.save", bytes=12):
            pass
    assert spans.check_well_formed(rec.spans) == []
    assert [s["parent"] for s in rec.spans] == [None, root["id"], root["id"]]
    own = spans.self_times(rec.spans)
    cover = sum(s["dur"] for s in rec.spans[1:])
    assert own[root["id"]] == pytest.approx(root["dur"] - cover)


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder("op-1", enabled=False)
    with rec.span("engine") as span:
        pass
    assert span == {} and rec.spans == []


def test_malformed_span_trees_are_reported(tmp_path):
    good = {"id": 0, "op": "a", "name": "x", "parent": None, "start": 0.0, "end": 2.0,
            "dur": 2.0}
    unclosed = {**good, "id": 1, "parent": 0, "end": None}
    orphan = {**good, "id": 2, "parent": 9}
    outside = {**good, "id": 3, "parent": 0, "start": 1.0, "end": 3.0}
    stranger = {**good, "id": 4, "op": "b"}
    problems = spans.check_well_formed([good, unclosed, orphan, outside, stranger])
    text = " ".join(problems)
    for needle in ("never closed", "unknown parent", "outside its parent", "more than one op"):
        assert needle in text
    path = tmp_path / "t.jsonl"
    rec = spans.Recorder("op")
    with rec.span("a"):
        pass
    rec.write(str(path))
    assert spans.load(str(path)) == rec.spans


# --------------------------------------------------------------- fake ops --
def _op(tmp_path, mode, **kwargs):
    workdir = tmp_path / f"{mode}-{len(list(tmp_path.iterdir()))}"
    return runner.run_op([*FAKE, mode], str(workdir), **kwargs)


def test_sound_op_is_a_sample(tmp_path):
    done = _op(tmp_path, "ok")
    assert done["failure"] is None
    sample = runner.judge("w", done, EXPECTED, None)
    assert sample["failure"] is None
    assert sample["work_per_s"] == pytest.approx(50.0)
    assert sample["total_wall_s"] > 0 and sample["cpu_s"] > 0 and sample["peak_rss_mb"] > 0


def test_seconds_are_reported_at_nominal_host_speed(tmp_path):
    done = _op(tmp_path, "ok")
    raw = runner.judge("w", done, EXPECTED, None)
    slow = runner.judge("w", done, EXPECTED, None, slowdown=2.0)
    assert slow["host_slowdown"] == 2.0
    for metric in ("total_wall_s", "setup_s", "run_wall_s", "cpu_s"):
        assert slow[metric] == pytest.approx(raw[metric] / 2.0)
    assert slow["work_per_s"] == pytest.approx(raw["work_per_s"] * 2.0)
    assert slow["peak_rss_mb"] == raw["peak_rss_mb"]


def test_monitor_samples_beside_an_op_and_leaves_no_helper():
    cpus = sorted(os.sched_getaffinity(0))[-2:]
    monitor = hostspeed.Monitor(cpus)
    pids = [helper.pid for helper in monitor.helpers.values()]
    for chosen in (cpus, cpus[-1:]):
        monitor.start(chosen)
        assert 0.1 < monitor.stop() < 50.0
    monitor.close()
    assert all(h.returncode == 0 for h in monitor.helpers.values())
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)


@pytest.mark.parametrize("mode,needle", [
    ("exit", "exit code 3: boom"),
    ("leak", "leaked processes"),
    ("tmp", "in its temp dir"),
])
def test_misbehaving_op_fails(tmp_path, mode, needle):
    done = _op(tmp_path, mode)
    assert needle in done["failure"]
    assert runner.judge("w", done, EXPECTED, None)["failure"] == done["failure"]


def test_survivor_scan_sees_live_groups():
    assert os.getpid() in runner.group_survivors(os.getpgid(0))


def test_hung_op_times_out_and_its_group_is_killed(tmp_path):
    done = _op(tmp_path, "hang", timeout=0.5)
    assert "timeout" in done["failure"]


def test_wrong_digest_and_wrong_result_fail_and_count(tmp_path):
    base = runner.judge("w", _op(tmp_path, "ok"), EXPECTED, None)
    wrong = runner.judge("w", _op(tmp_path, "digest"), EXPECTED, base)
    assert "digest differs" in wrong["failure"]
    off = runner.judge("w", _op(tmp_path, "ok"), (np.ones(3), 1e-9), None)
    assert "reference tolerance" in off["failure"]
    entry = runner.report_workload("w", [base, wrong, off], None)
    assert entry["attempted"] == 3 and entry["failed"] == 2
    assert entry["end_to_end"]["failed_share"]["value"] == pytest.approx(2 / 3)
    assert entry["end_to_end"]["total_wall_s"]["n"] == 1


# ---------------------------------------------------------------- compare --
def _stats(samples):
    return runner.summarize(list(samples))


def test_compare_verdicts_on_synthetic_samples():
    tight = _stats([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(tight, _stats([1.01, 1.02, 1.00, 1.01, 1.03]), "lower", 0.1) == "unchanged"
    assert compare.verdict(tight, _stats([1.30, 1.31, 1.29, 1.30, 1.32]), "lower", 0.1) == "regressed"
    assert compare.verdict(tight, _stats([0.70, 0.71, 0.69, 0.70, 0.72]), "lower", 0.1) == "improved"
    assert compare.verdict(tight, _stats([0.70, 0.71, 0.69, 0.70, 0.72]), "higher", 0.1) == "regressed"
    wide = _stats([0.8, 1.0, 1.3, 0.9, 1.2])
    assert compare.verdict(wide, _stats([0.9, 1.1, 1.4, 1.0, 1.3]), "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, _stats([1.5, 1.9, 1.6, 2.0, 1.7]), "lower", 0.1) == "regressed"
    assert compare.verdict(wide, _stats([0.5, 0.7, 0.6, 0.4, 0.55]), "lower", 0.1) == "improved"


def _result(total, failed_share=0.0, counters=None):
    return {"environment": {"seed": 42, "ops": 5, "git_commit": "x"},
            "workloads": {"w": {
                "end_to_end": {"total_wall_s": _stats(total),
                               "failed_share": {"value": failed_share}},
                "counters": counters or {"edges": 1}, "digest": "d"}}}


def test_compare_flags_regressions_and_failed_share():
    base = _result([1.0, 1.01, 0.99, 1.0, 1.02])
    rows, bad = compare.compare(base, _result([1.0, 1.01, 0.99, 1.0, 1.02]))
    assert not bad and {r["verdict"] for r in rows} == {"unchanged", "identical"}
    _, bad = compare.compare(base, _result([1.5, 1.51, 1.49, 1.5, 1.52]))
    assert bad
    rows, bad = compare.compare(base, _result([1.0, 1.01, 0.99, 1.0, 1.02], 0.2, {"edges": 2}))
    assert bad and "differ" in {r["verdict"] for r in rows}
