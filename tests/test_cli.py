"""CLI tests (direct function calls; one subprocess smoke test)."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def test_datasets_command(capsys):
    assert main(["datasets", "sssp"]) == 0
    out = capsys.readouterr().out
    assert "dblp" in out and "sssp-l" in out
    assert "Table 1" in out


def test_datasets_both_tables(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out


def test_list_figures(capsys):
    assert main(["list-figures"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "table1" in out


def test_figure_unknown_name(capsys):
    assert main(["figure", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown figure" in err


def test_figure_table1(capsys):
    assert main(["figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_run_small_workload(capsys):
    assert main([
        "run", "sssp", "--dataset", "dblp", "--iterations", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "2 iterations" in out


def test_run_rejects_bad_engine():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "sssp", "--engine", "spark"])


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list-figures"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "fig4" in proc.stdout


def test_run_serial_backend(capsys):
    assert main([
        "run", "sssp", "--dataset", "dblp", "--iterations", "2",
        "--backend", "serial", "--pairs", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "serial (3 pairs)" in out and "2 iterations" in out


def test_run_parallel_backend(capsys):
    assert main([
        "run", "sssp", "--dataset", "dblp", "--iterations", "2",
        "--backend", "parallel", "--pairs", "4", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "parallel (2 workers, 4 pairs)" in out and "2 iterations" in out


def test_chaos_parallel_replay(capsys):
    assert main([
        "chaos", "--campaign-seed", "97", "--no-net-faults", "--parallel",
    ]) == 0
    assert "all oracles passed" in capsys.readouterr().out
