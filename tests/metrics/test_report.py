"""Tests for the metrics pretty-printers."""

from repro.metrics import IterationMetrics, RunMetrics, format_run


def make_run(label="demo", total=30.0):
    m = RunMetrics(label=label, start=0.0, end=total, setup_time=2.0,
                   network_bytes=5_000_000)
    m.iterations = [
        IterationMetrics(index=0, start=2.0, end=12.0, init_time=1.0,
                         shuffle_bytes=1_000_000, state_bytes=100_000, distance=0.5),
        IterationMetrics(index=1, start=12.0, end=total, init_time=1.0,
                         shuffle_bytes=2_000_000, state_bytes=200_000),
    ]
    return m


def test_format_run_contains_summary_and_rows():
    text = format_run(make_run())
    assert "run demo: 30.0s total" in text
    assert "2 iterations" in text
    assert "0.5" in text  # the distance
    assert text.count("\n") >= 3


def test_format_run_shows_migrations_and_recoveries():
    m = make_run()
    m.extras["migrations"] = [{"pair": 2, "from": "a", "to": "b"}]
    m.extras["recoveries"] = 1
    text = format_run(m)
    assert "migration: pair 2 a -> b" in text
    assert "recoveries: 1" in text

