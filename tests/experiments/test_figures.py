"""Fast tests for the figure harness (cheap figures + formatting)."""

import pytest

from repro.experiments.figures import ALL_FIGURES, FigureResult, table1, table2


def test_registry_covers_every_paper_artifact():
    assert set(ALL_FIGURES) == {
        "table1", "table2",
        "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig16", "fig18", "fig20",
    }


def test_table1_rows():
    result = table1()
    assert result.figure_id == "Table 1"
    assert len(result.rows) == 5
    assert {r["graph"] for r in result.rows} == {
        "dblp", "facebook", "sssp-s", "sssp-m", "sssp-l"
    }


def test_table2_rows():
    result = table2()
    assert len(result.rows) == 5


def test_format_text_series_and_stats():
    result = FigureResult("Fig X", "demo")
    result.series = {"curve": [(1, 2.0), (2, 4.0)]}
    result.stats = {"speedup": 2.0, "note": "hello"}
    text = result.format_text()
    assert "Fig X: demo" in text
    assert "(1, 2)" in text
    assert "speedup = 2.000" in text
    assert "note = hello" in text


def test_format_text_with_string_x_values():
    result = FigureResult("Fig Z", "bars")
    result.series = {"MapReduce": [("sssp-s", 97.123), ("sssp-m", 260.7)]}
    text = result.format_text()
    assert "(sssp-s, 97.12)" in text


def test_format_text_rows():
    result = FigureResult("Table X", "demo")
    result.rows = [{"graph": "g", "nodes": 3}]
    assert "'graph': 'g'" in result.format_text()


def test_format_text_non_pair_series():
    result = FigureResult("Fig Y", "demo")
    result.series = {"bars": [("a", 1.0, "extra")]}
    assert "bars" in result.format_text()


def test_paper_claims_cover_all_figures():
    from repro.experiments.report import PAPER_CLAIMS

    assert set(PAPER_CLAIMS) == set(ALL_FIGURES)


def test_real_backend_section_survives_a_rerender(tmp_path, monkeypatch):
    """The hand-recorded real-backend section has one copy, the file
    itself: a re-render (figures stubbed out) carries it over byte for
    byte, from the first ``## Real backend`` heading to the end."""
    import pathlib

    from repro.experiments import report

    monkeypatch.setattr(report, "ALL_FIGURES", {})
    original = (pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
    section = report.real_backend_section(original)
    assert section.startswith("\n## Real backend: the cached shuffle plan")
    assert original.endswith(section)
    target = tmp_path / "EXPERIMENTS.md"
    target.write_text(original)
    report.main(str(target))
    rewritten = target.read_text()
    assert rewritten == report.HEADER + "\n" + section
    report.main(str(target))
    assert target.read_text() == rewritten
