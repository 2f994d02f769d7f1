"""One function per paper table/figure.

Each function runs the workloads it needs (through the cached
:func:`~repro.experiments.workloads.execute`) and returns a
:class:`FigureResult` holding the same rows/series the paper plots, plus
derived statistics (speedups, factor shares) and a ``format_text()``
rendering for the benchmark logs and EXPERIMENTS.md.

Scale notes: iteration counts default to roughly half the paper's plotted
range (the curves are linear in the iteration count, so the shape is not
affected); set ``REPRO_FULL_FIGURES=1`` to use the paper's exact counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..data import dataset_table
from .workloads import RunSpec, execute

__all__ = [
    "FigureResult",
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig16",
    "fig18",
    "fig20",
    "ALL_FIGURES",
]


def _full() -> bool:
    return os.environ.get("REPRO_FULL_FIGURES", "") == "1"


@dataclass
class FigureResult:
    """The data behind one reproduced table or figure."""

    figure_id: str
    title: str
    #: Curve name -> list of (x, y) points, or table rows.
    series: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    #: Derived headline statistics (speedups, shares, ratios).
    stats: dict = field(default_factory=dict)

    def format_text(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        lines = [f"== {self.figure_id}: {self.title} =="]
        for name, points in self.series.items():
            if points and isinstance(points[0], tuple) and len(points[0]) == 2:
                body = "  ".join(f"({fmt(x)}, {fmt(y)})" for x, y in points)
            else:
                body = ", ".join(str(p) for p in points)
            lines.append(f"  {name}: {body}")
        for row in self.rows:
            lines.append(f"  {row}")
        for key, value in self.stats.items():
            if isinstance(value, float):
                lines.append(f"  {key} = {value:.3f}")
            else:
                lines.append(f"  {key} = {value}")
        return "\n".join(lines)


# ------------------------------------------------------------- tables --
def table1() -> FigureResult:
    """Table 1: SSSP data sets statistics (stand-ins vs paper)."""
    result = FigureResult("Table 1", "SSSP data sets statistics")
    result.rows = dataset_table("sssp")
    return result


def table2() -> FigureResult:
    """Table 2: PageRank data sets statistics (stand-ins vs paper)."""
    result = FigureResult("Table 2", "PageRank data sets statistics")
    result.rows = dataset_table("pagerank")
    return result


# ----------------------------------------------- figs 4-7: local cluster --
def _time_vs_iterations(figure_id, title, algorithm, dataset, iterations) -> FigureResult:
    """The four curves of Figs. 4–7: MapReduce, MapReduce (ex. init.),
    iMapReduce (sync.), iMapReduce — with per-iteration convergence
    checking, as in the paper's Fig. 3-style jobs."""
    mr = execute(
        RunSpec(algorithm, dataset, "mapreduce", "local", iterations, measure_distance=True)
    )
    imr = execute(
        RunSpec(algorithm, dataset, "imapreduce", "local", iterations, measure_distance=True)
    )
    sync = execute(
        RunSpec(
            algorithm, dataset, "imapreduce", "local", iterations,
            sync=True, measure_distance=True,
        )
    )
    result = FigureResult(figure_id, title)
    result.series = {
        "MapReduce": mr.cumulative_times(),
        "MapReduce (ex. init.)": mr.cumulative_times_excluding_init(),
        "iMapReduce (sync.)": sync.cumulative_times(),
        "iMapReduce": imr.cumulative_times(),
    }
    total = mr.total_time
    init_saving = (mr.total_init_time - imr.setup_time) / total
    async_saving = (sync.total_time - imr.total_time) / total
    result.stats = {
        "speedup": total / imr.total_time,
        "init_share": init_saving,
        "async_share": async_saving,
        "static_shuffle_share": (total - imr.total_time) / total
        - init_saving
        - async_saving,
        "mapreduce_total_s": total,
        "imapreduce_total_s": imr.total_time,
    }
    return result


def fig4() -> FigureResult:
    iters = 16 if _full() else 8
    return _time_vs_iterations(
        "Fig 4", "SSSP running time on DBLP author cooperation graph",
        "sssp", "dblp", iters,
    )


def fig5() -> FigureResult:
    iters = 16 if _full() else 8
    return _time_vs_iterations(
        "Fig 5", "SSSP running time on Facebook user interaction graph",
        "sssp", "facebook", iters,
    )


def fig6() -> FigureResult:
    iters = 20 if _full() else 8
    return _time_vs_iterations(
        "Fig 6", "PageRank running time on Google webgraph",
        "pagerank", "google", iters,
    )


def fig7() -> FigureResult:
    iters = 20 if _full() else 8
    return _time_vs_iterations(
        "Fig 7", "PageRank running time on Berkeley-Stanford webgraph",
        "pagerank", "berk-stan", iters,
    )


# ----------------------------------------------- figs 8-9: EC2, synthetic --
def _synthetic_bars(figure_id, title, algorithm, tiers) -> FigureResult:
    result = FigureResult(figure_id, title)
    ratios = {}
    for tier in tiers:
        mr = execute(RunSpec(algorithm, tier, "mapreduce", "ec2-20", 10))
        imr = execute(RunSpec(algorithm, tier, "imapreduce", "ec2-20", 10))
        result.series.setdefault("MapReduce", []).append((tier, mr.total_time))
        result.series.setdefault("iMapReduce", []).append((tier, imr.total_time))
        ratios[tier] = imr.total_time / mr.total_time
    result.stats = {f"time_ratio[{t}]": r for t, r in ratios.items()}
    return result


def fig8() -> FigureResult:
    """Paper: iMapReduce reduces SSSP running time to 23.2%/37.0%/38.6%
    of Hadoop's on the s/m/l synthetic graphs (EC2, 20 instances)."""
    return _synthetic_bars(
        "Fig 8", "SSSP running time on synthetic graphs (EC2-20, 10 iters)",
        "sssp", ["sssp-s", "sssp-m", "sssp-l"],
    )


def fig9() -> FigureResult:
    """Paper: PageRank reduced to 44%(s) and ~60%(m, l)."""
    return _synthetic_bars(
        "Fig 9", "PageRank running time on synthetic graphs (EC2-20, 10 iters)",
        "pagerank", ["pagerank-s", "pagerank-m", "pagerank-l"],
    )


# ------------------------------------------------ fig 10: factor shares --
def fig10() -> FigureResult:
    """Per-factor running-time reduction on SSSP-m and PageRank-m."""
    result = FigureResult(
        "Fig 10", "Factors' effects on running time reduction (EC2-20)"
    )
    for algorithm, tier in (("sssp", "sssp-m"), ("pagerank", "pagerank-m")):
        mr = execute(RunSpec(algorithm, tier, "mapreduce", "ec2-20", 10))
        imr = execute(RunSpec(algorithm, tier, "imapreduce", "ec2-20", 10))
        sync = execute(RunSpec(algorithm, tier, "imapreduce", "ec2-20", 10, sync=True))
        total = mr.total_time
        init = (mr.total_init_time - imr.setup_time) / total
        async_ = (sync.total_time - imr.total_time) / total
        static = (total - imr.total_time) / total - init - async_
        result.series[tier] = [
            ("one-time initialization", init),
            ("avoid static data shuffling", static),
            ("asynchronous map execution", async_),
        ]
        result.stats[f"total_reduction[{tier}]"] = (total - imr.total_time) / total
    return result


# --------------------------------------------- fig 11: communication cost --
def fig11() -> FigureResult:
    """Total bytes exchanged over the network, MR vs iMR (l-tier)."""
    result = FigureResult("Fig 11", "Total communication cost (EC2-20, 10 iters)")
    for algorithm, tier in (("sssp", "sssp-l"), ("pagerank", "pagerank-l")):
        mr = execute(RunSpec(algorithm, tier, "mapreduce", "ec2-20", 10))
        imr = execute(RunSpec(algorithm, tier, "imapreduce", "ec2-20", 10))
        result.series[tier] = [
            ("MapReduce", mr.network_bytes),
            ("iMapReduce", imr.network_bytes),
        ]
        result.stats[f"comm_ratio[{tier}]"] = imr.network_bytes / mr.network_bytes
    return result


# ------------------------------------------------- figs 12-13: scaling --
def _scaling(figure_id, title, algorithm, tier) -> FigureResult:
    result = FigureResult(figure_id, title)
    sizes = (20, 50, 80)
    ratios = {}
    for n in sizes:
        mr = execute(RunSpec(algorithm, tier, "mapreduce", f"ec2-{n}", 10))
        imr = execute(RunSpec(algorithm, tier, "imapreduce", f"ec2-{n}", 10))
        result.series.setdefault("MapReduce", []).append((n, mr.total_time))
        result.series.setdefault("iMapReduce", []).append((n, imr.total_time))
        ratios[n] = imr.total_time / mr.total_time
    result.stats = {f"time_ratio[{n}]": r for n, r in ratios.items()}
    result.stats["ratio_drop_20_to_80"] = ratios[20] - ratios[80]
    return result


def fig12() -> FigureResult:
    """Paper: the iMR/MR ratio falls by ~8 points from 20 to 80 nodes."""
    return _scaling(
        "Fig 12", "SSSP speedup when scaling cluster size (SSSP-l)",
        "sssp", "sssp-l",
    )


def fig13() -> FigureResult:
    """Paper: the ratio falls by ~7 points for PageRank."""
    return _scaling(
        "Fig 13", "PageRank speedup when scaling cluster size (PageRank-l)",
        "pagerank", "pagerank-l",
    )


# --------------------------------------------- fig 14: parallel efficiency --
def fig14() -> FigureResult:
    """Parallel efficiency T*/(n·Tn) (Eq. 2) for both engines/algorithms."""
    result = FigureResult("Fig 14", "Parallel efficiencies (Eq. 2)")
    for algorithm, tier in (("sssp", "sssp-l"), ("pagerank", "pagerank-l")):
        for engine in ("mapreduce", "imapreduce"):
            t_star = execute(
                RunSpec(algorithm, tier, engine, "single", 10, partitions=1)
            ).total_time
            points = []
            for n in (20, 50, 80):
                tn = execute(
                    RunSpec(algorithm, tier, engine, f"ec2-{n}", 10)
                ).total_time
                points.append((n, t_star / (tn * n)))
            label = f"{algorithm}/{'iMapReduce' if engine == 'imapreduce' else 'MapReduce'}"
            result.series[label] = points
            result.stats[f"efficiency80[{label}]"] = points[-1][1]
    return result


# ------------------------------------------------------- fig 16: K-means --
def fig16() -> FigureResult:
    """K-means on the Last.fm stand-in, with and without Combiner.

    Paper: iMR ≈1.2× over Hadoop; the Combiner cuts ~23% (Hadoop) and
    ~26% (iMapReduce)."""
    iters = 10 if _full() else 6
    result = FigureResult("Fig 16", f"K-means running time ({iters} iters, local)")
    runs = {
        "MapReduce": RunSpec("kmeans", "lastfm", "mapreduce", "local", iters),
        "iMapReduce": RunSpec("kmeans", "lastfm", "imapreduce", "local", iters),
        "MapReduce + Combiner": RunSpec(
            "kmeans", "lastfm", "mapreduce", "local", iters, combiner=True
        ),
        "iMapReduce + Combiner": RunSpec(
            "kmeans", "lastfm", "imapreduce", "local", iters, combiner=True
        ),
    }
    metrics = {name: execute(spec) for name, spec in runs.items()}
    for name, m in metrics.items():
        result.series[name] = m.cumulative_times()
    result.stats = {
        "speedup": metrics["MapReduce"].total_time / metrics["iMapReduce"].total_time,
        "combiner_saving_mapreduce": 1
        - metrics["MapReduce + Combiner"].total_time / metrics["MapReduce"].total_time,
        "combiner_saving_imapreduce": 1
        - metrics["iMapReduce + Combiner"].total_time
        / metrics["iMapReduce"].total_time,
    }
    return result


# ------------------------------------------------- fig 18: matrix power --
def fig18() -> FigureResult:
    """Matrix power (two map-reduce phases per iteration).

    Paper: ~10% speedup (the unavoidable phase-2 shuffle dominates)."""
    iters = 5 if _full() else 4
    result = FigureResult("Fig 18", f"Matrix power running time ({iters} iters)")
    mr = execute(RunSpec("matrixpower", "matrix100", "mapreduce", "local", iters))
    imr = execute(RunSpec("matrixpower", "matrix100", "imapreduce", "local", iters))
    result.series = {
        "MapReduce": mr.cumulative_times(),
        "iMapReduce": imr.cumulative_times(),
    }
    result.stats = {"speedup": mr.total_time / imr.total_time}
    return result


# ----------------------------------- fig 20: K-means convergence detection --
def fig20() -> FigureResult:
    """K-means with §5.3 convergence detection: the baseline pays an extra
    synchronous check job per iteration; iMapReduce runs the auxiliary
    phase in parallel.  Paper: ~25% running time saved."""
    result = FigureResult(
        "Fig 20", "K-means with convergence detection (auxiliary phase)"
    )
    mr = execute(
        RunSpec("kmeans", "lastfm", "mapreduce", "local", 30, convergence_detection=True)
    )
    imr = execute(
        RunSpec("kmeans", "lastfm", "imapreduce", "local", 30, convergence_detection=True)
    )
    result.series = {
        "MapReduce": mr.cumulative_times(),
        "iMapReduce": imr.cumulative_times(),
    }
    result.stats = {
        "time_saving": 1 - imr.total_time / mr.total_time,
        "mapreduce_iterations": mr.num_iterations,
        "imapreduce_iterations": imr.num_iterations,
    }
    return result


#: Registry used by the EXPERIMENTS.md generator and the CLI.
ALL_FIGURES = {
    "table1": table1,
    "table2": table2,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig16": fig16,
    "fig18": fig18,
    "fig20": fig20,
}
