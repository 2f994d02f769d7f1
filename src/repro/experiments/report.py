"""EXPERIMENTS.md generator: paper-vs-measured for every table/figure.

Run ``python -m repro.experiments.report`` to regenerate all figures
(several minutes; results are cached within the process) and rewrite
EXPERIMENTS.md.  The committed EXPERIMENTS.md was produced by exactly
this command, apart from its hand-recorded real-backend section, which
lives only in EXPERIMENTS.md and is carried over by every re-render.
"""

from __future__ import annotations

import os
import sys
import time

from .figures import ALL_FIGURES

#: The paper's headline value(s) for each experiment, quoted from the text.
PAPER_CLAIMS = {
    "table1": "DBLP 310,556/1,518,617 (16 MB) … SSSP-l 50M/369M (5.19 GB)",
    "table2": "Google 916,417/6,078,254 (49 MB) … PageRank-l 30M/224M (2.26 GB)",
    "fig4": "2–3× speedup; init ≈20%, async ≈15%, static shuffling ≈20%",
    "fig5": "2–3× speedup (same decomposition as Fig 4)",
    "fig6": "≈2× speedup; init ≈10%, static shuffling ≈30%, async ≈10%",
    "fig7": "≈2× speedup (same decomposition as Fig 6)",
    "fig8": "time reduced to 23.2% / 37.0% / 38.6% of Hadoop (s/m/l)",
    "fig9": "time reduced to 44% (s) and ≈60% (m, l)",
    "fig10": "init and async each ≈5–10%; static-shuffle avoidance dominates, growing with input size",
    "fig11": "data exchanged reduced to ≈12%",
    "fig12": "iMR/MR ratio falls ≈8 points from 20→80 instances",
    "fig13": "ratio falls ≈7 points from 20→80 instances",
    "fig14": "iMapReduce's parallel efficiency exceeds MapReduce's (SSSP slowdown ≈43% vs ≈60% at 80)",
    "fig16": "≈1.2× speedup; Combiner saves 23% (Hadoop) / 26% (iMapReduce)",
    "fig18": "≈10% speedup (phase-2 shuffle is inherent)",
    "fig20": "≈25% running time saved; terminates after 6 iterations",
}

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by ``python -m repro.experiments.report`` (same harness the
benchmarks use; all numbers are deterministic virtual-time results,
except the hand-recorded real-backend section at the end).

Scale context (see DESIGN.md §2): the real-graph stand-ins are 20× smaller
than the paper's datasets, the synthetic s/m/l tiers ~100–300× smaller, and
the stock topologies' I/O rates are divided by the matching factor, so the
*shares* of init/compute/shuffle per iteration land in the paper's bands.
Default iteration counts are roughly half the paper's plotted range
(curves are linear in the iteration count); run with
``REPRO_FULL_FIGURES=1`` for the paper's exact counts.

Reading guide: we reproduce *shapes* — who wins, by roughly what factor,
where the crossovers fall — not absolute testbed seconds.

Known deviations (and why):

* **Init share on the smallest graphs (Figs 4–5)** is larger than the
  paper's ≈20% because the stand-ins are 20× smaller while per-job
  scheduling costs are not scaled; this amplifies the same trend the
  paper itself observes ("iMapReduce performs better when the input is
  small", §4.3.1), pushing the DBLP speedup toward the paper's headline
  "up to 5×" rather than the 2–3× of Fig 4.
* **Fig 11's communication ratio** comes out at 30% for SSSP-l
  (`comm_ratio[sssp-l] = 0.302`) and 53% for PageRank-l
  (`comm_ratio[pagerank-l] = 0.527`) rather than the paper's ≈12%: both
  engines shuffle one state record per edge, and with our framed record
  encoding those small records weigh relatively more against the
  adjacency data than in the paper's measurement.  PageRank's adjacency
  is bare node ids (9 bytes per edge, SSSP's 20 with its weight), so
  the static data iMapReduce stops shuffling is a smaller share of its
  traffic.  iMapReduce still exchanges less on both, in the paper's
  direction.
* **The async share** is reproduced via the synchronous variant's
  control-plane barrier latency plus seeded service-time jitter
  (DESIGN.md §3.5); a deterministic work-conserving simulator has no
  other transient variance for asynchronous execution to absorb.
* **Table 2's synthetic mean degree**: the paper generates its PageRank
  family from a log-normal out-degree with σ=2.0, μ=−0.5 — whose mean is
  e^1.5 ≈ 4.5 — yet reports ≈7.4 edges/node.  We follow the published
  *parameters* (the generative recipe), so our tiers land near 4–5.
* **The scaling-ratio drop (Figs 12–13)** has the paper's direction
  (iMapReduce's advantage grows with cluster size) but a smaller
  magnitude (≈2–5 points vs the paper's 7–8): our deterministic network
  lacks the congestion variance that penalises Hadoop hardest on large
  real clusters.
"""


def real_backend_section(text: str) -> str:
    """The hand-recorded measurements of the *real* backends at the end
    of an EXPERIMENTS.md text: from the newline before its first
    ``## Real backend`` heading to the end ('' when it has none).  They
    are wall-clock numbers, not regenerable like the virtual-time
    figures, so a re-render carries them over from the file it
    rewrites — which is their only copy."""
    start = text.find("\n## Real backend")
    return "" if start < 0 else text[start:]


def render(results_dir: str | None = None, real_backend: str = "") -> str:
    """Assemble EXPERIMENTS.md, ending with ``real_backend`` (see
    :func:`real_backend_section`).

    With ``results_dir`` (e.g. ``benchmarks/results``), figures whose
    rendered text is already saved there (by a benchmark run) are taken
    from disk; anything missing is recomputed.
    """
    import pathlib

    cache = pathlib.Path(results_dir) if results_dir else None
    lines = [HEADER]
    for name, fig_fn in ALL_FIGURES.items():
        cached = cache / f"{name}.txt" if cache else None
        if cached is not None and cached.exists():
            text = cached.read_text().rstrip()
            note = "from the committed benchmark run"
        else:
            t0 = time.time()
            result = fig_fn()
            text = result.format_text()
            note = f"regenerated in {time.time() - t0:.1f}s wall"
        title_line = text.splitlines()[0].strip("= ")
        lines.append(f"\n## {title_line}\n")
        lines.append(f"*Paper:* {PAPER_CLAIMS[name]}\n")
        lines.append("*Measured:*\n")
        lines.append("```")
        lines.append(text)
        lines.append("```")
        lines.append(f"*({note})*\n")
    return "\n".join(lines) + "\n" + real_backend


def main(path: str = "EXPERIMENTS.md", results_dir: str | None = None) -> None:
    """Rewrite ``path``, carrying its real-backend section over — from
    ./EXPERIMENTS.md when ``path`` does not exist yet."""
    source = path if os.path.exists(path) else "EXPERIMENTS.md"
    real_backend = ""
    if os.path.exists(source):
        with open(source) as fh:
            real_backend = real_backend_section(fh.read())
    content = render(results_dir, real_backend)
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path} ({len(content.splitlines())} lines)", file=sys.stderr)


if __name__ == "__main__":
    main(*sys.argv[1:])
