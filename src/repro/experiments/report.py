"""EXPERIMENTS.md generator: paper-vs-measured for every table/figure.

Run ``python -m repro.experiments.report`` to regenerate all figures
(several minutes; results are cached within the process) and rewrite
EXPERIMENTS.md.  The committed EXPERIMENTS.md was produced by exactly
this command.
"""

from __future__ import annotations

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
* **Fig 11's communication ratio** comes out near 30% rather than 12%:
  both engines shuffle one state record per edge, and with our framed
  record encoding those small records weigh relatively more against the
  adjacency data than in the paper's measurement.  The reduction is
  still a large factor in the same direction.
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

#: Hand-recorded measurements of the *real* backends (wall clock, so not
#: regenerable like the virtual-time figures above); appended verbatim.
REAL_BACKEND = """\

## Real backend: the cached shuffle plan (PR 15)

*Paper:* §3.2 places the static data once and moves only state; §5 adds
the combiner, so a map task ships one value per key.  `ColumnarSync`
now applies both to the shuffle itself: a per-pair plan (route +
`reduceat` combine + receiver row index) is built once and reused while
a kernel's emission keys repeat, and keys leave the pair only then.

*Measured:* `benchmarks/e2e`, workload `pagerank-kernel-parallel`
(150k nodes, 0.77M edges, 8 pairs, 30 iterations, 2 workers, fork),
2-core dev container, parent `3228e3e` → change, seconds at nominal
host speed.  End to end is the driver's form (`run.py --workload …
--seconds 28 --trace 0`), ten interleaved parent/change pairs per seed,
median [q1, q3]; the change won 10/10 pairs on both seeds for the first
four rows.

```
end to end         seed 42: parent -> change              seed 1234 (held out): parent -> change
run_wall_s    2.600 [2.468, 2.644] -> 0.759 [0.720, 0.779]  (0.292x)   2.459 [2.396, 2.536] -> 0.740 [0.728, 0.746]  (0.301x)
total_wall_s  5.265 [5.074, 5.342] -> 3.361 [3.296, 3.398]  (0.638x)   5.096 [5.071, 5.250] -> 3.321 [3.268, 3.361]  (0.652x)
cpu_s         7.250 [7.065, 7.352] -> 3.745 [3.691, 3.771]  (0.517x)   6.919 [6.881, 7.045] -> 3.677 [3.629, 3.780]  (0.531x)
work_per_s    8.88e6               -> 3.04e7                (3.43x)    9.39e6               -> 3.12e7                (3.32x)
setup_s       2.578 [2.527, 2.656] -> 2.533 [2.508, 2.581]  (0.983x)   2.564 [2.531, 2.599] -> 2.511 [2.474, 2.577]  (0.979x)
peak_rss_mb   194.5                -> 193.0                 (0.992x)   196.8                -> 192.7                 (0.979x)

per layer (traced op, --seed 42 --ops 5 --trace 1)   parent      change     change/parent
worker.kernel_s         (summed over 2 workers)       4.906 s     0.775 s    0.158
parallel.per_iter_s                                   0.0906 s    0.0119 s   0.131
parallel.records_sent   (exact, repeats per seed)     11,561,850  8,540,730  0.739
parallel.bytes_pickled  (exact, repeats per seed)     185,049,000 70,641,308 0.382
worker.serialize_s                                    0.0132 s    0.0073 s   0.555
worker.deserialize_s                                  0.268 s     0.113 s    0.422
worker.send_s                                         0.413 s     0.172 s    0.417
worker.wait_s                                         0.188 s     0.062 s    0.329
parallel.fixed_s        (spawn + inputs + prepare)    0.494 s     0.532 s    1.076
columnar.serial_run_s   (kernel-serial twin)          5.157 s     0.957 s    0.186
columnar.encode_s                                     0.0344 s    0.0301 s   0.876
```

The saving sits where the profile said it would: `kernel` time was ~95 %
re-sorting and re-searching iteration-invariant keys.  The kernel-serial
twin speeds up by the same mechanism (5.16 → 0.96 s), so
`parallel.speedup_vs_serial` falls from 1.61 to 1.08: what is left of a
2-worker run is `parallel.fixed_s` (0.53 of 0.89 s), ROADMAP's
shared-memory startup item.  The other three workloads
(`pagerank-record-serial`, `sssp-accum-refresh`,
`kmeans-record-parallel-recover`) never construct `ColumnarSync`:
`compare.py` reports every end-to-end metric `unchanged` (ratios
0.95–1.05), digests and exact counters identical.  A kernel job now
ships exactly its record twin's `records_sent` (pagerank, 60 nodes, 2
workers: 213 = 213); `test_kernels.py` pins both and gates `≤`.

*Run-to-run spread.*  The driver's first measurement of this change
refused it on spread, not on a regression: ten runs' `work_per_s`
medians had a quartile distance of 3.05e6/s against a bound of 2.27e6/s
— 25 % of the *parent's* median, i.e. 7.3 % of the change's, because
the metric is `work / run_wall_s` and `run_wall_s` fell 3.4×.  Looked
for a cause in the program (scratch harness: per-step times and minor
faults inside the workers, per-component residuals against the
benchmark's own host-speed monitor, 40-op batches): steady-state steps
allocate nothing that faults, take no timing-dependent path and build
no plan after step 0; worker pinning changed nothing (per-op spread
6.4 → 7.0 %).  What is left is the host: its speed flickers within
0.25 s, and a 0.75 s timed region at the end of a 3.4 s op averages
less of that than the parent's 2.6 s region did (per-op spread 5 %
parent, 6–8 % change; 5–7 ops per 28 s run).  Four ten-run sets of the
change read 4.6 %, 4.6 %, 8.6 % and 2.8 % quartile distance — around
the bound when the host is in a slow period (slowdown 1.5–2.0), well
inside it otherwise.  The one cost in the hot path that did depend on
how two processes were scheduled against each other was the 64 KiB
pipe ping-pong between a feeder and the reading worker; the mesh pipes
are now asked for 1 MiB (DESIGN §4.5.1).  Interleaved A/B, same
commit ± that: `run_wall_s` median 0.78 → 0.735 s
(`pagerank-kernel-parallel`), 3.30 → 2.99 s
(`kmeans-record-parallel-recover`), 3.37 → 3.42 s
(`sssp-accum-refresh`, inside its spread); per-op spread 7.0 → 4.9 %
and 7.8 → 6.6 % in two 30-op batches; run-level quartile distance
8.6 → 6.6 % in one ten-pair set and 2.8 → 5.5 % in the next, i.e. at
run level the host decides, on both sides.  Digests and exact counters
identical on all three mesh workloads.

## Real backend: the priority queue kept between rounds (ISSUE 18)

*Paper:* §1/§3 — work that does not change between iterations is done
once.  Maiter (same authors) carries that into the accumulative mode:
its state table keeps a priority per key, updated when a delta is
received.  `AccumPair` now does the same: each pending delta's priority
is cached, `absorb` invalidates the slots it touches, and `mass` /
`select` re-score those alone instead of every pending key twice a
round (≈79 % of which are dead offers async mode never pops).

*Measured:* `benchmarks/e2e`, workload `sssp-accum-refresh` (30k nodes,
0.9M edges over four tables, 8 pairs, async, 2 workers, fork: one cold
run + three 1 % churn refreshes per op), 2-core dev container, parent
`78ccec3` → change; the host ran at slowdown ≈1.4 (the benchmark's own
monitor) on both sides throughout.  End to end is the driver's form
(`run.py --workload … --seconds 28 --trace 0`), ten interleaved
parent/change pairs per seed, median [q1, q3]; the change won 10/10
pairs on both seeds in every row but `setup_s` (4/10, 5/10) and, on
seed 42, `peak_rss_mb` (9/10).

```
end to end         seed 42: parent -> change              seed 1234 (held out): parent -> change
run_wall_s      3.093 [2.988, 3.151] -> 2.108 [2.029, 2.138]  (0.682x)   2.853 [2.795, 2.890] -> 1.982 [1.910, 2.018]  (0.695x)
total_wall_s    4.423 [4.300, 4.518] -> 3.461 [3.336, 3.522]  (0.783x)   4.122 [4.080, 4.225] -> 3.294 [3.237, 3.362]  (0.799x)
cpu_s           5.838 [5.816, 5.981] -> 4.345 [4.230, 4.421]  (0.744x)   5.536 [5.466, 5.566] -> 4.048 [4.015, 4.155]  (0.731x)
refresh_wall_s  0.400 [0.398, 0.408] -> 0.279 [0.275, 0.290]  (0.696x)   0.386 [0.375, 0.398] -> 0.284 [0.275, 0.290]  (0.735x)
work_per_s      2.93e5               -> 4.30e5                (1.467x)   3.18e5               -> 4.57e5                (1.438x)
setup_s         1.272 [1.212, 1.292] -> 1.286 [1.262, 1.327]  (1.011x)   1.250 [1.226, 1.260] -> 1.241 [1.213, 1.270]  (0.993x)
peak_rss_mb     163.5                -> 163.2                 (0.998x)   163.5                -> 163.2                 (0.998x)

per layer (traced op, --seed 42 --ops 5 --trace 1; median [min..max] of five interleaved runs a side)
                                                     parent                 change                 change/parent
worker.schedule_s      (summed over 2 workers)       4.587 [3.399..5.179]   1.422 [1.223..1.813]   0.310  (3.23x down)
worker.delta_s                                       1.131 [0.884..1.155]   1.085 [0.887..1.339]   0.959
worker.wait_s                                        1.339 [0.958..1.412]   0.846 [0.722..0.943]   0.632
accum.cold_serial_s                                  5.392 [3.309..6.617]   3.242 [1.869..3.945]   0.601
accum.cold_parallel_s                                3.042 [2.336..3.503]   1.822 [1.547..2.210]   0.599
incremental.warm_run_s                               0.593 [0.477..0.650]   0.362 [0.357..0.488]   0.611
parallel.fixed_s                                     0.174 [0.158..0.226]   0.193 [0.150..0.259]   1.110
accum.kernel_cold_s    (columnar twin, untouched)    0.386 [0.340..0.508]   0.391 [0.272..0.512]   1.013
priority_evals         (cold job; exact)             4,067,557 (profiler)   524,274                0.129  (7.76x fewer)
accum.rounds / updates_processed / deltas_shipped    86 / 106,653 / 699,025 — identical
parallel.records_sent / bytes_pickled (whole op)     416,165 / 5,957,958 — identical; digest identical
```

The three traced runs of each side that fell in a host slow period
(slowdown 1.5–1.8) inflate both columns of the per-layer block; the
quietest pair (slowdown 1.2–1.3) read `worker.schedule_s` 3.40 → 1.35,
`accum.cold_serial_s` 3.31 → 1.87, `accum.cold_parallel_s` 2.34 → 1.68.
In-process, same cold job, best of five interleaved runs:
serial wall 3.18 → 1.43 s, `schedule` 2.32 → 0.67 s, `delta`
0.75 → 0.67 s.  The saving is the scheduler's: `priority_evals` is
bounded by the records absorbed (799,446 here; every evaluation is
caused by at least one), where the parent spent 38 evaluations per
applied update.  What is left of `schedule` is two dict scans a round
(the fold, the `p > 0` filter), one evaluation per changed delta and
the sort; a two-pass partial selection measured 5 % of `schedule`
faster and `heapq.nsmallest` 9 % slower than the plain sort, so the
plain sort stayed.  Sync mode has no dead entries and scores once a
round either way: pagerank-accum sync (6k nodes, 8 pairs, serial) pays
the cache's upkeep, 0.963 → 1.020 s (+6 %, best of seven); async on the
same job 0.815 → 0.736 s.  Every schedule is the parent's bit for bit:
four `(state, trace)` hashes taken on the parent are pinned in
`test_accum.py`, the 300-node sync/async convergence curves came out
identical, and the CI-pinned chaos seeds print the
parent's verdict lines.  The other three workloads never construct an
`AccumPair`: four interleaved pairs each, every end-to-end ratio
0.93–1.04, digests and exact counters identical, `recoveries == 1`,
failed share 0.

## Real backend: the set-up path (ISSUE 19)

*Paper:* §3.1 / §4.2 step 1 — one-time initialisation is the first
factor the paper isolates.  Here it was the largest: 1.9 s of a 2.6 s
`pagerank-kernel-parallel` op passed before the engine was called, most
of it in `graph.generators._sample_targets` (one `rng.integers` +
`np.unique` per node).  The sampler now reads the same draw stream a
chunk at a time (DESIGN §4, "Data generation"), `static_records` slices
`tolist()` columns and `random_edge_churn` walks no edge in a statement
loop.  Every generated edge, weight and churn batch is the parent's.

*Measured:* `benchmarks/e2e`, 2-core dev container, parent `5002b67` →
change, seconds at nominal host speed (the host ran 1.3–1.6× slow on
both sides throughout).  End to end is the driver's form (`run.py
--workload … --seconds 28 --trace 0`), ten interleaved parent/change
pairs per seed, median [q1, q3] of the runs' medians, change/parent,
pairs the change won.  Claimed: `setup_s` on `pagerank-kernel-parallel`
(gate −50 %; measured −76 % on both seeds).

```
end to end     seed 42: parent -> change                                  seed 1234 (held out): parent -> change
pagerank-kernel-parallel
  setup_s      1.905 [1.869, 1.937] -> 0.451 [0.445, 0.466]  (0.237x) 10/10   1.923 [1.909, 2.006] -> 0.459 [0.437, 0.467]  (0.239x) 10/10
  total_wall_s 2.629 [2.590, 2.662] -> 1.121 [1.108, 1.142]  (0.426x) 10/10   2.709 [2.648, 2.743] -> 1.137 [1.128, 1.147]  (0.420x) 10/10
  cpu_s        2.972 [2.923, 3.001] -> 1.486 [1.478, 1.523]  (0.500x) 10/10   2.975 [2.912, 3.004] -> 1.479 [1.470, 1.494]  (0.497x) 10/10
  run_wall_s   0.667 [0.658, 0.692] -> 0.596 [0.594, 0.609]  (0.895x) 10/10   0.687 [0.669, 0.702] -> 0.605 [0.598, 0.613]  (0.882x) 10/10
  peak_rss_mb  193.0                -> 192.7                 (0.999x) 10/10   192.9                -> 192.6                 (0.999x)  7/10
pagerank-record-serial
  setup_s      0.576 [0.561, 0.596] -> 0.260 [0.247, 0.274]  (0.452x) 10/10   0.581 [0.559, 0.651] -> 0.270 [0.251, 0.288]  (0.464x) 10/10
  total_wall_s 3.322 [3.261, 3.548] -> 2.896 [2.878, 2.956]  (0.872x) 10/10   3.557 [3.439, 3.683] -> 3.205 [3.121, 3.233]  (0.901x) 10/10
  cpu_s        3.207 [3.158, 3.412] -> 2.790 [2.773, 2.848]  (0.870x) 10/10   3.373 [3.308, 3.531] -> 3.031 [2.966, 3.049]  (0.899x) 10/10
  run_wall_s   2.684 [2.641, 2.889] -> 2.603 [2.580, 2.651]  (0.970x)  8/10   2.897 [2.790, 3.013] -> 2.817 [2.770, 2.906]  (0.973x)  6/10
  peak_rss_mb   75.7                ->  75.8                 (1.000x)  4/10    75.8                ->  75.8                 (1.000x)  3/10
sssp-accum-refresh
  setup_s      1.240 [1.208, 1.253] -> 0.533 [0.523, 0.560]  (0.430x) 10/10   1.291 [1.210, 1.318] -> 0.544 [0.514, 0.562]  (0.421x) 10/10
  total_wall_s 3.306 [3.268, 3.338] -> 2.486 [2.415, 2.543]  (0.752x) 10/10   3.368 [3.263, 3.459] -> 2.483 [2.430, 2.509]  (0.737x) 10/10
  cpu_s        4.183 [4.145, 4.243] -> 3.330 [3.285, 3.406]  (0.796x) 10/10   4.219 [4.112, 4.299] -> 3.308 [3.247, 3.361]  (0.784x) 10/10
  run_wall_s   2.002 [1.992, 2.079] -> 1.890 [1.809, 1.916]  (0.944x)  9/10   2.015 [1.958, 2.064] -> 1.844 [1.808, 1.886]  (0.915x)  9/10
  peak_rss_mb  163.1                -> 137.8                 (0.845x) 10/10   163.4                -> 137.7                 (0.843x) 10/10
kmeans-record-parallel-recover   (loader untouched: predicted flat)
  setup_s      0.854 [0.837, 0.883] -> 0.884 [0.859, 0.929]  (1.036x)  4/10   0.933 [0.904, 0.948] -> 0.914 [0.850, 0.981]  (0.980x)  7/10
  total_wall_s 3.187 [3.119, 3.314] -> 3.227 [3.221, 3.327]  (1.013x)  3/10   3.403 [3.342, 3.494] -> 3.364 [3.305, 3.548]  (0.988x)  6/10
  cpu_s        4.462 [4.364, 4.601] -> 4.522 [4.489, 4.593]  (1.014x)  3/10   4.593 [4.498, 4.778] -> 4.552 [4.462, 4.719]  (0.991x)  6/10
  run_wall_s   2.310 [2.213, 2.343] -> 2.309 [2.278, 2.350]  (1.000x)  5/10   2.467 [2.358, 2.579] -> 2.400 [2.343, 2.505]  (0.973x)  5/10
  peak_rss_mb   81.3                ->  81.4                 (1.001x)  4/10    81.5                ->  81.6                 (1.001x)  3/10

per layer (traced op, --seed 42 --ops 5 --trace 1: raw seconds of one op, median [min..max] of five interleaved runs a side)
                                                  parent                  change                  change/parent
pagerank-kernel-parallel  inputs.generate_s       2.206 [1.811..2.483]    0.238 [0.170..0.353]    0.108  (9.3x down; nodes / edges 150,000 / 769,550 on both sides)
                          inputs.records_s        0.415 [0.326..0.510]    0.166 [0.133..0.207]    0.399  (2.5x down)
                          parallel.fixed_s        0.679 [0.517..0.735]    0.543 [0.456..0.729]    0.800  (prepare 0.145 -> 0.089)
                          startup.interp_import_s 0.323 [0.305..0.412]    0.280 [0.197..0.416]    0.868  (inside its spread)
sssp-accum-refresh        inputs.generate_s       0.581 [0.415..0.593]    0.072 [0.052..0.075]    0.124  (8.1x down)
                          inputs.records_s        1.323 [0.990..1.769]    0.417 [0.359..0.504]    0.315  (3.2x down)
pagerank-record-serial    inputs.generate_s       0.397 [0.346..0.517]    0.049 [0.040..0.065]    0.124  (8.1x down)
                          inputs.records_s        0.082 [0.070..0.128]    0.035 [0.030..0.049]    0.429  (2.3x down)
kmeans-record-parallel-…  inputs.generate_s       1.129 [1.053..1.411]    0.923 [0.738..1.171]    0.817  (untouched code: this block's noise floor)
digest and exact counters (edges, records_sent, bytes_pickled, rounds, updates_processed, ckpt_writes, ckpt_bytes): identical on all four workloads, both seeds, every run; failed ops 0; recoveries == 1
```

`inputs.generate_s` also holds the benchmark's relabelling (≈0.15 s at
150k nodes).  In process, quiet host, best of three:
`pagerank_graph(150_000)` 1,369 → 65 ms (27 of them the scalar rule on
the 208 nodes that drew a value twice or hold more than √n draws, the
rest 310 chunks of draw + sort), `sssp_graph(30_000)` 283 → 17 ms,
`static_records` of the 150k graph 301 → 161 ms, one churn batch on the
30k sssp table 150 → 36 ms.  `run_wall_s` fell 3–12 % on the graph
workloads with no compute moved: `sort_records` sorts the final state
natively when keys share a type (150k records: 178 → 42 ms) and kernel
`prepare` feeds `np.fromiter` from `chain.from_iterable`; sssp's peak
RSS fell 25 MB with the churn's set of 225k edge tuples.  Every figure
and table above regenerates identically (`repro report`, 27 min); the
CI-pinned chaos, async and input-delta seeds print the parent's verdict
lines.  *Not done:* lazy package `__init__`s measured 1–15 ms of a
≈270 ms interpreter start, under the issue's 0.05 s bar — `localrun`
and every `algorithms` module still reach `repro.mapreduce/__init__`
(≈65 ms with cluster, dfs, simulation) for `Context`, `Job`,
`IterativeSpec`.  Tier-1 here: 4 min 52 s → 4 min 11 s, 4 min 40 s on a second run (881 → 912 tests).

## Real backend: the record path's grouping, remembered (ISSUE 22)

*Paper:* §3.1/§3.2 — loop-invariant work is done once.  A map walking a
fixed static partition emits the same key sequence every iteration, so
`RecordSync` keeps each pair's map-output → reduce-input grouping as a
`GroupPlan` (`common/records.py`), replayed only under exact equality.

*Measured:* `benchmarks/e2e`, 2-core dev container, parent `661baa0` →
change, driver's form (`run.py --workload … --seconds 28 --trace 0`),
ten interleaved pairs per seed, median [q1, q3] of the runs' medians at
nominal host speed, pairs the change won; the host ran 1.7–2.1× slow
throughout, which the normalisation only partly removes.  Claimed:
`run_wall_s` on `pagerank-record-serial`, gate −30 %: **−30.5 % on seed
42, −27.8 % on the held-out seed — met on one, missed on the other**;
10/10 pairs on both, median gap 0.77–0.92 s against a parent quartile
distance of 0.28–0.40 s.  (A first ten-pair set, on a build whose plan
constructor still stored `(key, position)` tuples: 0.674× / 0.712×.)

```
end to end     seed 42: parent -> change                                  seed 1234 (held out): parent -> change
pagerank-record-serial
  run_wall_s   3.025 [2.804, 3.202] -> 2.102 [1.973, 2.116]  (0.695x) 10/10   2.745 [2.635, 2.911] -> 1.980 [1.951, 2.027]  (0.722x) 10/10
  total_wall_s 3.380 [3.152, 3.592] -> 2.429 [2.289, 2.493]  (0.719x) 10/10   3.084 [2.955, 3.316] -> 2.294 [2.250, 2.358]  (0.744x) 10/10
  cpu_s        2.822 [2.727, 2.986] -> 2.141 [2.002, 2.191]  (0.759x) 10/10   2.737 [2.705, 2.806] -> 2.074 [2.058, 2.102]  (0.758x) 10/10
  setup_s      0.292 [0.281, 0.313] -> 0.317 [0.288, 0.326]  (1.084x)  6/10   0.289 [0.259, 0.314] -> 0.281 [0.270, 0.296]  (0.974x)  6/10
  peak_rss_mb   75.9                ->  80.1                 (1.055x)  0/10    75.9                ->  79.8                 (1.051x)  0/10
kmeans-record-parallel-recover   (same executor, no combiner, keys change every step: predicted flat; cpu 1.071x / 0.958x, rss 1.004x / 1.001x)
  run_wall_s   2.257 [2.154, 2.323] -> 2.256 [2.206, 2.385]  (0.999x)  3/10   2.430 [2.363, 2.477] -> 2.359 [2.216, 2.426]  (0.971x)  7/10
pagerank-kernel-parallel   (`ColumnarSync`: the changed code does not run; total / cpu / rss ratios 0.99–1.02)
  run_wall_s   0.631 [0.610, 0.657] -> 0.648 [0.623, 0.665]  (1.028x)  4/10   0.637 [0.631, 0.687] -> 0.646 [0.620, 0.671]  (1.014x)  4/10
sssp-accum-refresh   (`RecordAccum`: does not run; total 0.957x / 1.061x, cpu 0.982x / 0.941x, rss 1.000x; host 1.9–2.1x slow)
  run_wall_s   2.307 [2.145, 2.563] -> 2.246 [2.165, 2.449]  (0.974x)  5/10   2.055 [1.968, 2.140] -> 2.219 [2.056, 2.351]  (1.080x)  4/10
per layer, pagerank-record-serial, raw seconds: traced op, median of five interleaved runs a side; then run_local's phase_seconds, best of seven
  localrun.per_iter_s 0.554 -> 0.320 (0.578x)   localrun.first_iter_s 0.527 -> 0.522 (step 0 runs the reference)   plans_built / plan_hits 16 / 128
  map 0.660 -> 0.506   combine 1.860 -> 1.328   reduce 0.776 -> 0.631   wall 3.723 -> 2.494   sum(phase_seconds) / wall 0.885 -> 0.988
digest and exact counters (edges, records_sent, bytes_pickled, rounds, updates, ckpt_writes, ckpt_bytes): identical on all four workloads, both seeds, every run; failed ops 0; recoveries == 1
```

`total_wall_s`, `cpu_s`, `work_per_s` (1.44× / 1.39×) move with the
claim, `setup_s` does not; peak RSS pays +4.2 MB for the plans (bound
10 %).  `localrun.map_pair_s` / `combine_s` / `records.group_by_key_s`
do **not** move: they time the reference functions from outside —
re-pointing them is a `benchmark` PR.  Reported, not chased: `map` fell
with its code untouched — full GC passes 53 → 13 (0.79 → 0.21 s under
`gc.callbacks`); GC is still ≈0.5 s of either run.

## Real backend: the process boundary, per byte not per object (ISSUE 24)

*Paper:* §3.1 persistent tasks / §3.2 static data loaded once.  A forked
worker inherits its `WorkerConfig` (no blob; under `spawn`
`multiprocessing` pickles the arguments), and a frame is ≤ 3 pipe
messages — header, pickle, one buffer region — read by one `decode_frame`.

*Measured:* `benchmarks/e2e`, 2-core dev container, parent `6ca223c` →
change, driver's form (`run.py --workload … --seconds 28 --trace 0`),
ten interleaved pairs per workload and seed, median [q1, q3] of the
runs' medians at nominal host speed, pairs the change won; host 1.1–3.1×
slow.  Claimed: `run_wall_s` on `kmeans-record-parallel-recover`, gate
−20 %: **−28.8 % on seed 42, −29.2 % on the held-out seed — met on both**,
10/10 pairs each, gap 0.68–0.75 s vs a parent quartile distance of 0.10–0.23 s.

```
end to end     seed 42: parent -> change                                  seed 1234 (held out): parent -> change
kmeans-record-parallel-recover   (work_per_s 1.405x / 1.412x)
  run_wall_s   2.351 [2.277, 2.380] -> 1.673 [1.631, 1.784]  (0.712x) 10/10   2.554 [2.343, 2.576] -> 1.809 [1.768, 1.872]  (0.708x) 10/10
  total_wall_s 3.340 [3.287, 3.377] -> 2.589 [2.544, 2.761]  (0.775x) 10/10   3.442 [3.372, 3.556] -> 2.789 [2.721, 2.840]  (0.810x) 10/10
  cpu_s        4.674 [4.621, 4.766] -> 3.760 [3.684, 3.877]  (0.804x) 10/10   4.712 [4.587, 4.780] -> 3.901 [3.833, 4.037]  (0.828x)  9/10
  setup_s      0.936 [0.907, 0.945] -> 0.895 [0.861, 0.934]  (0.955x)  8/10   0.965 [0.896, 1.031] -> 0.947 [0.913, 0.957]  (0.982x)  6/10
  peak_rss_mb   81.4                ->  61.7                 (0.758x) 10/10    81.6                ->  62.9                 (0.771x) 10/10
pagerank-kernel-parallel   (reported, not claimed; total 0.988x / 0.970x, cpu 1.004x / 0.979x, setup 1.109x 3/10 [0.479 -> 0.531, same q1: code it does not run] / 1.001x)
  run_wall_s   0.629 [0.622, 0.634] -> 0.573 [0.561, 0.579]  (0.912x) 10/10   0.648 [0.631, 0.660] -> 0.608 [0.578, 0.620]  (0.938x) 10/10
  peak_rss_mb  192.7                -> 157.4                 (0.816x) 10/10   193.3                -> 157.2                 (0.813x) 10/10
sssp-accum-refresh   (reported, not claimed; total 0.911x / 0.906x, cpu 0.907x / 0.903x 10/10 each, setup 0.957x / 0.968x, rss 138.1 -> 138.1)
  run_wall_s   2.140 [2.062, 2.189] -> 1.883 [1.833, 1.994]  (0.880x) 10/10   1.965 [1.857, 1.983] -> 1.652 [1.628, 1.886]  (0.841x)  8/10
pagerank-record-serial   (`Loopback`: no frame, no process — the changed code does not run; total 1.013x / 0.949x, cpu 1.009x / 0.923x, setup 1.020x / 0.985x, rss 1.002x / 1.001x)
  run_wall_s   1.982 [1.931, 2.028] -> 1.991 [1.948, 2.092]  (1.005x)  4/10   2.082 [1.948, 2.097] -> 1.937 [1.879, 1.954]  (0.930x)  8/10
per layer, raw seconds: traced op (--seed 42 --ops 5 --trace 1), median of three interleaved runs a side     kmeans            pagerank-kernel   sssp
  parallel.fixed_s            (spawn + inputs + prepare)                                       0.217 -> 0.016    0.587 -> 0.543    0.215 -> 0.078
  worker.deserialize_s        (summed over 2 workers)                                          0.593 -> 0.193    0.089 -> 0.077    0.145 -> 0.155
  worker.send_s               (feeder threads)                                                 0.475 -> 0.222    0.147 -> 0.148    0.227 -> 0.217
  worker.serialize_s                                                                           0.311 -> 0.286    0.011 -> 0.017    0.114 -> 0.113
  parallel.speedup_vs_serial                                                                   0.757 -> 1.010    1.009 -> 0.950    1.375 -> 1.504
  kmeans parallel.recovery_s 0.848 -> 0.537 (restores checkpoint 3, resumes from 4, rejected_manifests [])     sssp refresh_wall_s 0.438 -> 0.287
digest and exact counters (edges, records_sent, bytes_pickled, rounds, updates, ckpt_writes): identical on all four workloads, both seeds, every run; kmeans ckpt_bytes 8948 -> 8852 (4 writes x 3 part prefixes x 8 bytes); failed ops 0; recoveries == 1
```

The seed-1234 `pagerank-record-serial` row (0.930×, code untouched; gap
0.145 s, parent quartile distance 0.150 s) is this host's noise.  The
join's cost where buffers are few and large: `pagerank-kernel-parallel`'s
one-frame probe (1.2 MB, 8 arrays) `encode_frame_s` 0.0003 → 0.0013 s,
`read_frame_s` 0.006 → 0.014 s; in the run `serialize` +6 ms, `deserialize` −12 ms.

## Real backend: emissions as columns, collection at the barrier (ISSUE 26)

*Paper:* §3.1–3.2 on the serial reference path.  A `Context` keeps a
map's emissions as two lists, `keys` and `values` (Hadoop's map output
buffer keeps bytes plus index arrays, not one object per pair), so
record-sync moves columns from map to reduce and ships `(dest, src,
keys, values)`.  `run_supersteps` pauses automatic garbage collection
and runs one `gc.collect(1)` per superstep: *BSP vs MapReduce*'s
barrier is where a step's garbage is dead.

*Measured:* `benchmarks/e2e`, 2-core dev container, parent `cd3aa0b` →
change, driver's form (`run.py --workload … --seconds 28 --trace 0`),
ten interleaved pairs per workload and seed, median [q1, q3] of the
runs' medians at nominal host speed, pairs the change won; host-speed
factor 0.8–1.5.  Claimed: `run_wall_s` on `pagerank-record-serial`, gate
−25 %: **−29.3 % on seed 42, −27.5 % on the held-out seed — met on
both**, 10/10 pairs each, gap 0.55–0.62 s vs a parent quartile distance
of 0.09–0.10 s.

```
end to end     seed 42: parent -> change                                  seed 1234 (held out): parent -> change
pagerank-record-serial   (work_per_s 1.414x / 1.382x)
  run_wall_s   2.101 [2.048, 2.136] -> 1.486 [1.460, 1.564]  (0.707x) 10/10   2.006 [1.975, 2.069] -> 1.453 [1.378, 1.535]  (0.725x) 10/10
  total_wall_s 2.454 [2.393, 2.526] -> 1.838 [1.808, 1.939]  (0.749x) 10/10   2.346 [2.309, 2.424] -> 1.796 [1.714, 1.906]  (0.766x) 10/10
  cpu_s        2.387 [2.333, 2.457] -> 1.791 [1.764, 1.892]  (0.751x) 10/10   2.292 [2.258, 2.367] -> 1.755 [1.678, 1.862]  (0.765x) 10/10
  setup_s      0.317 [0.308, 0.327] -> 0.319 [0.310, 0.335]  (1.006x)  3/10   0.309 [0.303, 0.318] -> 0.314 [0.296, 0.326]  (1.016x)  4/10
  peak_rss_mb   80.8                ->  73.7                 (0.913x) 10/10    80.6                ->  73.8                 (0.916x) 10/10
kmeans-record-parallel-recover   (reported, not claimed: mostly the kmeans map hoist; work_per_s 1.575x / 1.536x)
  run_wall_s   2.223 [2.168, 2.303] -> 1.411 [1.361, 1.453]  (0.635x) 10/10   2.325 [2.281, 2.477] -> 1.514 [1.437, 1.577]  (0.651x) 10/10
  total_wall_s 3.378 [3.304, 3.450] -> 2.556 [2.500, 2.588]  (0.757x) 10/10   3.575 [3.457, 3.622] -> 2.660 [2.585, 2.763]  (0.744x) 10/10
  cpu_s        4.570 [4.525, 4.746] -> 3.422 [3.360, 3.507]  (0.749x) 10/10   4.659 [4.537, 4.792] -> 3.434 [3.377, 3.548]  (0.737x) 10/10
  setup_s      1.111 [1.083, 1.170] -> 1.108 [1.083, 1.133]  (0.997x)  5/10   1.134 [1.103, 1.163] -> 1.107 [1.082, 1.131]  (0.975x)  8/10
  peak_rss_mb   61.8                ->  61.2                 (0.989x) 10/10    63.1                ->  62.1                 (0.984x) 10/10
pagerank-kernel-parallel   (`ColumnarSync`: only the GC policy runs; predicted flat; total 0.998x / 0.996x, cpu 1.000x / 0.988x, setup 1.005x / 0.989x, work_per_s 1.014x / 1.006x)
  run_wall_s   0.616 [0.587, 0.637] -> 0.608 [0.586, 0.623]  (0.986x)  5/10   0.614 [0.601, 0.626] -> 0.610 [0.597, 0.616]  (0.994x)  6/10
  peak_rss_mb  158.5                -> 158.2                 (0.998x) 10/10   158.3                -> 158.6                 (1.002x)  0/10
sssp-accum-refresh   (`RecordAccum`: only the GC policy runs; predicted flat; total 1.009x / 0.985x, cpu 1.012x / 0.963x, setup 1.001x / 1.004x, work_per_s 0.989x / 1.025x)
  run_wall_s   1.583 [1.537, 1.679] -> 1.600 [1.553, 1.659]  (1.011x)  5/10   1.549 [1.509, 1.636] -> 1.512 [1.451, 1.598]  (0.976x)  8/10
  peak_rss_mb  139.1                -> 138.9                 (0.998x) 10/10   139.0                -> 139.3                 (1.002x)  2/10
ablation, pagerank-record-serial run_local in process, one pinned core: median of 16 runs per variant over four interleaved rounds
  parent 1.990 s   columns only 1.517 s (0.762x)   GC policy only 1.672 s (0.840x)   both 1.374 s (0.690x)
  collections per run (gen 0 / 1 / 2): parent 4,348 / 395 / 11   columns only 1,056 / 96 / 7   GC policy (either) 0 / 10 / 0
  run_local phase_seconds parent -> change: map 0.454 -> 0.234   combine 1.106 -> 0.822   reduce 0.428 -> 0.302   gc 0.019 (10 steps)   plans_built / plan_hits 16 / 128 both
digest and exact counters (edges, records_sent, rounds, updates, ckpt_writes, ckpt_bytes): identical on all four workloads, both seeds, every run; failed ops 0; recoveries == 1
bytes_pickled, named in advance (record-sync wire items are two lists, no tuple or memo entry per pair): kmeans 20,105,862 -> 20,057,521 (seed 42), 19,889,486 -> 19,841,604 (seed 1234); other workloads identical
```

The kmeans split, unfaulted `run_parallel` on the same inputs in
process (median of five, two rounds): the workers' summed `map` phase
1.93–2.01 s at the parent, 1.13–1.35 s with only the map hoist
(`KMeansImrMap` computes the sorted centroids and their `‖c‖²` once per
broadcast object), 1.04–1.21 s with the whole change; `serialize`
0.36–0.37 → 0.27–0.31 s.  Tier-1 pins moved with the wire shape:
`test_kernels.py::MESH_PINS` record twins' bytes (components 2,076 →
1,842, kmeans 19,481 → 19,396, pagerank 3,310 → 3,255, sssp 2,400 →
2,311; jacobi ships only broadcasts, 6,424 both) and
`test_parallel_recovery.py` 6,191,640 → 5,308,888 (two bytes a record:
the tuple opcode and its memo entry).

**The accumulative verdict wait** (ROADMAP item 4's gate), now its own
`verdict` slot in `phase_seconds` (`wait` is peer data only; zero on
`Loopback`).  `sssp-accum-refresh`'s cold `run_accum_parallel`, five
runs per seed, in process:

```
seed   cold wall (s)              verdict wait per worker (s)                          mean share   worst worker
42     0.93 0.98 0.98 1.34 1.59   .048/.051 .048/.053 .081/.089 .069/.067 .132/.082   5.1–8.7 %    5.2–9.1 %
1234   0.88 0.89 0.90 1.06 1.16   .035/.099 .055/.069 .060/.094 .052/.118 .067/.101   7.0–8.5 %    7.8–11.2 %
```

The earlier probe's 4–6 % is not confirmed: the mean share is under
the 10 % gate on all ten runs, but the worker that hears its verdict
last crosses it on three of the five held-out-seed runs.  Item 4 stays
open with this measurement; the three 0.1 s refreshes'
worst worker reads 9–23 %.

## Real backend: a queue of live deltas (ISSUE 27)

*Paper:* §3.3's asynchronous maps, built as Maiter (PAPERS.md): a
pair drains its highest-priority pending deltas each round.  Under a
`min` algebra (a semilattice: `x ⊕ x = x` on every sample) an offer
the state already absorbed can never change a later state, priority or
emission, so `AccumPair.absorb` drops it instead of parking it at
priority 0.  Only the keys `absorb` touched are re-scored, the mass is
`math.fsum` over the cached priorities, `select` sorts natively when
the keys share one type, and record-accum ships `(dest, src, keys,
values)` columns.  `ColumnarAccum` keeps a `min` key active only while
its pending value beats the state, so the record and kernel twins do
the same work.

*Measured:* `benchmarks/e2e`, 2-core dev container, parent `23ab413` →
change, the benchmark's form (`run.py --workload … --seconds 28 --trace 0`),
ten interleaved pairs per seed, median [q1, q3] of the runs' medians,
pairs the change won; host-speed factor 1.4–2.2 (a slow period, both
sides alike).  Claimed: `run_wall_s` on `sssp-accum-refresh`, gate
−20 %: **−27.8 % on seed 42, −26.8 % on the held-out seed — met on
both**, 10/10 pairs each, gap 0.47–0.49 s vs a parent quartile distance
of 0.11–0.15 s.  After these pairs `apply`'s `emit` was simplified (one
tuple unpack instead of two lists of bound `append`s, no slower in a
micro-benchmark); three more pairs on the final code, seed 42: 1.833 →
1.301 s (0.710x), 3/3.

```
end to end     seed 42: parent -> change                          seed 1234 (held out): parent -> change
sssp-accum-refresh   (work_per_s 1.385x / 1.365x)
  run_wall_s   1.754 [1.706, 1.855] -> 1.267 [1.232, 1.291]  (0.722x) 10/10   1.750 [1.717, 1.828] -> 1.281 [1.230, 1.385]  (0.732x) 10/10
  total_wall_s 2.459 [2.365, 2.506] -> 1.893 [1.861, 1.956]  (0.770x) 10/10   2.437 [2.381, 2.496] -> 1.957 [1.900, 2.066]  (0.803x) 10/10
  cpu_s        3.505 [3.330, 3.569] -> 2.577 [2.532, 2.601]  (0.735x) 10/10   3.453 [3.286, 3.518] -> 2.527 [2.474, 2.611]  (0.732x) 10/10
  setup_s      0.605 [0.578, 0.633] -> 0.591 [0.568, 0.616]  (0.976x)  5/10   0.605 [0.594, 0.626] -> 0.593 [0.565, 0.615]  (0.980x)  6/10
  peak_rss_mb  139.3                -> 139.2                 (0.999x) 10/10   139.3                -> 139.2                 (0.999x)  9/10
seed 42 only, five interleaved pairs each; none runs `AccumPair`, `RecordAccum` or `ColumnarAccum` (predicted flat)
pagerank-record-serial           run_wall_s 1.841 [1.578, 1.939] -> 1.656 [1.639, 1.800] (0.900x) 3/5   total 0.903x  cpu 0.889x  setup 0.981x  work_per_s 1.112x  rss 0.998x
pagerank-kernel-parallel         run_wall_s 0.617 [0.615, 0.650] -> 0.607 [0.598, 0.624] (0.984x) 4/5   total 0.954x  cpu 0.971x  setup 0.959x  work_per_s 1.016x  rss 1.001x
kmeans-record-parallel-recover   run_wall_s 1.453 [1.403, 1.552] -> 1.425 [1.405, 1.480] (0.981x) 2/5   total 0.980x  cpu 0.992x  setup 1.011x  work_per_s 1.020x  rss 1.000x
cold mesh run in process (run_accum_parallel, 8 pairs, 2 workers, async), five runs per seed, median, seconds summed over both workers
  seed 42    wall 2.450 -> 1.513   schedule 2.010 -> 0.772   delta 1.688 -> 1.554   serialize 0.153 -> 0.049   deserialize 0.121 -> 0.068   wait 0.237 -> 0.116
  seed 1234  wall 2.312 -> 1.411   schedule 1.867 -> 0.703   delta 1.574 -> 1.478   serialize 0.142 -> 0.047   deserialize 0.143 -> 0.066   wait 0.186 -> 0.078
  priority_evals 524,274 -> 241,911 (seed 42), 486,031 -> 214,616 (seed 1234); cold bytes_pickled 5,630,490 -> 4,844,738, 5,179,042 -> 4,457,538
traced op, seed 42 (host factor 2.0 / 1.9): worker.schedule_s 2.594 -> 0.856   delta_s 2.210 -> 1.859   serialize_s 0.178 -> 0.066   deserialize_s 0.208 -> 0.101   wait_s 0.684 -> 0.225   accum.cold_parallel_s 3.226 -> 1.724
digest and exact counters (edges, records_sent, rounds, updates_processed): identical on every workload, both seeds, every run; failed ops 0
bytes_pickled, named in advance (record-accum wire items are two lists, no tuple per delta): 5,957,958 -> 5,151,747 (seed 42), 5,503,546 -> 4,761,330 (seed 1234)
```

The saving is the scheduler's: `schedule` falls to ~0.38× (no dead
entry is walked, scored or sorted: on this job they were four for every
live one); `serialize` + `deserialize` fall to ~0.4× (two lists per
batch instead of one tuple per delta: 14 % fewer bytes and far fewer
objects to pickle); `delta` moves least (~0.93×), since a dropped offer
still costs its `merge` and compare.  Tier-1 pins moved
as named: `test_accum.py::PINNED` (only `pending_mass` last bits, and
components-sync `updates` 240 → 194), `test_accum_parallel.py::SYNC_VS_ASYNC`
bytes (pagerank 410,208 → 355,998 and 231,478 → 211,534; sssp 62,893 →
54,658 and 58,023 → 52,993), `test_cli_matrix.py` sync rows 111,519 →
51,170 updates (sync rounds no longer drain dead offers).

**The accumulative verdict wait, re-measured** (ROADMAP item 4's gate:
≥ 10 % of `accum.cold_parallel_s`).  The same ten cold runs,
`phase_seconds["verdict"]` per worker over the run's wall:

```
seed   cold wall (s)              verdict wait per worker (s)                          mean share   worst worker
42     1.51 1.52 1.50 1.42 1.62   .104/.061 .088/.072 .110/.057 .088/.087 .166/.148   5.3–9.7 %    5.8–10.3 %
1234   1.42 1.35 1.41 1.35 1.52   .051/.061 .132/.062 .064/.069 .041/.128 .084/.046   3.9–7.2 %    4.3–9.7 %
parent 42: 2.28–2.61 s, mean 5.3–7.5 %, worst 6.0–11.4 %;  parent 1234: 2.12–2.46 s, mean 5.1–8.2 %, worst 5.9–9.8 %
```

With compute cut by ~40 %, the verdict share did not grow: the wait
shrank with it (0.08–0.27 s per worker at the parent, 0.04–0.17 s now)
over the same 86 / 81 rounds, which points at waiting for the slower
peer's report rather than at the coordinator round trip (not split
here).  The mean share is under the 10 % gate on all
ten runs; the last-to-hear worker crosses it once (10.3 %).
"""


def render(results_dir: str | None = None) -> str:
    """Assemble EXPERIMENTS.md.

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
    return "\n".join(lines) + "\n" + REAL_BACKEND


def main(path: str = "EXPERIMENTS.md", results_dir: str | None = None) -> None:
    content = render(results_dir)
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path} ({len(content.splitlines())} lines)", file=sys.stderr)


if __name__ == "__main__":
    main(*sys.argv[1:])
