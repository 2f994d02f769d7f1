"""Names, units, directions and bounds of everything the benchmark reports.

Pure data, importable without ``repro`` on the path: ``BENCHMARK.json`` is
generated from these tables and the self-tests check the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What one unit of ``work_per_s`` counts.
    work_unit: str
    #: Busy processes an op runs side by side: it is pinned to as many CPUs
    #: and the host's speed is sampled on those (``hostspeed.py``).
    procs: int


WORKLOADS = (
    Workload(
        "pagerank-record-serial",
        "single-process record path (map_pair, combine, group_by_key, partitioner): the "
        "serial baseline that data-plane, spawn and kernel changes must leave flat",
        "edge*iterations", 1,
    ),
    Workload(
        "pagerank-kernel-parallel",
        "volume-bound 2-worker mesh with vectorised compute, so columnar kernels, "
        "protocol-5 frames, blob pickling, prepare and spawn are each a visible share",
        "edge*iterations", 2,
    ),
    Workload(
        "sssp-accum-refresh",
        "i2MapReduce traffic: cold async converge, memo save, three 1% churn refreshes; "
        "four mesh spawns and many short rounds make it latency- and fixed-cost-bound",
        "edges brought to fixpoint", 2,
    ),
    Workload(
        "kmeans-record-parallel-recover",
        "few large numpy records out-of-band plus one2all broadcast, checkpoints and one "
        "real SIGKILL recovery: the frame path for big buffers and the restore path",
        "point*iterations", 2,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
PROCS = {w.name: w.procs for w in WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline median the metric may worsen by.
    bound: float
    what: str
    #: False for metrics the driver contract cannot carry per workload
    #: (zero or undefined on some workload); they stay in the result
    #: files and ``compare.py``.
    in_contract: bool = True


#: Every seconds metric (and so ``work_per_s``) is reported at nominal host
#: speed: the measured value over the host slowdown during the op.
END_TO_END = (
    EndToEnd("total_wall_s", "s", "lower", 0.25,
             "parent-measured spawn to exit of one op: what a `repro run` user waits"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "spawn to engine call: interpreter, imports, dataset, records, job build"),
    EndToEnd("run_wall_s", "s", "lower", 0.25,
             "the engine call(s): partition, spawn, static load, iterations, assembly, "
             "persistence"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "user+sys CPU of the op's whole process tree"),
    EndToEnd("work_per_s", "1/s", "higher", 0.25,
             "stated work of the workload / run_wall_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "max RSS over the op's child and its reaped workers"),
    EndToEnd("refresh_wall_s", "s", "lower", 0.25,
             "sssp-accum-refresh only: mean wall of the three load-refresh-save cycles",
             in_contract=False),
    EndToEnd("failed_share", "ratio", "lower", 0.0,
             "failed ops / attempted ops; any rise is a regression",
             in_contract=False),
)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)

PRS, PRK, SSSP, KM = WORKLOAD_NAMES
_S, _N = "s", "count"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: Workloads whose traced op measures this metric; 0 is reported on
    #: the others (the layer does not run there).
    on: tuple
    #: The end-to-end metric (and workload) it is predicted to move.
    moves: str


def _layers(names: str, unit: str, better: str, on: tuple, moves: str) -> tuple:
    return tuple(Layer(n, unit, better, on, moves) for n in names.split())


ALL = WORKLOAD_NAMES
PARALLEL = (PRK, SSSP, KM)

PER_LAYER = (
    *_layers("startup.interp_import_s inputs.generate_s inputs.records_s "
             "algorithms.job_build_s", _S, "lower", ALL, "setup_s, all workloads"),
    *_layers("inputs.nodes inputs.edges", _N, "lower", ALL, "none (size of the input)"),
    *_layers("partition.route_s records.group_by_key_s", _S, "lower", (PRS, KM),
             f"run_wall_s on {PRS}; none on kernel"),
    *_layers("partition.skew", "ratio", "lower", (PRS, KM), f"run_wall_s on {PRS}"),
    *_layers("localrun.run_s localrun.first_iter_s localrun.per_iter_s "
             "localrun.map_pair_s localrun.combine_s", _S, "lower", (PRS, KM),
             f"run_wall_s and cpu_s on {PRS}; serial twin on {KM}; flat on kernel"),
    *_layers("columnar.prepare_s columnar.map_kernel_s columnar.merge_s "
             "columnar.route_s columnar.encode_s columnar.decode_s "
             "columnar.serial_run_s", _S, "lower", (PRK,), f"run_wall_s on {PRK} only"),
    *_layers("workerproc.encode_frame_s workerproc.read_frame_s", _S, "lower", PARALLEL,
             f"run_wall_s: most on {KM}, some on {PRK}, little on {SSSP}"),
    *_layers("workerproc.frame_bytes", "bytes", "lower", PARALLEL,
             f"run_wall_s and peak_rss_mb on {KM} and {PRK}"),
    *_layers("worker.map_s worker.combine_s worker.kernel_s worker.schedule_s "
             "worker.delta_s worker.serialize_s worker.deserialize_s worker.send_s "
             "worker.wait_s worker.reduce_s worker.checkpoint_s worker.recover_s",
             _S, "lower", PARALLEL,
             f"run_wall_s: most on {KM}, some on {PRK}, little on {SSSP}, none on serial"),
    *_layers("parallel.run_s parallel.first_iter_s parallel.per_iter_s", _S, "lower",
             PARALLEL, "run_wall_s on the parallel workloads"),
    *_layers("parallel.fixed_s", _S, "lower", PARALLEL,
             f"refresh_wall_s and run_wall_s on {SSSP} (x4 spawns), then {PRK}"),
    *_layers("parallel.records_sent parallel.batches_sent parallel.manifest_frames "
             "parallel.static_loads", _N, "lower", PARALLEL,
             "run_wall_s on the parallel workloads"),
    *_layers("parallel.bytes_pickled", "bytes", "lower", PARALLEL,
             f"run_wall_s and peak_rss_mb on {KM} and {PRK}"),
    *_layers("parallel.recoveries", _N, "lower", (KM,), "none (asserted == 1)"),
    *_layers("parallel.recovery_s", _S, "lower", (KM,), f"run_wall_s on {KM} only"),
    *_layers("parallel.speedup_vs_serial parallel.cpu_over_wall", "ratio", "higher",
             PARALLEL, "run_wall_s on the parallel workloads"),
    *_layers("accum.cold_serial_s accum.cold_parallel_s accum.kernel_cold_s", _S,
             "lower", (SSSP,), f"run_wall_s on {SSSP} only"),
    *_layers("accum.rounds accum.updates_processed accum.deltas_shipped", _N, "lower",
             (SSSP,), f"run_wall_s on {SSSP} only"),
    *_layers("incremental.patch_s incremental.plan_s incremental.warm_run_s "
             "memo.save_s memo.load_s", _S, "lower", (SSSP,),
             f"refresh_wall_s on {SSSP}"),
    *_layers("incremental.warm_updates incremental.frontier_keys", _N, "lower", (SSSP,),
             f"refresh_wall_s on {SSSP}"),
    *_layers("incremental.update_ratio", "ratio", "lower", (SSSP,),
             f"refresh_wall_s on {SSSP}"),
    *_layers("memo.bytes", "bytes", "lower", (SSSP,), f"refresh_wall_s on {SSSP}"),
    *_layers("checkpoint.write_s checkpoint.read_s checkpoint.commit_s checkpoint.gc_s",
             _S, "lower", (KM,), f"run_wall_s on {KM}; refresh_wall_s via MemoStore"),
    *_layers("checkpoint.bytes", "bytes", "lower", (KM,), f"run_wall_s on {KM}"),
    *_layers("checkpoint.writes", _N, "lower", (KM,), f"run_wall_s on {KM}"),
    *_layers("cli.total_wall_s cli.reported_wall_s cli.overhead_s", _S, "lower", (PRS,),
             f"tracks total_wall_s on {PRS}"),
    *_layers("refresh_wall_s", _S, "lower", (SSSP,),
             f"end-to-end on {SSSP}; listed here because it is 0 elsewhere"),
    *_layers("run.unexplained_s", _S, "lower", ALL, "none (bookkeeping)"),
    *_layers("trace.overhead_pct", "%", "lower", ALL, "none (bookkeeping)"),
)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def benchmark_json(run_seconds: int) -> dict:
    """The contract file, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if m.in_contract
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
