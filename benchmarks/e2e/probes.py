"""Per-layer probes of the traced op.

The benchmark may not edit the program, so a layer is measured from
outside: by timing calls into its public functions on the op's own inputs
(serial twin, 1-iteration twin, unfaulted twin, direct ``map_pair`` /
``Kernel.prepare`` / ``encode_frame`` / ``CheckpointStore`` / ... calls),
and by reading the counters and the worker profiler the engine results
already expose.  Every call sits in a span; :func:`run` returns the full
per-layer metric dict, 0 for layers the workload does not exercise.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
import threading
from multiprocessing import Pipe

import workloads
from registry import KM, PER_LAYER, PRK, PRS, SSSP
from repro.common.partition import bind_partitioner
from repro.common.records import group_by_key
from repro.imapreduce import (
    CheckpointStore,
    patch_static_table,
    plan_changes,
    run_accum_local,
    run_accum_parallel,
    run_local,
    run_parallel,
)
from repro.imapreduce.accum import partition_state
from repro.imapreduce.columnar import (
    decode_columnar,
    encode_columnar,
    merge_columnar,
    route_columnar,
)
from repro.imapreduce.incremental import ADJACENCY_KINDS
from repro.imapreduce.localrun import map_pair, order_key, sorted_static
from repro.imapreduce.workerproc import PHASE_COUNTERS, SHUFFLE, encode_frame, read_frame
from workloads import START_METHOD, STATIC, WORKERS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


def run(inp, outcome, rec, engine_span, engine_cpu, workdir, *, interp_import_s) -> dict:
    run_wall = engine_span["dur"]
    layers = {m.name: 0.0 for m in PER_LAYER}
    layers.update({
        "startup.interp_import_s": interp_import_s,
        "inputs.generate_s": inp.timings["generate_s"],
        "inputs.records_s": inp.timings["records_s"],
        "algorithms.job_build_s": inp.timings["job_build_s"],
        "inputs.nodes": inp.nodes,
        "inputs.edges": inp.edges,
        "refresh_wall_s": outcome.get("refresh_wall_s", 0.0),
    })
    with rec.span("probes"):
        accounted = _PROBES[inp.name](inp, outcome, rec, run_wall, engine_cpu, workdir,
                                      layers)
    # Wall of the engine region no measured layer accounts for: the
    # region's own self time (glue between engine calls) plus whatever
    # part of the engine calls the probes could not attribute.
    layers["run.unexplained_s"] = run_wall - accounted
    return layers


def _timed(rec, name, fn, *args, **kwargs):
    with rec.span(name) as span:
        out = fn(*args, **kwargs)
    return out, span["dur"]


def _two_point(layers, prefix, run_s, first_s, iterations):
    """The paper's §4.2 two-point method: a 1-iteration run costs the
    fixed part plus one iteration, the full run the fixed part plus all."""
    per_iter = (run_s - first_s) / max(iterations - 1, 1)
    layers[f"{prefix}.run_s"] = run_s
    layers[f"{prefix}.first_iter_s"] = first_s
    layers[f"{prefix}.per_iter_s"] = per_iter
    return first_s - per_iter


def _mesh_layers(layers, results, run_s, engine_cpu, serial_s):
    """Counters and worker-profiler seconds the parallel results expose."""
    stats = [s for r in results for s in r.worker_stats]
    for phase in PHASE_COUNTERS:
        if f"worker.{phase}_s" in layers:
            layers[f"worker.{phase}_s"] = sum(
                s.get("phase_seconds", {}).get(phase, 0.0) for s in stats
            )
    for name in ("records_sent", "batches_sent", "manifest_frames", "bytes_pickled",
                 "static_loads"):
        layers[f"parallel.{name}"] = sum(s.get(name, 0) for s in stats)
    layers["parallel.cpu_over_wall"] = engine_cpu / run_s
    layers["parallel.speedup_vs_serial"] = serial_s / run_s
    # Workers run side by side, so their profiled seconds explain
    # (sum / workers) of the wall.
    return sum(layers[f"worker.{p}_s"] for p in PHASE_COUNTERS
               if f"worker.{p}_s" in layers) / WORKERS


def _frame_probe(rec, layers, payload):
    """One representative batch through ``encode_frame`` -> a real Pipe ->
    ``read_frame``; a feeder thread writes, as in the worker mesh."""
    receiver, sender = Pipe(duplex=False)
    (parts, nbytes), encode_s = _timed(
        rec, "workerproc.encode_frame", encode_frame, SHUFFLE, 0, 0, 0, payload
    )
    feeder = threading.Thread(target=lambda: [sender.send_bytes(p) for p in parts])
    feeder.start()
    try:
        _frame, read_s = _timed(rec, "workerproc.read_frame", read_frame, receiver)
    finally:
        feeder.join()
        sender.close()
        receiver.close()
    layers["workerproc.encode_frame_s"] = encode_s
    layers["workerproc.read_frame_s"] = read_s
    layers["workerproc.frame_bytes"] = nbytes


def _record_iteration(inp, rec, layers, combine_twin: bool):
    """One iteration of the record path through the public pieces
    ``run_local`` is made of; returns the seconds they account for and
    the routed emissions (``dest pair -> src pair -> records``)."""
    job, pairs = inp.job, inp.size["pairs"]
    phase = job.phases[0]
    part = bind_partitioner(job.partitioner, pairs)
    state_parts = partition_state(inp.state, pairs, part)
    static_parts = [{} for _ in range(pairs)]
    for key, value in inp.statics[STATIC]:
        static_parts[part(key)][key] = value
    one2all = phase.mapping == "one2all"
    broadcast = sorted(inp.state, key=lambda kv: order_key(kv[0])) if one2all else None
    static_sorted = [sorted_static(d) if one2all else None for d in static_parts]

    def map_all(which):
        return [
            map_pair(which, state_parts[p], static_parts[p], static_sorted[p],
                     broadcast, part)
            for p in range(pairs)
        ]

    emitted, map_s = _timed(rec, "localrun.map_pair", map_all, phase)
    layers["localrun.map_pair_s"] = map_s
    if combine_twin:
        bare = dataclasses.replace(phase, combiner=None)
        _, bare_s = _timed(rec, "localrun.map_pair[no combiner]", map_all, bare)
        layers["localrun.combine_s"] = map_s - bare_s
    keys = [record[0] for per_pair in emitted for record in per_pair]
    dests, route_s = _timed(rec, "partition.route", lambda: [part(k) for k in keys])
    routed: dict[int, dict[int, list]] = {}
    flat = iter(dests)
    for src, per_pair in enumerate(emitted):
        for record in per_pair:
            routed.setdefault(next(flat), {}).setdefault(src, []).append(record)
    shuffled = [
        [r for src in sorted(routed.get(q, {})) for r in routed[q][src]]
        for q in range(pairs)
    ]
    _, group_s = _timed(rec, "records.group_by_key",
                        lambda: [group_by_key(s) for s in shuffled])
    sizes = [len(s) for s in shuffled]
    layers["partition.route_s"] = route_s
    layers["partition.skew"] = max(sizes) / (sum(sizes) / len(sizes))
    layers["records.group_by_key_s"] = group_s
    return map_s + route_s + group_s, routed


def _serial_first(inp, rec, layers, run_s):
    one = workloads.make_job(inp.name, inp.size, iterations=1)
    _, first_s = _timed(rec, "localrun.run_local[1 iteration]", run_local, one,
                        inp.state, inp.statics, num_pairs=inp.size["pairs"])
    return _two_point(layers, "localrun", run_s, first_s, inp.size["iterations"])


# ------------------------------------------------------------ per workload --
def _probe_record_serial(inp, outcome, rec, run_wall, engine_cpu, workdir, layers):
    _serial_first(inp, rec, layers, run_wall)
    per_iteration, _ = _record_iteration(inp, rec, layers, combine_twin=True)
    command = [sys.executable, "-m", "repro", "run", "pagerank", "--backend", "serial",
               "--combiner", "--iterations", "10"]
    if inp.quick:
        command += ["--dataset", "pagerank-s"]
    env = {**os.environ, "PYTHONPATH": SRC}
    done, total_s = _timed(rec, "cli.repro_run", subprocess.run, command, env=env,
                           capture_output=True, text=True, check=True)
    reported = float(re.search(r"([0-9.]+)s wall", done.stdout).group(1))
    layers["cli.total_wall_s"] = total_s
    layers["cli.reported_wall_s"] = reported
    layers["cli.overhead_s"] = total_s - reported
    return per_iteration * inp.size["iterations"]


def _probe_kernel_parallel(inp, outcome, rec, run_wall, engine_cpu, workdir, layers):
    job, pairs = inp.job, inp.size["pairs"]
    mesh = dict(num_pairs=pairs, num_workers=WORKERS, start_method=START_METHOD)
    one = workloads.make_job(inp.name, inp.size, iterations=1)
    _, first_s = _timed(rec, "parallel.run_parallel[1 iteration]", run_parallel, one,
                        inp.state, inp.statics, **mesh)
    fixed = _two_point(layers, "parallel", run_wall, first_s, inp.size["iterations"])
    layers["parallel.fixed_s"] = fixed
    _, serial_s = _timed(rec, "columnar.run_local_kernel[twin]", run_local, job,
                         inp.state, inp.statics, num_pairs=pairs)
    layers["columnar.serial_run_s"] = serial_s
    worker_share = _mesh_layers(layers, outcome["results"], run_wall, engine_cpu, serial_s)

    # One iteration of the columnar path, call by call.
    kernel = job.kernel
    part = bind_partitioner(job.partitioner, pairs)
    part_array = job.partitioner.bind_array(pairs)
    (keys, values), encode_s = _timed(rec, "columnar.encode_columnar", encode_columnar,
                                      inp.state, kernel.state_dtype, kernel.state_width)
    split, route_s = _timed(rec, "columnar.route_columnar[state]", route_columnar, keys,
                            values, part_array, pairs)
    owned = {p: (ks, vs) for p, ks, vs in split}
    tables = [{} for _ in range(pairs)]
    for key, value in inp.statics[STATIC]:
        tables[part(key)][key] = value
    prepared, prepare_s = _timed(
        rec, "columnar.Kernel.prepare",
        lambda: {p: kernel.prepare(p, owned[p][0], tables[p]) for p in owned},
    )
    emitted, map_s = _timed(
        rec, "columnar.Kernel.map_kernel",
        lambda: {p: kernel.map_kernel(p, *owned[p], prepared[p], None) for p in owned},
    )
    routed, route2_s = _timed(
        rec, "columnar.route_columnar",
        lambda: {p: route_columnar(*emitted[p], part_array, pairs) for p in emitted},
    )
    inbox: dict[int, list] = {}
    for p in sorted(routed):
        for q, ks, vs in routed[p]:
            inbox.setdefault(q, []).append((ks, vs))
    merged, merge_s = _timed(
        rec, "columnar.merge_columnar",
        lambda: {q: merge_columnar(kernel, owned[q][0], inbox[q]) for q in inbox},
    )
    _, decode_s = _timed(
        rec, "columnar.decode_columnar",
        lambda: [decode_columnar(owned[q][0], merged[q]) for q in merged],
    )
    layers.update({
        "columnar.encode_s": encode_s, "columnar.prepare_s": prepare_s,
        "columnar.map_kernel_s": map_s, "columnar.route_s": route_s + route2_s,
        "columnar.merge_s": merge_s, "columnar.decode_s": decode_s,
    })
    # What worker 0 ships worker 1 each iteration.
    _frame_probe(rec, layers, [
        (q, p, ks, vs) for p in sorted(routed) if p % WORKERS == 0
        for q, ks, vs in routed[p] if q % WORKERS == 1
    ])
    return fixed + worker_share


def _probe_accum_refresh(inp, outcome, rec, run_wall, engine_cpu, workdir, layers):
    job, pairs = inp.job, inp.size["pairs"]
    results = outcome["results"]
    cold, warm = results[0], results[1:]
    durations: dict[str, list] = {}
    for span in rec.spans:
        durations.setdefault(span["name"], []).append(span.get("dur"))
    cold_s = durations["parallel.run_accum_parallel"][0]
    warm_s = durations["incremental.run_incremental_accum"]
    save_s, load_s = durations["memo.save"], durations["memo.load"]

    _, serial_s = _timed(rec, "localrun.run_accum_local[twin]", run_accum_local, job,
                         inp.state, inp.statics, num_pairs=pairs, mode="async")
    kernel_job = workloads.make_job(inp.name, inp.size, accum_kernel=True)
    _, kernel_s = _timed(rec, "columnar.run_accum_local_kernel[twin]", run_accum_local,
                         kernel_job, inp.state, inp.statics, num_pairs=pairs,
                         mode="async")
    one = workloads.make_job(inp.name, inp.size, iterations=1)
    _, first_s = _timed(rec, "parallel.run_accum_parallel[1 round]", run_accum_parallel,
                        one, inp.state, inp.statics, num_pairs=pairs,
                        num_workers=WORKERS, start_method=START_METHOD, mode="async")
    fixed = _two_point(layers, "parallel", cold_s, first_s, cold.rounds)
    layers["parallel.run_s"] = cold_s + sum(warm_s)
    layers["parallel.fixed_s"] = fixed
    worker_share = _mesh_layers(layers, results, cold_s + sum(warm_s), engine_cpu,
                                serial_s)
    layers["parallel.speedup_vs_serial"] = serial_s / cold_s

    kind = ADJACENCY_KINDS["sssp"]
    _, patch_s = _timed(rec, "incremental.patch_static_table", patch_static_table,
                        dict(inp.tables[0]), inp.churn[0], kind)
    plan, plan_s = _timed(rec, "incremental.plan_changes", plan_changes, "sssp",
                          dict(inp.tables[0]), inp.churn[0], dict(cold.state),
                          source=inp.source)
    memo_dir = os.path.join(workdir, "memo")
    layers.update({
        "accum.cold_parallel_s": cold_s, "accum.cold_serial_s": serial_s,
        "accum.kernel_cold_s": kernel_s, "accum.rounds": cold.rounds,
        "accum.updates_processed": cold.updates_processed,
        "accum.deltas_shipped": cold.deltas_shipped,
        "incremental.patch_s": patch_s, "incremental.plan_s": plan_s,
        "incremental.warm_run_s": sum(warm_s) / len(warm_s),
        "incremental.warm_updates": sum(w.updates_processed for w in warm),
        "incremental.update_ratio": (
            sum(w.updates_processed for w in warm) / len(warm) / cold.updates_processed
        ),
        "incremental.frontier_keys": sum(
            w.counters["incremental"]["frontier_keys"] for w in warm
        ),
        "memo.save_s": sum(save_s) / len(save_s),
        "memo.load_s": sum(load_s) / len(load_s),
        "memo.bytes": sum(
            os.path.getsize(os.path.join(memo_dir, f)) for f in os.listdir(memo_dir)
        ),
    })
    # The first refresh's perturbation deltas bound for worker 1's pairs.
    part = bind_partitioner(job.partitioner, pairs)
    by_pair: dict[int, list] = {}
    for record in plan.perturbation:
        by_pair.setdefault(part(record[0]), []).append(record)
    _frame_probe(rec, layers, [
        (q, 0, records) for q, records in sorted(by_pair.items()) if q % WORKERS == 1
    ])
    # Per refresh: plan (which patches) runs inside the warm call, ahead
    # of the mesh spawn; memo traffic sits beside it.
    return (len(results) * fixed + worker_share + len(warm) * plan_s
            + sum(save_s) + sum(load_s))


def _probe_recover(inp, outcome, rec, run_wall, engine_cpu, workdir, layers):
    result = outcome["results"][0]
    one = workloads.make_job(inp.name, inp.size, iterations=1)
    mesh = dict(num_pairs=inp.size["pairs"], num_workers=WORKERS,
                start_method=START_METHOD)
    _, first_s = _timed(rec, "parallel.run_parallel[1 iteration]", run_parallel, one,
                        inp.state, inp.statics, **mesh)
    _, clean_s = _timed(rec, "parallel.run_parallel[unfaulted]", run_parallel, inp.job,
                        inp.state, inp.statics,
                        **workloads.kmeans_parallel_kwargs(inp, fault=False))
    fixed = _two_point(layers, "parallel", clean_s, first_s, inp.size["iterations"])
    layers["parallel.run_s"] = run_wall
    layers["parallel.fixed_s"] = fixed
    layers["parallel.recoveries"] = result.recoveries
    layers["parallel.recovery_s"] = run_wall - clean_s
    _, serial_s = _timed(rec, "localrun.run_local[twin]", run_local, inp.job, inp.state,
                         inp.statics, num_pairs=inp.size["pairs"])
    _serial_first(inp, rec, layers, serial_s)
    worker_share = _mesh_layers(layers, [result], run_wall, engine_cpu, serial_s)
    _, routed = _record_iteration(inp, rec, layers, combine_twin=False)

    # One pair's checkpoint payload through the spool, call by call.
    store = CheckpointStore(os.path.join(workdir, "ckpt-probe"))
    part = bind_partitioner(inp.job.partitioner, inp.size["pairs"])
    payload = {"path": "record",
               "pairs": {0: [r for r in result.state if part(r[0]) == 0]}}
    entry, write_s = _timed(rec, "checkpoint.CheckpointStore.write", store.write, 0, 1,
                            0, payload)
    _, commit_s = _timed(rec, "checkpoint.CheckpointStore.commit", store.commit, 1, 0,
                         [entry])
    _, read_s = _timed(rec, "checkpoint.CheckpointStore.read_payload",
                       store.read_payload, entry)
    store.commit(2, 0, [store.write(0, 2, 0, payload)])
    _, gc_s = _timed(rec, "checkpoint.CheckpointStore.gc", store.gc, 1)
    layers.update({
        "checkpoint.write_s": write_s, "checkpoint.commit_s": commit_s,
        "checkpoint.read_s": read_s, "checkpoint.gc_s": gc_s,
        "checkpoint.bytes": result.counter("ckpt_bytes"),
        "checkpoint.writes": result.counter("ckpt_writes"),
    })
    # What worker 0's pairs ship worker 1's each iteration.
    _frame_probe(rec, layers, [
        (q, src, records) for q in sorted(routed) if q % WORKERS == 1
        for src, records in sorted(routed[q].items()) if src % WORKERS == 0
    ])
    # The killed generation's profile is lost with it; its wall is what
    # ``parallel.recovery_s`` measures.
    return fixed + worker_share + layers["parallel.recovery_s"]


_PROBES = {PRS: _probe_record_serial, PRK: _probe_kernel_parallel,
           SSSP: _probe_accum_refresh, KM: _probe_recover}
