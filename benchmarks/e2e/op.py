"""One op: a fresh process shaped like a ``repro run``.

interpreter start -> import repro -> build inputs from the seed -> build
the job -> one engine region -> digest the result -> print one JSON line.
The runner passes ``--spawned-at`` (its ``time.monotonic()`` just before the
spawn; CLOCK_MONOTONIC is system-wide on Linux) so set-up includes the
interpreter's own start.  With ``--trace`` the op also runs the per-layer
probes after the engine region and writes its spans.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

IMPORTED = time.monotonic()


def tree_cpu() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process since exec and of the workers it reaped.

    Not ``ru_maxrss`` of this process: across fork+exec Linux carries the
    parent's high-water mark into the child's, so a runner that has just
    computed a 190 MB reference would floor every op's figure.  VmHWM
    belongs to the post-exec address space.  Forked workers start at the
    RSS they really share with this process, so theirs is sound.
    """
    with open("/proc/self/status") as fh:
        own_kb = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", metavar="FILE", default=None)
    args = parser.parse_args()

    rec = Recorder(f"{args.workload}/{args.seed}/{os.getpid()}", enabled=bool(args.trace))
    inp = workloads.build(args.workload, args.seed, args.quick)

    cpu_before = tree_cpu()
    engine_at = time.monotonic()
    with rec.span("engine") as engine_span:
        outcome = workloads.run_engine(inp, args.workdir, rec)
    run_wall = time.monotonic() - engine_at
    engine_cpu = tree_cpu() - cpu_before

    values = outcome["values"]
    np.save(os.path.join(args.workdir, "result.npy"), values)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
        "interp_import_s": IMPORTED - args.spawned_at,
        "setup_s": engine_at - args.spawned_at,
        "run_wall_s": run_wall,
        "peak_rss_mb": peak_rss_mb(),
        "work": inp.work,
        "counters": outcome["counters"],
    }
    for key in ("refresh_wall_s", "recoveries"):
        if key in outcome:
            report[key] = outcome[key]
    if args.trace:
        import probes

        report["layers"] = probes.run(
            inp, outcome, rec, engine_span, engine_cpu, args.workdir,
            interp_import_s=report["interp_import_s"],
        )
        rec.write(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
