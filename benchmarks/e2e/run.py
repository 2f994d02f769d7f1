"""The repository's benchmark: fresh-process ops, timed from outside.

    python3 benchmarks/e2e/run.py [--seed 42] [--ops 9] [--workloads a,b] [--out F]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

One op is one child process (``op.py``) shaped like a ``repro run``.  This
runner is a single process with no threads: it spawns an op in its own
process group, waits, and reads the child's report, ``wait4`` CPU time and
exit status.  Ops of the chosen workloads are interleaved round-robin.
Every result is checked against a reference computed here, once per run,
without the engine under test.  While an op runs, pinned helper processes
time a fixed slice of work beside it on the op's CPUs (``hostspeed.py``),
and the runner divides the op's seconds by how much slower than nominal the
host ran those slices, so a slow period of the host does not read as a slow
program.  README.md defines every metric.

The second form is the driver's: one workload, a time budget instead of an
op count, and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import registry  # noqa: E402
import spans as spanlib  # noqa: E402

OP_TIMEOUT_S = 120.0
DEFAULT_OPS = 9
MIN_OPS = 5
#: Time-bounded runs (the driver's) keep going until the budget is used,
#: but never report a median of fewer ops than this.
MIN_TIMED_OPS = 3
#: Untraced ops a ``--seconds --trace 1`` run makes before the traced op,
#: as the base of ``trace.overhead_pct``.
TRACE_BASE_OPS = 2
QUICK_OPS = 2
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")


# ------------------------------------------------------------------ one op --
def group_survivors(pgid: int) -> list[int]:
    """Live (non-zombie) processes still in process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # exited while we were looking
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


def _wait(pid: int, timeout: float):
    """Block in ``wait4`` (no polling, so no quantisation of the wall
    time); on timeout kill the op's whole process group.  Returns
    ``(exit code or None on timeout, rusage)``."""
    def on_alarm(_signum, _frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except TimeoutError:
        os.killpg(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, usage


def run_op(command: list[str], workdir: str, timeout: float = OP_TIMEOUT_S,
           cpus=None) -> dict:
    """Run one op and enforce hygiene.

    The op gets a private ``workdir`` (its memo dir, its TMPDIR, its
    output files), its own process group and, with ``cpus``, only those
    CPUs for itself and its workers.  After it exits no process
    of the group may survive and its TMPDIR must be empty; either leak
    fails the op.  Returns ``failure`` (None when sound), the
    parent-side measurements and the child's ``report``.
    """
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [*command, "--workdir", workdir, "--spawned-at", repr(spawned_at)],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env={**os.environ, "TMPDIR": tmp}, start_new_session=True,
            # Safe here: the runner has no threads.
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        try:
            code, usage = _wait(proc.pid, timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # interrupted: leave nothing running
            raise
        total_wall = time.monotonic() - spawned_at
        proc.returncode = -signal.SIGKILL if code is None else code
    failure, report = None, None
    if code is None:
        failure = f"timeout after {timeout:g}s"
    elif code != 0:
        with open(err_path, errors="replace") as fh:
            last = fh.read().strip().splitlines()[-1:]
        failure = f"exit code {code}: {last[0][:200] if last else ''}"
    survivors = group_survivors(proc.pid)
    if survivors:
        os.killpg(proc.pid, signal.SIGKILL)
        failure = failure or f"leaked processes {survivors}"
    leftovers = os.listdir(tmp)
    if leftovers and failure is None:
        failure = f"left {leftovers[:3]} in its temp dir"
    if failure is None:
        with open(out_path) as fh:
            lines = fh.read().strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            failure = "no JSON report on stdout"
    return {
        "failure": failure,
        "report": report,
        "total_wall_s": total_wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "result_path": os.path.join(workdir, "result.npy"),
    }


def judge(name: str, op: dict, expected, base: dict | None,
          slowdown: float = 1.0) -> dict:
    """Turn one finished op into a sample: its end-to-end metrics, or the
    reason it failed.  ``expected`` is ``(values, rtol)`` from the
    reference; ``base`` the first sound sample of this seed, whose digest
    and counters every later op must repeat exactly; ``slowdown`` the host
    slowdown during the op, which every seconds metric is divided by (a
    sample's raw seconds are its values times its ``host_slowdown``)."""
    import numpy as np

    import workloads

    failure, report = op["failure"], op["report"]
    if failure is None:
        values = np.load(op["result_path"])
        if not workloads.matches(values, *expected):
            failure = "result outside the reference tolerance"
        elif name == registry.KM and report.get("recoveries") != 1:
            failure = f"recoveries == {report.get('recoveries')}, expected 1"
        elif base and report["digest"] != base["digest"]:
            failure = "digest differs from the first op of this seed"
        elif base and report["counters"] != base["counters"]:
            failure = "counters differ from the first op of this seed"
    if failure is not None:
        return {"failure": failure}
    seconds = {"total_wall_s": op["total_wall_s"], "setup_s": report["setup_s"],
               "run_wall_s": report["run_wall_s"], "cpu_s": op["cpu_s"]}
    if "refresh_wall_s" in report:
        seconds["refresh_wall_s"] = report["refresh_wall_s"]
    sample = {
        "failure": None,
        "digest": report["digest"],
        "counters": report["counters"],
        "work": report["work"],
        "layers": report.get("layers"),
        "host_slowdown": slowdown,
        **{metric: value / slowdown for metric, value in seconds.items()},
        "peak_rss_mb": report["peak_rss_mb"],
    }
    sample["work_per_s"] = report["work"] / sample["run_wall_s"]
    return sample


# ------------------------------------------------------------------- a run --
def summarize(values: list[float]) -> dict:
    """Median, quartiles, min, max and count: with the sample counts a run
    has (5 to 9), no percentile beyond the quartiles is supported."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values), "samples": values,
    }


def environment(args, ops) -> dict:
    import numpy
    import scipy

    import workloads

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    return {
        "git_commit": commit,
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": load,
        # Not a failure: the numbers stand, but read them with the flag.
        "noisy": load[0] > 0.5 * nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": workloads.START_METHOD,
        "host_nominal_slice_s": hostspeed.NOMINAL_SLICE_S,
        "workers": workloads.WORKERS,
        "seed": args.seed,
        "ops": ops,
        "seconds": args.seconds,
        "quick": args.quick,
    }


class Run:
    """The ops of one invocation: a work dir, references, samples."""

    def __init__(self, names, seed: int, quick: bool, log):
        import workloads

        self.names, self.seed, self.quick, self.log = names, seed, quick, log
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(self.dir)
        self.samples = {name: [] for name in names}
        self.count = 0
        #: Ops are sized for two CPUs; the serial workload gets one of them.
        self.cpus = sorted(os.sched_getaffinity(0))[-2:]
        self.expected = {}
        for name in names:
            started = time.monotonic()
            self.expected[name] = workloads.reference(workloads.build(name, seed, quick))
            log(f"reference for {name}: {time.monotonic() - started:.1f}s")
        self.monitor = hostspeed.Monitor(self.cpus)

    def close(self) -> None:
        self.monitor.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    def op(self, name: str, trace_path: str | None = None) -> dict:
        self.count += 1
        workdir = os.path.join(self.dir, f"op-{self.count:03d}")
        command = [sys.executable, os.path.join(HERE, "op.py"), name,
                   "--seed", str(self.seed)]
        if self.quick:
            command.append("--quick")
        if trace_path:
            command += ["--trace", trace_path]
        cpus = self.cpus[-registry.PROCS[name]:]
        self.monitor.start(cpus)
        try:
            done = run_op(command, workdir, cpus=cpus)
            slowdown = self.monitor.stop()
            base = next((s for s in self.samples[name] if not s["failure"]), None)
            sample = judge(name, done, self.expected[name], base, slowdown)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if sample["failure"]:
            self.log(f"  {name}: FAILED: {sample['failure']}")
        else:
            self.log(f"  {name}: total {sample['total_wall_s']:.2f}s = setup "
                     f"{sample['setup_s']:.2f}s + run {sample['run_wall_s']:.2f}s "
                     f"(host slowdown {sample['host_slowdown']:.2f})")
        return sample

    def timed(self, ops: int | None, seconds: float | None) -> None:
        """Round-robin over the workloads, so a burst of neighbour load
        lands on every workload's tail instead of one workload's median;
        ``ops`` rounds, or rounds until ``seconds`` are used."""
        started = time.monotonic()
        rounds = 0
        while True:
            for name in self.names:
                self.samples[name].append(self.op(name))
            rounds += 1
            if ops is not None:
                if rounds >= ops:
                    return
            else:
                # Another round when at least half of it fits, so a run
                # measures for ``seconds`` on average, not always less.
                elapsed = time.monotonic() - started
                if rounds >= MIN_TIMED_OPS and elapsed + 0.5 * elapsed / rounds > seconds:
                    return


def traced(run: Run, name: str, trace_path: str, untraced_run_wall: float | None) -> dict:
    """One extra op with tracing on: per-layer metrics and a span file."""
    sample = run.op(name, trace_path)
    if sample["failure"]:
        return {"failure": sample["failure"]}
    layers = sample["layers"]
    if untraced_run_wall:
        layers["trace.overhead_pct"] = 100.0 * (
            sample["run_wall_s"] / untraced_run_wall - 1.0
        )
    recorded = spanlib.load(trace_path)
    return {
        "failure": None,
        "layers": layers,
        "trace": {"file": os.path.relpath(trace_path, ROOT), "spans": len(recorded),
                  "problems": spanlib.check_well_formed(recorded)},
    }


def report_workload(name: str, samples: list[dict], trace: dict | None) -> dict:
    sound = [s for s in samples if not s["failure"]]
    attempted = len(samples) + (trace is not None)
    failures = [s["failure"] for s in samples if s["failure"]]
    if trace and trace["failure"]:
        failures.append(f"traced op: {trace['failure']}")
    if trace and not trace["failure"] and trace["trace"]["problems"]:
        failures.append(f"malformed trace: {trace['trace']['problems'][0]}")
    entry = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {},
    }
    if sound:
        entry.update(work=sound[0]["work"], counters=sound[0]["counters"],
                     digest=sound[0]["digest"])
        entry["host_slowdown"] = summarize([s["host_slowdown"] for s in sound])
        for metric in registry.END_TO_END_NAMES:
            values = [s[metric] for s in sound if metric in s]
            if values:
                entry["end_to_end"][metric] = summarize(values)
    entry["end_to_end"]["failed_share"] = {"value": len(failures) / attempted}
    if trace and not trace["failure"]:
        entry["per_layer"] = trace["layers"]
        entry["trace"] = trace["trace"]
    return entry


def print_report(result: dict, out) -> None:
    units = registry.UNITS
    work_units = {w.name: w.work_unit for w in registry.WORKLOADS}
    for name, entry in result["workloads"].items():
        measured_here = {m.name for m in registry.PER_LAYER if name in m.on}
        print(f"\n{name}: {entry['attempted']} ops, {entry['failed']} failed", file=out)
        for reason in entry["failures"]:
            print(f"  FAILED: {reason}", file=out)
        if "work" in entry:
            print(f"  work constant {entry['work']:g} ({work_units[name]}); "
                  f"counters {entry['counters']}", file=out)
            slow = entry["host_slowdown"]
            print(f"  host slowdown median {slow['median']:.3f} (min {slow['min']:.3f}, "
                  f"max {slow['max']:.3f}); seconds below are at nominal host speed",
                  file=out)
        for metric, stats in entry["end_to_end"].items():
            if "median" in stats:
                print(f"  {metric:<16} {stats['median']:>12.4f} {units[metric]:<5} "
                      f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} min {stats['min']:.4f} "
                      f"max {stats['max']:.4f} n={stats['n']}", file=out)
            else:
                print(f"  {metric:<16} {stats['value']:>12.4f} {units[metric]}", file=out)
        for metric, value in entry.get("per_layer", {}).items():
            if metric in measured_here:
                print(f"    {metric:<30} {value:>14.6g} {units[metric]}", file=out)
        if "trace" in entry:
            trace = entry["trace"]
            print(f"  trace: {trace['spans']} spans in {trace['file']}, "
                  f"{len(trace['problems'])} problems", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--ops", type=int, default=None,
                        help=f"ops per workload (default {DEFAULT_OPS}, at least {MIN_OPS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of --ops")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--workload", default=None,
                        help="one workload; the last stdout line is the driver's JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: one extra traced op per workload (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny sizes, 2 ops, numbers not comparable")
    parser.add_argument("--out", default=None, help="result file to write")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else (
        args.workloads.split(",") if args.workloads else list(registry.WORKLOAD_NAMES)
    )
    unknown = [n for n in names if n not in registry.WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {list(registry.WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    # The driver's JSON owns stdout's last line; everything else goes to
    # stderr there so the two never interleave.
    out = sys.stderr if args.workload else sys.stdout
    log = lambda message: print(message, file=out, flush=True)  # noqa: E731

    if args.seconds is not None:
        ops = TRACE_BASE_OPS if args.trace else None
    elif args.quick:
        ops = QUICK_OPS
    else:
        ops = max(MIN_OPS, args.ops or DEFAULT_OPS)
    out_path = os.path.abspath(args.out) if args.out else (
        None if args.workload else os.path.join(RESULTS, "latest.json")
    )

    env = environment(args, ops)
    if env["noisy"]:
        log(f"warning: loadavg {env['loadavg_before'][0]:.2f} > 0.5 * nproc; "
            "this run is flagged noisy")
    started = time.monotonic()
    run = Run(names, args.seed, args.quick, log)
    try:
        run.timed(ops, args.seconds)
        traces = {}
        if args.trace:
            trace_dir = os.path.dirname(out_path) if out_path else run.dir
            stem = os.path.splitext(os.path.basename(out_path))[0] if out_path else "trace"
            os.makedirs(trace_dir, exist_ok=True)
            for name in names:
                sound = [s["run_wall_s"] for s in run.samples[name] if not s["failure"]]
                traces[name] = traced(
                    run, name, os.path.join(trace_dir, f"{stem}.trace-{name}.jsonl"),
                    statistics.median(sound) if sound else None,
                )
    finally:
        run.close()

    env.update(loadavg_after=os.getloadavg(), wall_budget_used_s=time.monotonic() - started)
    result = {
        "schema": 1,
        "comparable": not args.quick,
        "environment": env,
        "workloads": {
            name: report_workload(name, run.samples[name], traces.get(name))
            for name in names
        },
    }
    print_report(result, out)
    if out_path:
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        log(f"\nwrote {out_path}")
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    if not args.workload:
        return 1 if failed else 0

    # ---- the driver's line ----
    entry = result["workloads"][args.workload]
    if args.trace:
        if "per_layer" not in entry:
            return 1
        metrics = {m.name: {"value": entry["per_layer"][m.name], "unit": m.unit}
                   for m in registry.PER_LAYER}
    else:
        wanted = [m for m in registry.END_TO_END if m.in_contract]
        if any(m.name not in entry["end_to_end"] for m in wanted):
            return 1
        metrics = {m.name: {"value": entry["end_to_end"][m.name]["median"], "unit": m.unit}
                   for m in wanted}
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
