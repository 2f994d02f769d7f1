"""How fast the host runs while an op runs, from a fixed kernel sampled beside it.

The sandbox hosts this benchmark runs on have slow periods of seconds to
several minutes in which *everything* — CPU seconds included, with no steal
time reported — runs 30-60 % slower; the longer ones outlast a run, so no
statistic over the ops of one run removes them.  The runner therefore pins
each op to the CPUs it is sized for and, on each of those CPUs, a helper
process (this file run as a script) times a fixed 1 ms slice of work every
50 ms for as long as the op runs: a 2 % duty cycle, the same for every op of
every commit.  The mean slice time over its time on the quiet dev box is the
op's *host slowdown*, and the runner divides the op's seconds by it: what it
reports are seconds on a host at nominal speed.

The slice is the benchmark's own code and calls nothing of the program, so
a change to the program cannot move it.  It walks a dict of tuples a few MB
large and does float arithmetic on what it finds, which is what the
interpreter-bound ops do; sampled beside the op it sees the host's speed on
the op's own CPUs during the op's own seconds, which a calibration before
and after the op does not (the host's speed flickers within a second).
README.md, "Noise", has the measurements behind each choice here.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

#: Slice seconds on the 2-core dev box in a quiet period.  Only a scale: it
#: makes the normalised numbers read like the raw ones there.  Changing it
#: (or the slice) moves every timing metric.
NOMINAL_SLICE_S = 0.00110
PERIOD_S = 0.05
#: Share of an op's slices, the slowest, left out of the mean: a slice that
#: was preempted measures the scheduler, not the host's speed.
TRIMMED = 0.1
#: A slice walks a quarter of one table.  40k keys (~6 MB with their tuples
#: and floats) is the size whose time follows the ops' through the host's
#: slow periods (a 4k or a 400k table slows only 0.6-0.75 times as much).
#: Where a table's pages land moves its slice time by ~5 % from one helper
#: process to the next; cycling over four tables halves that.
_KEYS_PER_TABLE = 40_000
_STRIDE = 10_000


_TABLES = 4


def build_tables() -> list:
    tables = []
    for _ in range(_TABLES):
        table = {(i * 7919) % 1_000_003: (i, float(i)) for i in range(_KEYS_PER_TABLE)}
        tables.append((table, list(table)))
    return tables


def kernel_slice(tables: list, turn: int) -> float:
    """One slice of work, wall seconds; ``turn`` picks the table and the
    quarter of it the slice walks."""
    table, keys = tables[turn % _TABLES]
    start = (turn // _TABLES * _STRIDE) % _KEYS_PER_TABLE
    started = time.perf_counter()
    total = 0.0
    for key in keys[start:start + _STRIDE]:
        index, value = table[key]
        total += value * 0.5 + index
    return time.perf_counter() - started


def _serve(cpu: int) -> None:
    """The helper: pinned to ``cpu``; one byte on stdin starts sampling, the
    next ends it and is answered with the trimmed mean slice time; end of
    input ends the helper."""
    os.sched_setaffinity(0, {cpu})
    tables = build_tables()
    turn = 0
    for turn in range(100):  # warm the interpreter's caches
        kernel_slice(tables, turn)
    while os.read(0, 1):
        slices = []
        while True:
            turn += 1
            slices.append(kernel_slice(tables, turn))
            if select.select([0], [], [], PERIOD_S)[0]:
                break
        if not os.read(0, 1):
            return
        slices.sort()
        kept = slices[:max(1, round(len(slices) * (1.0 - TRIMMED)))]
        print(repr(sum(kept) / len(kept)), flush=True)


class Monitor:
    """One pinned sampling helper per CPU; idle (blocked on a read) between
    ``start`` and the next ``start``."""

    def __init__(self, cpus):
        self.helpers = {
            cpu: subprocess.Popen([sys.executable, __file__, str(cpu)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for cpu in cpus
        }
        self.sampling = []

    def start(self, cpus) -> None:
        self.sampling = [self.helpers[cpu] for cpu in cpus]
        for helper in self.sampling:
            helper.stdin.write(b"s")
            helper.stdin.flush()

    def stop(self) -> float:
        """End sampling; the host slowdown since ``start``: 1.0 on a host at
        nominal speed, 1.4 on one that ran the slices 40 % slower."""
        for helper in self.sampling:
            helper.stdin.write(b"e")
            helper.stdin.flush()
        seconds = [float(helper.stdout.readline()) for helper in self.sampling]
        self.sampling = []
        return sum(seconds) / len(seconds) / NOMINAL_SLICE_S

    def close(self) -> None:
        for helper in self.helpers.values():
            helper.stdin.close()  # end of input ends the helper
            helper.stdout.close()
            helper.wait()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
