"""Task-pair placement: the one rule both backends call.

An assignment is one shape everywhere, ``owner``: a list indexed by pair
whose entries are workers — machine names on the simulated cluster,
worker indices on the pipe mesh.  Every function is pure over it:

* :func:`round_robin` — the initial spread of pairs over the workers
  (§3.1.1), also the simulator's aux-task placement;
* :func:`check_slots` — a worker hosts at most :data:`PAIRS_PER_WORKER`
  pairs, so more pairs than slots is refused;
* :func:`reassign` — a failed worker's pairs, in pair order, each to the
  least-loaded alive worker, ties to the earliest (§3.4.1); pairs on
  alive workers never move;
* :func:`plan_migration` — the §3.4.2 decision: the slowest worker's
  slowest pair moves to the fastest worker when the slowest deviates
  from the trimmed mean of per-worker times by more than a threshold.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Sequence

from ..common.errors import SchedulingError

__all__ = ["PAIRS_PER_WORKER", "round_robin", "check_slots", "reassign", "plan_migration"]

#: Task pairs one worker hosts at most: its map and reduce slots (§3.1.1).
PAIRS_PER_WORKER = 2


def round_robin(count: int, workers: Sequence[Hashable]) -> list:
    """Item ``i`` of ``count`` on ``workers[i % len(workers)]``."""
    return [workers[i % len(workers)] for i in range(count)]


def check_slots(num_pairs: int, workers: Sequence[Hashable], message: str) -> None:
    """Raise :class:`SchedulingError` when ``workers``' task slots cannot
    hold ``num_pairs`` pairs at once; ``message`` may name ``{pairs}``,
    ``{workers}`` (their count) and ``{per_worker}``."""
    if num_pairs > len(workers) * PAIRS_PER_WORKER:
        slots = {"pairs": num_pairs, "workers": len(workers), "per_worker": PAIRS_PER_WORKER}
        raise SchedulingError(message.format(**slots))


def reassign(owner: Sequence[Hashable], alive: Sequence[Hashable]) -> list:
    """``owner`` with every pair of a worker not in ``alive`` moved, in
    pair order, to the alive worker hosting the fewest pairs at that
    moment, ties to the earliest in ``alive``."""
    load = dict.fromkeys(alive, 0)
    for w in owner:
        if w in load:
            load[w] += 1
    placed = list(owner)
    for p, w in enumerate(placed):
        if w not in load:
            target = min(alive, key=load.__getitem__)  # the first of equals
            placed[p] = target
            load[target] += 1
    return placed


def plan_migration(owner: Sequence[Hashable], times: dict, threshold: float) -> dict | None:
    """The §3.4.2 policy over per-pair processing ``times``: a worker's
    time is its slowest pair's; the average excludes the longest and the
    shortest worker time (so at least three workers report).  When the
    slowest worker deviates from it by more than ``threshold``, its
    slowest pair moves to the fastest worker: ``{"pair", "from", "to",
    "deviation"}``, else ``None``."""
    worker_time: dict = defaultdict(float)
    for p, t in times.items():
        worker_time[owner[p]] = max(worker_time[owner[p]], t)
    if len(worker_time) < 3:
        return None
    trimmed = sorted(worker_time.values())[1:-1]
    avg = sum(trimmed) / len(trimmed)
    if avg <= 0:
        return None
    slowest = max(worker_time, key=worker_time.__getitem__)
    fastest = min(worker_time, key=worker_time.__getitem__)
    deviation = (worker_time[slowest] - avg) / avg
    if deviation <= threshold or slowest == fastest:
        return None
    candidates = [p for p, w in enumerate(owner) if w == slowest]
    pair = max(candidates, key=lambda p: times.get(p, 0.0))
    return {"pair": pair, "from": slowest, "to": fastest, "deviation": deviation}
