"""Shared by the tests that pin what crosses the mesh.

The data-plane counters are deterministic for a given job, pair count
and worker count (seeded builders, pinned frame protocol): they belong
to the protocol, not the host, so tier-1 pins them instead of bounding
them.  A change that moves one names the new value in the test.
"""

import multiprocessing
import os

import pytest

from repro.imapreduce.engine import MESH_COUNTERS


def mesh_counters(result) -> tuple:
    """``(records_sent, batches_sent, manifest_frames, bytes_pickled)``."""
    return tuple(result.counter(name) for name in MESH_COUNTERS)


def assert_mesh_counters(result, pinned, label=None):
    """The three counts exact; the byte count within 2 % — pickle output
    for the same records drifts a little across numpy releases."""
    *counts, nbytes = mesh_counters(result)
    assert counts == list(pinned[:3]), (label, counts)
    assert nbytes == pytest.approx(pinned[3], rel=0.02), (label, nbytes)


def mesh_leftovers() -> tuple[list, int]:
    """Live mesh worker processes and this process's open fd count —
    equal before and after a run that cleaned up after itself."""
    workers = [p for p in multiprocessing.active_children()
               if p.name.startswith("imr-worker")]
    return workers, len(os.listdir("/proc/self/fd"))
