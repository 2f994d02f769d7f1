"""Shared by the tests that pin what crosses the mesh.

The data-plane counters are deterministic for a given job, pair count
and worker count (seeded builders, pinned frame protocol): they belong
to the protocol, not the host, so tier-1 pins them instead of bounding
them.  A change that moves one names the new value in the test.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.common.partition import bind_partitioner
from repro.imapreduce import select_executor
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


def split_inputs(job, inputs, statics, num_pairs, warm=None, executor=None):
    """``(state_parts, static_parts)`` as ``execute`` splits them: by the
    executor the run selects (or ``executor``), with the job's bound
    partitioner — what a hand-built ``WorkerConfig`` takes."""
    executor = executor or select_executor(job)[0]
    return executor.split_inputs(job, inputs, statics, num_pairs,
                                 bind_partitioner(job.partitioner, num_pairs), warm)


def undeclared(job):
    """``job`` with no phase declaring a fold: its record-executor twin,
    the differential reference a declared job is held to."""
    return dataclasses.replace(
        job, phases=[dataclasses.replace(phase, fold=None) for phase in job.phases])


class RecordOnly:
    """Routes like ``inner`` but offers no ``bind_array``: a synchronous
    job that uses it stays on the record executor, an accumulative one
    is refused (module level, so it pickles)."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, key, num_partitions):
        return self.inner(key, num_partitions)

    def bind(self, num_partitions):
        return bind_partitioner(self.inner, num_partitions)
