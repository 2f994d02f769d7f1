"""Hygiene every test is held to — the engine's, the CLI's and the
chaos harness's alike: a run that spawned a mesh has reaped its workers
and removed the checkpoint spool it made by the time the test ends (the
leak scan ``benchmarks/e2e`` runs per op, per test)."""

import os
import tempfile
import time

import pytest

from tests.imapreduce.support import mesh_leftovers

#: How long a test's mesh workers may take to exit after it returns.
JOIN_S = 5.0


def _spools() -> set[str]:
    return {name for name in os.listdir(tempfile.gettempdir())
            if name.startswith("imr-spool-")}


@pytest.fixture(autouse=True)
def no_mesh_leftovers():
    """After each test: no ``imr-worker*`` child alive once joined for at
    most :data:`JOIN_S`, and no ``imr-spool-*`` directory under the temp
    dir that was not there before."""
    before = _spools()
    yield
    deadline = time.monotonic() + JOIN_S
    workers, _fds = mesh_leftovers()
    for proc in workers:
        proc.join(max(0.0, deadline - time.monotonic()))
    alive = [proc.name for proc in workers if proc.is_alive()]
    assert not alive, f"mesh workers still alive after the test: {alive}"
    leaked = sorted(_spools() - before)
    assert not leaked, f"spool directories left in {tempfile.gettempdir()}: {leaked}"
