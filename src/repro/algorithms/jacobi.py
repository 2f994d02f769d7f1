"""Jacobi iteration for linear systems (paper §5.1).

The paper names Jacobi — x⁽ᵏ⁺¹⁾ = D⁻¹(b − R·x⁽ᵏ⁾) — as the archetypal
algorithm needing the one-to-all mapping: "each reducer calculates a part
of the iterated vector, and all mappers need the intact vector x".

Record formats:

* static: ``(i, (d_ii, b_i, ((j, a_ij), …)))`` — row *i*'s diagonal,
  right-hand side, and off-diagonal entries;
* state:  ``(i, x_i)`` — broadcast from every reduce to every map.

The map computes row *i*'s update from the full broadcast vector; the
reduce is the identity (one value per key).  Termination uses the
Manhattan distance between iterates, as in the paper's §3.1.2.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..common.config import iter_conf
from ..common.partition import ModPartitioner
from ..imapreduce import IterativeJob, Kernel

__all__ = [
    "make_system",
    "system_to_static_records",
    "initial_state",
    "imr_map",
    "imr_reduce",
    "manhattan_distance",
    "JacobiKernel",
    "build_imr_job",
    "reference_iterations",
    "reference_solution",
]


# ----------------------------------------------------------------- data --
def make_system(
    n: int, density: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A random strictly diagonally dominant system (Jacobi converges)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    dominance = np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    a[np.arange(n), np.arange(n)] = dominance * signs
    b = rng.uniform(-1.0, 1.0, size=n)
    return a, b


def system_to_static_records(a: np.ndarray, b: np.ndarray) -> list[tuple[int, tuple]]:
    n = len(b)
    records = []
    for i in range(n):
        off_diag = tuple(
            (j, float(a[i, j])) for j in range(n) if j != i and a[i, j] != 0.0
        )
        records.append((i, (float(a[i, i]), float(b[i]), off_diag)))
    return records


def initial_state(n: int) -> list[tuple[int, float]]:
    return [(i, 0.0) for i in range(n)]


# ---------------------------------------------------------- iMapReduce --
def imr_map(i: int, x_broadcast: list, row: tuple, ctx) -> None:
    """Row i's update needs the intact vector x (one-to-all, §5.1)."""
    d_ii, b_i, off_diag = row
    x = dict(x_broadcast)
    acc = b_i
    for j, a_ij in off_diag:
        acc -= a_ij * x[j]
    ctx.emit(i, acc / d_ii)


def imr_reduce(i: int, values: list, ctx) -> None:
    ctx.emit(i, values[0])


def manhattan_distance(key: Any, prev: float | None, curr: float) -> float:
    return abs((prev or 0.0) - curr)


class JacobiKernel(Kernel):
    """Vectorized Jacobi sweep.

    The record map rebuilds ``dict(x_broadcast)`` for *every row* —
    O(n²) dict work per iteration, the dominant record-path cost.  Here
    the broadcast positions of each row's off-diagonal columns are
    resolved once (the key universe never changes) and each sweep is a
    gather + ``np.subtract.at`` segment fold.  Each key receives exactly
    one contribution, so the ``sum`` merge never actually adds floats;
    the map arithmetic itself is reassociated, hence tolerance oracle.
    """

    __slots__ = ()

    merge = "sum"
    needs_broadcast = True

    def prepare(self, pair, owned_keys, static_table):
        rows = [static_table[k] for k in owned_keys.tolist()]
        d = np.array([r[0] for r in rows], dtype=np.float64)
        b = np.array([r[1] for r in rows], dtype=np.float64)
        counts = np.array([len(r[2]) for r in rows], dtype=np.int64)
        total = int(counts.sum())
        cols = np.fromiter(
            (ja[0] for r in rows for ja in r[2]), dtype=np.int64, count=total
        )
        avals = np.fromiter(
            (ja[1] for r in rows for ja in r[2]), dtype=np.float64, count=total
        )
        row_local = np.repeat(np.arange(owned_keys.size), counts)
        # ``col_pos`` (cols resolved against the broadcast key array) is
        # filled lazily on the first sweep — the broadcast keys are the
        # job's fixed key universe, so the positions never change.
        return {"d": d, "b": b, "cols": cols, "avals": avals,
                "row_local": row_local, "col_pos": None}

    def map_kernel(self, pair, keys, values, prepared, broadcast):
        bkeys, bvals = broadcast
        if prepared["col_pos"] is None:
            prepared["col_pos"] = np.searchsorted(bkeys, prepared["cols"])
        acc = prepared["b"].copy()
        contrib = prepared["avals"] * bvals[prepared["col_pos"]]
        np.subtract.at(acc, prepared["row_local"], contrib)
        return keys, acc / prepared["d"]

    def distance_partial(self, keys, prev, curr):
        return float(np.abs(prev - curr).sum())


def build_imr_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int | None = None,
    threshold: float | None = None,
    num_pairs: int | None = None,
    use_kernel: bool = False,
) -> IterativeJob:
    conf = iter_conf(
        state_path=state_path, static_path=static_path,
        mapping="one2all",  # §5.1: mappers need all of x
        max_iterations=max_iterations, threshold=threshold,
    )
    return IterativeJob.single_phase(
        "jacobi",
        imr_map,
        imr_reduce,
        conf=conf,
        output_path=output_path,
        distance_fn=manhattan_distance if threshold is not None else None,
        partitioner=ModPartitioner(),
        num_pairs=num_pairs,
        kernel=JacobiKernel() if use_kernel else None,
    )


# ------------------------------------------------------------ references --
def reference_iterations(
    a: np.ndarray, b: np.ndarray, iterations: int
) -> np.ndarray:
    """Exactly ``iterations`` Jacobi sweeps (numpy)."""
    d = np.diag(a)
    r = a - np.diag(d)
    x = np.zeros(len(b))
    for _ in range(iterations):
        x = (b - r @ x) / d
    return x


def reference_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact solution via numpy's solver."""
    return np.linalg.solve(a, b)
