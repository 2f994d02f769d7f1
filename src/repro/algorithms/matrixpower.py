"""Matrix power computation Mᵏ (paper §5.2).

Each iteration multiplies the static matrix M into the iterated state
N (initially N = M), using the classic two-phase MapReduce matrix
multiplication the paper describes:

* **Phase 1** — map over N's elements ``((j, k), n_jk)`` emitting
  ``(j, (k, n_jk))``; reduce collects row *j* of N.  No static join.
* **Phase 2** — the static data is M *by column*: record
  ``(j, ((i, m_ij), …))``.  The map joins column *j* of M with row *j*
  of N and emits all products ``((i, k), m_ij · n_jk)``; reduce sums
  them into the product's element ``(i, k)``.

Phase 2's reduce output keys ``(i, k)`` feed phase 1 of the next
iteration through the persistent pair channels: the pair that reduced
key ``(i, k)`` is the pair whose map handles it next, so the one-to-one
contract holds (§5.2.2).
"""

from __future__ import annotations

import numpy as np

from ..common.config import IterKeys, JobConf, stable_seed
from ..imapreduce import IterativeJob, Phase
from ..mapreduce import Job
from ..mapreduce.driver import IterativeSpec

__all__ = [
    "dataset_matrix",
    "matrix_to_state_records",
    "matrix_to_column_records",
    "records_to_matrix",
    "build_imr_job",
    "build_mr_spec",
    "reference_power",
]


# ----------------------------------------------------------------- data --
def dataset_matrix(dataset: str, seed: int = 0) -> np.ndarray:
    """The synthetic ``matrix<N>`` dataset: a seeded uniform N×N matrix
    (seed 0 keeps the historical fixed draw)."""
    size = int(dataset.removeprefix("matrix"))
    rng = np.random.default_rng(stable_seed(seed, "matrix") if seed else 99)
    return rng.uniform(-0.5, 0.5, size=(size, size))


def matrix_to_state_records(matrix: np.ndarray) -> list[tuple[tuple[int, int], float]]:
    """N as element records ``((row, col), value)`` (zeros included, so
    every key persists across iterations)."""
    n, m = matrix.shape
    return [((i, j), float(matrix[i, j])) for i in range(n) for j in range(m)]


def matrix_to_column_records(matrix: np.ndarray) -> list[tuple[int, tuple]]:
    """M by column: ``(j, ((i, m_ij), …))`` — phase 2's static data."""
    n, m = matrix.shape
    return [
        (j, tuple((i, float(matrix[i, j])) for i in range(n))) for j in range(m)
    ]


def records_to_matrix(records, shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape)
    for (i, j), value in records:
        out[i, j] = value
    return out


# ---------------------------------------------------------- iMapReduce --
def phase1_map(key: tuple, value: float, static, ctx) -> None:
    j, k = key
    ctx.emit(j, (k, value))


def phase1_reduce(j: int, values: list, ctx) -> None:
    ctx.emit(j, tuple(sorted(values)))


def phase2_map(j: int, row_of_n: tuple, column_of_m: tuple | None, ctx) -> None:
    if not column_of_m:
        return
    for i, m_ij in column_of_m:
        for k, n_jk in row_of_n:
            ctx.emit((i, k), m_ij * n_jk)


def phase2_reduce(key: tuple, values: list, ctx) -> None:
    ctx.emit(key, sum(values))


def build_imr_job(
    *,
    state_path: str,
    static_path: str,
    output_path: str,
    max_iterations: int,
    num_pairs: int | None = None,
    checkpoint_interval: int | None = None,
) -> IterativeJob:
    conf = JobConf()
    conf.set(IterKeys.STATE_PATH, state_path)
    conf.set_int(IterKeys.MAX_ITER, max_iterations)
    if checkpoint_interval is not None:
        conf.set_int(IterKeys.CHECKPOINT_INTERVAL, checkpoint_interval)
    phases = [
        Phase(map_fn=phase1_map, reduce_fn=phase1_reduce, name="rows"),
        Phase(
            map_fn=phase2_map,
            reduce_fn=phase2_reduce,
            static_path=static_path,
            name="multiply",
        ),
    ]
    return IterativeJob(
        name="matrixpower",
        phases=phases,
        output_path=output_path,
        conf=conf,
        num_pairs=num_pairs,
    )


# ------------------------------------------------------------ MapReduce --
def matrix_to_mr_records(
    matrix: np.ndarray, tag: str
) -> list[tuple[tuple[int, int], tuple]]:
    """Baseline input format: ``((i, j), (tag, value))`` with tag "M"/"N"."""
    n, m = matrix.shape
    return [((i, j), (tag, float(matrix[i, j]))) for i in range(n) for j in range(m)]


def mr_records_to_matrix(records, shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape)
    for (i, j), (_tag, value) in records:
        out[i, j] = value
    return out


def _mr_phase1_map(key, value, ctx):
    # §5.2.1 Map 1: extract M's columns and N's rows onto key j.
    r, c = key
    tag, v = value
    if tag == "M":
        ctx.emit(c, ("M", r, v))
    else:
        ctx.emit(r, ("N", c, v))


def _mr_phase1_reduce(j, values, ctx):
    # §5.2.1 Reduce 1: join column j of M with row j of N.
    ctx.emit(j, tuple(sorted(values)))


def _mr_phase2_map(j, joined, ctx):
    # §5.2.1 Map 2: all pairwise products.
    ms = [(i, v) for tag, i, v in joined if tag == "M"]
    ns = [(k, v) for tag, k, v in joined if tag == "N"]
    for i, m_ij in ms:
        for k, n_jk in ns:
            ctx.emit((i, k), m_ij * n_jk)


def _mr_phase2_reduce(key, values, ctx):
    # §5.2.1 Reduce 2: sum into p_ik; re-tag as N for the next iteration.
    ctx.emit(key, ("N", sum(values)))


def build_mr_spec(
    *,
    m_path: str,
    output_prefix: str,
    max_iterations: int,
    num_reduces: int = 4,
) -> IterativeSpec:
    """Baseline: TWO chained MapReduce jobs per logical iteration
    (§5.2.1), with M re-read and re-shuffled from the DFS every time.
    The driver's step counter advances twice per multiplication."""

    def job_factory(step: int, input_paths: list[str]) -> Job:
        iteration, phase = divmod(step, 2)
        if phase == 0:
            return Job(
                name=f"mpower-{iteration}-join",
                mapper=_mr_phase1_map,
                reducer=_mr_phase1_reduce,
                input_paths=[m_path] + list(input_paths),
                output_path=f"{output_prefix}/join{iteration}",
                num_reduces=num_reduces,
            )
        return Job(
            name=f"mpower-{iteration}-multiply",
            mapper=_mr_phase2_map,
            reducer=_mr_phase2_reduce,
            input_paths=input_paths,
            output_path=f"{output_prefix}/mult{iteration}",
            num_reduces=num_reduces,
        )

    return IterativeSpec(
        name="matrixpower",
        job_factory=job_factory,
        max_iterations=max_iterations * 2,  # two jobs per logical iteration
    )


# ------------------------------------------------------------ references --
def reference_power(matrix: np.ndarray, power: int) -> np.ndarray:
    return np.linalg.matrix_power(matrix, power)
