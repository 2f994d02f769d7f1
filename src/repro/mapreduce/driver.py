"""The baseline's iterative driver — the client-side loop the paper's
§1 describes users writing around Hadoop.

Each iteration submits a fresh MapReduce job whose input is the previous
iteration's output; optionally an *additional* convergence-check job runs
after each iteration (the paper: "users have to perform another
MapReduce job after each iteration to measure the difference"), reporting
the inter-iteration distance through a counter.

This accumulation of per-job setup, DFS load/dump and synchronization is
exactly the overhead iMapReduce removes; the driver therefore also keeps
the per-iteration accounting the figures need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from ..common.errors import ConfigError
from ..common.partition import ModPartitioner
from ..metrics import IterationMetrics, RunMetrics
from .job import Job, JobResult
from .runtime import MapReduceRuntime

__all__ = ["IterativeSpec", "IterativeResult", "IterativeDriver", "job_chain"]


@dataclass
class IterativeSpec:
    """Describes an iterative computation as a chain of jobs.

    ``job_factory(iteration, input_paths)`` builds the iteration's job;
    its output paths feed the next iteration.  If ``threshold`` is set,
    ``convergence_factory(iteration, prev_paths, curr_paths)`` must build
    the extra checking job, which reports the distance between the two
    results by incrementing the ``distance_counter`` counter.
    """

    name: str
    job_factory: Callable[[int, list[str]], Job]
    max_iterations: int
    threshold: float | None = None
    convergence_factory: Callable[[int, list[str], list[str]], Job] | None = None
    distance_counter: str = "distance"
    #: Delete intermediate outputs once no longer needed (keeps the
    #: simulated DFS — and host memory — bounded on long chains).
    cleanup_intermediate: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.threshold is not None and self.convergence_factory is None:
            raise ConfigError("a threshold needs a convergence_factory")


def _state_of(key, value, ctx) -> None:
    """Check-job map: a record's iterated value, without the static data
    the baseline carries beside it."""
    ctx.emit(key, value[0] if isinstance(value, tuple) else value)


def _add_distance(distance_fn, key, values: list, ctx) -> None:
    """Check-job reduce: adds the key's distance between the previous
    and the current iteration's value to the ``distance`` counter."""
    ctx.increment("distance", distance_fn(key, values[0], values[-1]))


def job_chain(name: str, mapper, reducer, *, output_prefix: str, max_iterations: int,
              threshold: float | None = None, num_reduces: int = 4, combiner=None,
              distance_fn: Callable[[Any, Any, Any], float] | None = None) -> IterativeSpec:
    """A graph algorithm's Hadoop baseline: job ``{name}-{i}`` reads the
    previous iteration's output and writes ``{output_prefix}/iter{i}``;
    with a ``threshold``, check job ``{name}-check-{i}`` measures
    ``distance_fn`` between the two outputs (``{output_prefix}/check{i}``).
    Every job partitions by key modulo its reduce count."""

    def job_factory(iteration: int, input_paths: list[str]) -> Job:
        return Job(
            name=f"{name}-{iteration}",
            mapper=mapper,
            reducer=reducer,
            combiner=combiner,
            input_paths=input_paths,
            output_path=f"{output_prefix}/iter{iteration}",
            num_reduces=num_reduces,
            partitioner=ModPartitioner(),
        )

    def convergence_factory(iteration, prev_paths, curr_paths) -> Job:
        return Job(
            name=f"{name}-check-{iteration}",
            mapper=_state_of,
            reducer=partial(_add_distance, distance_fn),
            input_paths=list(prev_paths) + list(curr_paths),
            output_path=f"{output_prefix}/check{iteration}",
            num_reduces=num_reduces,
            partitioner=ModPartitioner(),
        )

    return IterativeSpec(
        name=name,
        job_factory=job_factory,
        max_iterations=max_iterations,
        threshold=threshold,
        convergence_factory=convergence_factory if threshold is not None else None,
    )


@dataclass
class IterativeResult:
    """Outcome of an iterative chain run."""

    metrics: RunMetrics
    final_paths: list[str]
    job_results: list[JobResult] = field(default_factory=list)
    converged: bool = False
    iterations_run: int = 0


class IterativeDriver:
    """Runs an :class:`IterativeSpec` as a chain of MapReduce jobs."""

    def __init__(self, runtime: MapReduceRuntime):
        self.runtime = runtime
        self.dfs = runtime.dfs

    def run(self, spec: IterativeSpec, input_paths: Sequence[str]) -> IterativeResult:
        metrics = RunMetrics(label=f"mapreduce:{spec.name}")
        metrics.start = self.runtime.engine.now
        net_start = self.runtime.cluster.network_bytes

        current_paths = list(input_paths)
        previous_paths: list[str] | None = None
        result = IterativeResult(metrics=metrics, final_paths=current_paths)

        for iteration in range(spec.max_iterations):
            iter_start = self.runtime.engine.now
            job = spec.job_factory(iteration, current_paths)
            job_result = self.runtime.submit(job)
            result.job_results.append(job_result)

            init_time = job_result.stats.init_time
            shuffle_bytes = job_result.stats.shuffle_bytes
            net_bytes = job_result.stats.network_bytes
            distance: float | None = None

            new_paths = job_result.output_paths
            if spec.threshold is not None:
                assert spec.convergence_factory is not None
                check = spec.convergence_factory(iteration, current_paths, new_paths)
                check_result = self.runtime.submit(check)
                result.job_results.append(check_result)
                distance = check_result.counter(spec.distance_counter)
                init_time += check_result.stats.init_time
                shuffle_bytes += check_result.stats.shuffle_bytes
                net_bytes += check_result.stats.network_bytes
                if spec.cleanup_intermediate:
                    for path in check_result.output_paths:
                        if self.dfs.exists(path):
                            self.dfs.delete(path)

            metrics.iterations.append(
                IterationMetrics(
                    index=iteration,
                    start=iter_start,
                    end=self.runtime.engine.now,
                    init_time=init_time,
                    shuffle_bytes=shuffle_bytes,
                    network_bytes=net_bytes,
                    map_records=job_result.stats.map_records,
                    reduce_records=job_result.stats.reduce_records,
                    distance=distance,
                )
            )

            # Retire the iteration's inputs (but never the user's data).
            if spec.cleanup_intermediate and previous_paths:
                for path in previous_paths:
                    if self.dfs.exists(path):
                        self.dfs.delete(path)
            previous_paths = [p for p in current_paths if p not in input_paths]
            current_paths = new_paths
            result.iterations_run = iteration + 1

            if distance is not None and distance <= spec.threshold:
                result.converged = True
                break

        if spec.cleanup_intermediate and previous_paths:
            for path in previous_paths:
                if self.dfs.exists(path):
                    self.dfs.delete(path)

        metrics.end = self.runtime.engine.now
        metrics.network_bytes = self.runtime.cluster.network_bytes - net_start
        result.final_paths = current_paths
        return result
