"""Algorithm library: each workload with iMapReduce, Hadoop-baseline and
reference implementations, plus input-preparation helpers."""

from . import components, inputs, jacobi, kmeans, matrixpower, pagerank, sssp
from .inputs import prepare_pagerank_inputs, prepare_sssp_inputs
from .workloads import WORKLOADS, Workload, build_workload

__all__ = [
    "components",
    "inputs",
    "jacobi",
    "kmeans",
    "matrixpower",
    "pagerank",
    "sssp",
    "prepare_pagerank_inputs",
    "prepare_sssp_inputs",
    "WORKLOADS",
    "Workload",
    "build_workload",
]
