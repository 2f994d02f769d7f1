"""Metrics collected by both engines and consumed by the figure harness."""

from .collector import IterationMetrics, RunMetrics
from .report import format_run
from .trace import TraceEvent, Tracer, check_well_formed

__all__ = [
    "check_well_formed",
    "IterationMetrics",
    "RunMetrics",
    "format_run",
    "TraceEvent",
    "Tracer",
]
