"""Human-readable rendering of run metrics.

``format_run`` produces the per-iteration breakdown table used by the
examples and by ad-hoc analysis.
"""

from __future__ import annotations

from .collector import RunMetrics

__all__ = ["format_run"]


def _mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:8.2f} MB"


def format_run(metrics: RunMetrics) -> str:
    """A per-iteration breakdown table for one run."""
    lines = [
        f"run {metrics.label}: {metrics.total_time:.1f}s total "
        f"({metrics.num_iterations} iterations, setup {metrics.setup_time:.1f}s, "
        f"network {_mb(metrics.network_bytes).strip()})"
    ]
    header = f"  {'iter':>4} {'elapsed':>9} {'init':>7} {'shuffle':>12} {'state':>12} {'distance':>12}"
    lines.append(header)
    for it in metrics.iterations:
        distance = f"{it.distance:.4g}" if it.distance is not None else "-"
        lines.append(
            f"  {it.index + 1:>4} {it.elapsed:>8.2f}s {it.init_time:>6.2f}s "
            f"{_mb(it.shuffle_bytes):>12} {_mb(it.state_bytes):>12} {distance:>12}"
        )
    if metrics.extras.get("migrations"):
        for move in metrics.extras["migrations"]:
            lines.append(
                f"  migration: pair {move['pair']} {move['from']} -> {move['to']}"
            )
    if metrics.extras.get("recoveries"):
        lines.append(f"  recoveries: {metrics.extras['recoveries']}")
    return "\n".join(lines)

