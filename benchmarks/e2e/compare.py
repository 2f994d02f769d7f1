"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base, B the candidate.  One row per (end-to-end metric, workload),
every ratio printed with its base, and a verdict:

* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the metric's bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the quartile spread of either side exceeds the bound
  and the two sides' samples overlap, so the runs cannot tell (when they
  do not overlap the side that wins every sample is believed).

Exit status is non-zero on any regression or a higher ``failed_share``.
Two sets of the same commit should come out with no ``regressed`` row:
that is the benchmark's own acceptance check.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import registry  # noqa: E402


def verdict(base: dict, cand: dict, better: str, bound: float) -> str:
    """``base``/``cand`` are ``summarize`` dicts (median, q1, q3, samples)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (cand["median"] - base["median"]) / base["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, cand))
    if spread > bound:
        a = [sign * v for v in base["samples"]]
        b = [sign * v for v in cand["samples"]]
        if max(b) < min(a):
            return "improved"
        if min(b) > max(a):
            return "regressed"
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, cand: dict) -> tuple[list[dict], bool]:
    """Rows for every (metric, workload) both files hold, and whether
    anything regressed."""
    rows, bad = [], False
    for name, a in base["workloads"].items():
        b = cand["workloads"].get(name)
        if b is None:
            continue
        for metric in registry.END_TO_END:
            sa, sb = a["end_to_end"].get(metric.name), b["end_to_end"].get(metric.name)
            if sa is None or sb is None:
                continue
            if metric.name == "failed_share":
                what = "regressed" if sb["value"] > sa["value"] else "unchanged"
                rows.append({"workload": name, "metric": metric.name, "verdict": what,
                             "base": sa["value"], "cand": sb["value"], "ratio": None})
            else:
                what = verdict(sa, sb, metric.better, metric.bound)
                rows.append({"workload": name, "metric": metric.name, "verdict": what,
                             "base": sa["median"], "cand": sb["median"],
                             "ratio": sb["median"] / sa["median"], "bound": metric.bound,
                             "n": (sa["n"], sb["n"])})
            bad = bad or what == "regressed"
        same_seed = base["environment"]["seed"] == cand["environment"]["seed"]
        if same_seed and "counters" in a and "counters" in b:
            rows.append({"workload": name, "metric": "exact counters",
                         "verdict": "identical" if a["counters"] == b["counters"]
                         and a["digest"] == b["digest"] else "differ",
                         "base": None, "cand": None, "ratio": None})
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, cand = json.load(fa), json.load(fb)
    for side, data in (("A", base), ("B", cand)):
        env = data["environment"]
        flags = ["noisy"] if env.get("noisy") else []
        if not data.get("comparable", True):
            flags.append("not comparable (--quick)")
        print(f"{side}: {argv[side == 'B']}  commit {env['git_commit'][:12]}  seed "
              f"{env['seed']}  ops {env['ops']}  {' '.join(flags)}")
    rows, bad = compare(base, cand)
    current = None
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            print(f"\n{current}")
        if row["ratio"] is None:
            detail = "" if row["base"] is None else f"{row['base']:.4g} -> {row['cand']:.4g}"
        else:
            detail = (f"{row['cand']:.4g} / {row['base']:.4g} = {row['ratio']:.3f}  "
                      f"(bound {row['bound']:.0%}, n={row['n'][0]}/{row['n'][1]})")
        print(f"  {row['metric']:<16} {row['verdict']:<11} {detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
