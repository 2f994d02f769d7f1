"""The algorithm library's building blocks, pinned.

Every shipped algorithm is assembled from the same few mechanisms: a
``JobConf`` of ``mapred.*`` parameters (§3.5), a kernel ``prepare``
that turns the resident static table into CSR columns (§3.2), the
accumulative kernels' gather of the applied rows' edges, and the Hadoop
baseline's chain of one job per iteration plus a check job.  A change
to *where* those mechanisms live must not move what they build.  Each
case below hashes what one builder or kernel returns; a digest that
moves means a job, a column or an emission changed.

Pinned per case:

* every ``build_imr_job`` / ``build_accum_job`` and its options — the
  job name, the conf items in insertion order, each phase's static
  path, mapping, combiner presence and declared fold, if any (and the
  distance function, aux phase, kernel and partitioner) and each
  ``build_accum_job``'s fold;
* the six graph kernels' ``prepare`` output on a seeded graph whose
  table lacks one owned key and holds one zero-degree node;
* the three accumulative kernels' ``emit_deltas`` for a seeded ``idx``,
  an empty one and one of zero-degree rows, values and dtypes;
* the sssp/pagerank baselines' jobs 0-2 and their check jobs, plus the
  check reducer's distance on a few value pairs.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import components, jacobi, kmeans, matrixpower, pagerank, sssp
from repro.graph.generators import pagerank_graph, sssp_graph
from repro.mapreduce.api import Context

PATHS = {"state_path": "/p/state", "static_path": "/p/static", "output_path": "/p/out"}


def _blob(value):
    """A repr-stable form: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, (tuple, list)):
        return tuple(_blob(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _blob(v)) for k, v in value.items())
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(repr(_blob(value)).encode()).hexdigest()[:16]


# ------------------------------------------------------------- builders --
def _job(job):
    kind = lambda obj: type(obj).__name__ if obj is not None else None  # noqa: E731
    out = [job.name, list(job.conf.items()), kind(job.kernel),
           kind(job.partitioner), job.num_pairs]
    if hasattr(job, "phases"):
        out += [[(p.name, p.static_path, p.mapping, p.combiner is not None)
                 + ((p.fold,) if p.fold else ()) for p in job.phases],
                job.distance_fn is not None, kind(job.aux)]
    else:
        out.append(job.fold)
    return out


#: A job must be able to stop: the cases run 4 iterations (pagerank's
#: accumulative job 50 rounds) unless they set the cap themselves.
BUILDERS = {
    "sssp": lambda **o: sssp.build_imr_job(**PATHS, **{"max_iterations": 4, **o}),
    "pagerank": lambda **o: pagerank.build_imr_job(
        10, **PATHS, **{"max_iterations": 4, **o}),
    "components": lambda **o: components.build_imr_job(**PATHS, **o),
    "kmeans": lambda **o: kmeans.build_imr_job(**PATHS, **{"max_iterations": 4, **o}),
    "jacobi": lambda **o: jacobi.build_imr_job(**PATHS, **{"max_iterations": 4, **o}),
    "matrixpower": lambda **o: matrixpower.build_imr_job(**PATHS, **o),
    "sssp-accum": lambda **o: sssp.build_accum_job(**PATHS, **o),
    "pagerank-accum": lambda **o: pagerank.build_accum_job(
        **PATHS, **{"max_rounds": 50, **o}),
    "components-accum": lambda **o: components.build_accum_job(**PATHS, **o),
}

_GRAPH_OPTIONS = {
    "bare": {},
    "capped": {"max_iterations": 5, "num_pairs": 3},
    "sync": {"sync": True},
    "combiner": {"combiner": True},
    "threshold": {"threshold": 0.01, "max_iterations": None},
    "zero-threshold": {"threshold": 0.0},
    "checkpoint": {"checkpoint_interval": 2},
    "buffer": {"buffer_records": 64},
    "kernel": {"use_kernel": True},
    "everything": {"max_iterations": 7, "threshold": 0.5, "num_pairs": 2,
                   "sync": True, "combiner": True, "checkpoint_interval": 3,
                   "buffer_records": 16, "use_kernel": True},
}
_ACCUM_OPTIONS = {
    "bare": {},
    "rounds": {"max_rounds": 9, "num_pairs": 4},
    "top-fraction": {"top_fraction": 0.5},
    "kernel": {"use_kernel": True},
}

#: case -> (builder, options)
CASES = {
    **{f"sssp-{n}": ("sssp", o) for n, o in _GRAPH_OPTIONS.items()},
    **{f"pagerank-{n}": ("pagerank", o) for n, o in _GRAPH_OPTIONS.items()},
    "pagerank-damping": ("pagerank", {"damping": 0.85}),
    "components-bare": ("components", {}),
    "components-no-converge": ("components", {"converge": False, "max_iterations": 4}),
    "components-kernel": ("components", {"use_kernel": True, "num_pairs": 2}),
    "kmeans-bare": ("kmeans", {}),
    "kmeans-capped": ("kmeans", {"max_iterations": 5, "num_pairs": 2}),
    "kmeans-threshold": ("kmeans", {"threshold": 0.1, "max_iterations": None}),
    "kmeans-combiner": ("kmeans", {"combiner": True}),
    "kmeans-checkpoint": ("kmeans", {"checkpoint_interval": 2}),
    "kmeans-membership-aux": ("kmeans", {
        "track_membership": True, "aux": kmeans.make_convergence_aux(40)}),
    "kmeans-kernel": ("kmeans", {"use_kernel": True, "num_artists": 6}),
    "jacobi-bare": ("jacobi", {}),
    "jacobi-threshold": ("jacobi", {"max_iterations": None, "threshold": 1e-6}),
    "jacobi-kernel": ("jacobi", {"use_kernel": True, "num_pairs": 2}),
    "matrixpower-bare": ("matrixpower", {"max_iterations": 3}),
    "matrixpower-checkpoint": ("matrixpower", {"max_iterations": 3, "num_pairs": 2,
                                               "checkpoint_interval": 1}),
    **{f"sssp-accum-{n}": ("sssp-accum", o) for n, o in _ACCUM_OPTIONS.items()},
    "sssp-accum-threshold": ("sssp-accum", {"threshold": 0.5}),
    **{f"pagerank-accum-{n}": ("pagerank-accum", o) for n, o in _ACCUM_OPTIONS.items()},
    "pagerank-accum-threshold": ("pagerank-accum", {
        "threshold": 1e-9, "max_rounds": None, "damping": 0.7}),
    **{f"components-accum-{n}": ("components-accum", o) for n, o in _ACCUM_OPTIONS.items()},
}


# -------------------------------------------------------------- kernels --
N = 14
ABSENT, ISOLATED = 5, 9


def _table(records):
    """The static table a pair would hold: one owned key has no record,
    one has an empty adjacency."""
    table = dict(records)
    del table[ABSENT]
    table[ISOLATED] = ()
    return table


WEIGHTED = _table(sssp.static_records(sssp_graph(N, seed=3)))
UNWEIGHTED = _table(pagerank.static_records(pagerank_graph(N, seed=4)))
SYMMETRIC = _table(components.static_records(pagerank_graph(N, seed=5)))
OWNED = np.arange(N, dtype=np.int64)

#: name -> (kernel, static table)
KERNELS = {
    "sssp": (sssp.SsspKernel(), WEIGHTED),
    "sssp-accum": (sssp.SsspAccumKernel(), WEIGHTED),
    "pagerank": (pagerank.PageRankKernel(N, 0.8), UNWEIGHTED),
    "pagerank-accum": (pagerank.PageRankAccumKernel(0.8), UNWEIGHTED),
    "components": (components.ComponentsKernel(), SYMMETRIC),
    "components-accum": (components.ComponentsAccumKernel(), SYMMETRIC),
}
ACCUM = ("sssp-accum", "pagerank-accum", "components-accum")
IDX = {
    "seeded": np.random.default_rng(11).permutation(N)[:8],
    "empty": np.empty(0, dtype=np.int64),
    "zero-degree": np.array([ISOLATED, ABSENT], dtype=np.int64),
}


def _emit(name, which):
    kernel, table = KERNELS[name]
    prepared = kernel.prepare(0, OWNED, table)
    idx = IDX[which]
    rng = np.random.default_rng(idx.size)
    if kernel.state_dtype == "int64":
        deltas = rng.integers(0, N, size=idx.size).astype(np.int64)
        states = np.minimum(deltas, idx)
    else:
        deltas = rng.random(idx.size)
        states = deltas + rng.random(idx.size)
    return kernel.emit_deltas(0, OWNED, idx, deltas, states, prepared)


# ------------------------------------------------------------ baselines --
BASELINES = {
    "sssp": lambda **o: sssp.build_mr_spec(output_prefix="/mr/s", **o),
    "pagerank": lambda **o: pagerank.build_mr_spec(N, output_prefix="/mr/p", **o),
}
_BASELINE_OPTIONS = {
    "bare": {"max_iterations": 3},
    "threshold": {"max_iterations": 3, "threshold": 0.25, "num_reduces": 3},
    "combiner": {"max_iterations": 4, "combiner": True, "num_reduces": 2},
}
#: (prev, curr) value pairs the check reducer measures.
_DIFFS = ((np.inf, np.inf), (np.inf, 3.0), (2.0, 0.5), (0.125, 0.375))


def _mr_job(job):
    return [job.name, list(job.input_paths), job.output_path, job.num_reduces,
            type(job.partitioner).__name__, job.combiner is not None,
            list(job.side_inputs)]


def _baseline(name, options):
    spec = BASELINES[name](**options)
    out = [spec.name, spec.max_iterations, spec.threshold, spec.distance_counter,
           spec.cleanup_intermediate]
    for i in range(3):
        out.append(_mr_job(spec.job_factory(i, [f"/in/{i}"])))
        if spec.convergence_factory is None:
            out.append(None)
            continue
        check = spec.convergence_factory(i, [f"/prev/{i}"], [f"/curr/{i}"])
        measured = []
        for key, (prev, curr) in enumerate(_DIFFS):
            ctx = Context()
            check.reducer.reduce(key, [prev, curr], ctx)
            measured.append(sorted(ctx.counters.items()))
        out.append(_mr_job(check) + [measured])
    return out


#: Computed before the mechanisms moved to one home each.
PINS = {
    "baseline/pagerank/bare": "6944d9af841a0c59",
    "baseline/pagerank/combiner": "25d21a565d80ebe1",
    "baseline/pagerank/threshold": "9cd299d21e598550",
    "baseline/sssp/bare": "4389dd7dbfd5c790",
    "baseline/sssp/combiner": "47ca85bc886f32cf",
    "baseline/sssp/threshold": "e4a8731cf3b7e657",
    "build/components-accum-bare": "695b9efcdbb4bc73",
    "build/components-accum-kernel": "561d6049d9f46c56",
    "build/components-accum-rounds": "1e314cc85b6b28f6",
    "build/components-accum-top-fraction": "ed8a31d0990005c2",
    "build/components-bare": "f3a028c5b7aeb26f",
    "build/components-kernel": "d5de420af2e18573",
    "build/components-no-converge": "1439e1ba188a2e01",
    "build/jacobi-bare": "7efb7e0ac27225ca",
    "build/jacobi-kernel": "17750ec0cb7b12fc",
    "build/jacobi-threshold": "ce5a98505537e42a",
    "build/kmeans-bare": "84d6e909645cc84d",
    "build/kmeans-capped": "87a8a357cb6f9c8c",
    "build/kmeans-checkpoint": "95fe304083d4a640",
    "build/kmeans-combiner": "eb0fcb9baaafb25b",
    "build/kmeans-kernel": "5a89d9f839788318",
    "build/kmeans-membership-aux": "87d4b967c4af8760",
    "build/kmeans-threshold": "420200433370d620",
    "build/matrixpower-bare": "2ec55bb4ed5f1a11",
    "build/matrixpower-checkpoint": "a0a3f733ccaacc8d",
    "build/pagerank-accum-bare": "3f0f5fb74f330096",
    "build/pagerank-accum-kernel": "398b84a44d3f6398",
    "build/pagerank-accum-rounds": "7780f5c8073be592",
    "build/pagerank-accum-threshold": "ecb7cae8e047f84a",
    "build/pagerank-accum-top-fraction": "d716de0b659751b4",
    "build/pagerank-bare": "557c2477bd41cdbe",
    "build/pagerank-buffer": "df636c38f696a4a8",
    "build/pagerank-capped": "33b657120b16c723",
    "build/pagerank-checkpoint": "1373b30f5bdeb523",
    "build/pagerank-combiner": "63a2af679dde3039",
    "build/pagerank-damping": "557c2477bd41cdbe",
    "build/pagerank-everything": "67a4f72e4a1cc653",
    "build/pagerank-kernel": "57196eaf9d3e1dc2",
    "build/pagerank-sync": "c1544d6e82f7d871",
    "build/pagerank-threshold": "4dfd9acb5e884d29",
    "build/pagerank-zero-threshold": "717a2a8804dbbdfc",
    "build/sssp-accum-bare": "1ca2aa860132597b",
    "build/sssp-accum-kernel": "44d34a1a2a7df14d",
    "build/sssp-accum-rounds": "d049c5b501b84d13",
    "build/sssp-accum-threshold": "cddc09b5cb8e2fb5",
    "build/sssp-accum-top-fraction": "7811fcbcc471f786",
    "build/sssp-bare": "6bb839119b298234",
    "build/sssp-buffer": "8ec108dbb347a769",
    "build/sssp-capped": "b72fff831721ce1e",
    "build/sssp-checkpoint": "fbf5dea9a2f0ed4e",
    "build/sssp-combiner": "db1976c1a444500c",
    "build/sssp-everything": "246b2e538a269f7d",
    "build/sssp-kernel": "5ebd3d5be3b113ff",
    "build/sssp-sync": "4f56ef4ea4e3ba15",
    "build/sssp-threshold": "f8a79d8158ac3c79",
    "build/sssp-zero-threshold": "53bd687749718324",
    "emit/components-accum/empty": "ef6094fb870fca38",
    "emit/components-accum/seeded": "98b80233bdd6946f",
    "emit/components-accum/zero-degree": "ef6094fb870fca38",
    "emit/pagerank-accum/empty": "148cf8c81a76fa18",
    "emit/pagerank-accum/seeded": "1f976f72185ee462",
    "emit/pagerank-accum/zero-degree": "148cf8c81a76fa18",
    "emit/sssp-accum/empty": "148cf8c81a76fa18",
    "emit/sssp-accum/seeded": "8d5063b0a63ede40",
    "emit/sssp-accum/zero-degree": "148cf8c81a76fa18",
    "prepare/components": "6c6e93ec937f1531",
    "prepare/components-accum": "ce9c1c4def573c5c",
    "prepare/pagerank": "eb1f6ed60afe2ad4",
    "prepare/pagerank-accum": "21c8b7eeb2a1a807",
    "prepare/sssp": "28cbaa769f441af2",
    "prepare/sssp-accum": "cc86a2ec13ab5ede",
}


def _cases():
    for case, (builder, options) in CASES.items():
        yield f"build/{case}", lambda b=builder, o=options: _job(BUILDERS[b](**o))
    for name, (kernel, table) in KERNELS.items():
        yield f"prepare/{name}", lambda k=kernel, t=table: k.prepare(0, OWNED, t)
    for name in ACCUM:
        for which in IDX:
            yield f"emit/{name}/{which}", lambda n=name, w=which: _emit(n, w)
    for name in BASELINES:
        for variant, options in _BASELINE_OPTIONS.items():
            yield f"baseline/{name}/{variant}", lambda n=name, o=options: _baseline(n, o)


ALL = dict(_cases())


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(ALL)


@pytest.mark.parametrize("case", sorted(ALL))
def test_pinned(case):
    assert digest(ALL[case]()) == PINS.get(case), case
