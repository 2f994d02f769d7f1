"""The figure runner's output, pinned per :class:`RunSpec`.

Every figure, ``repro report`` and the simulated ``repro run`` cell read
:func:`repro.experiments.execute`.  Virtual time depends on what the
runner builds and where it puts it: the jobs, their options, the
records, and the DFS paths (block placement is offset by the path's
hash).  A change to how the runner builds a run — not to what the
engines charge — must leave every :class:`RunMetrics` field where it
was.  Each case below hashes them all; a digest that moves means a
figure moved.

The cases cover each algorithm on both engines and every ``RunSpec``
field: ``sync``, ``combiner``, ``partitions``, ``measure_distance``,
``convergence_detection``, ``seed`` and the ``local``, ``single`` and
``ec2-<n>`` clusters.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments import RunSpec, execute

#: name -> the spec whose metrics are pinned.
CASES = {
    "sssp-imr": RunSpec("sssp", "dblp", "imapreduce", "local", 2),
    "sssp-mr": RunSpec("sssp", "dblp", "mapreduce", "local", 2),
    "sssp-imr-combiner-single": RunSpec(
        "sssp", "dblp", "imapreduce", "single", 2, combiner=True, partitions=1),
    "pagerank-imr-distance": RunSpec(
        "pagerank", "pagerank-s", "imapreduce", "local", 2, measure_distance=True),
    "pagerank-mr-distance": RunSpec(
        "pagerank", "pagerank-s", "mapreduce", "local", 2, measure_distance=True),
    "pagerank-imr-sync": RunSpec(
        "pagerank", "pagerank-s", "imapreduce", "local", 2, sync=True),
    "pagerank-mr-ec2-seed": RunSpec(
        "pagerank", "pagerank-s", "mapreduce", "ec2-7", 2, partitions=5, seed=3),
    "kmeans-imr": RunSpec("kmeans", "lastfm", "imapreduce", "local", 2),
    "kmeans-mr-combiner": RunSpec(
        "kmeans", "lastfm", "mapreduce", "local", 2, combiner=True),
    "kmeans-imr-detect-seed": RunSpec(
        "kmeans", "lastfm", "imapreduce", "local", 3,
        convergence_detection=True, seed=5),
    "kmeans-mr-detect": RunSpec(
        "kmeans", "lastfm", "mapreduce", "local", 3, convergence_detection=True),
    "matrixpower-imr-seed": RunSpec(
        "matrixpower", "matrix8", "imapreduce", "local", 2, seed=2),
    "matrixpower-mr": RunSpec("matrixpower", "matrix8", "mapreduce", "ec2-7", 2),
}


def digest(metrics) -> str:
    """sha256 of every RunMetrics field and every iteration's fields."""
    blob = (
        metrics.label, metrics.start, metrics.end, metrics.setup_time,
        metrics.teardown_time, metrics.network_bytes,
        sorted(metrics.extras.items()),
        [dataclasses.astuple(it) for it in metrics.iterations],
    )
    return hashlib.sha256(repr(blob).encode()).hexdigest()


#: Computed before the figure runner built its runs through the
#: workload table.
PINS = {
    "kmeans-imr": "fa5c4b9a743f2a81b3f0ce6fc68606f571e01e0e136918274f4dd9d792afcfb2",
    "kmeans-imr-detect-seed": "02d8782796eac17a9bec1d5fc43b61bf3fd4676333a350ad2f270ae4eb2ab795",
    "kmeans-mr-combiner": "30f02732e97e30ded420919de1da667f64e16b349e823be71fbb231a8958e4a6",
    "kmeans-mr-detect": "29462c4b9b7111a5740a3208d1df98c5bc5829664deeb1814aa35087ac139e20",
    "matrixpower-imr-seed": "ebc7fde43193cdd723f4f0410068b9c3b08ff79f90b791343efb1f169225573c",
    "matrixpower-mr": "3c7d71e910af17a3c5073fe8fbfca4c6e7741248bdc8fc42279e8eb93f78e31d",
    "pagerank-imr-distance": "2aefab4ff41863a7009b286071423d1504cee7638a7be4b0f1dbb249f7331ce4",
    "pagerank-imr-sync": "b54397e373cd4b9a84f2848e743f43699c296a63f83bf5092318df3beaee86f0",
    "pagerank-mr-distance": "b7e456bff8504a6cf115fe1ce8350b4278b62a73a87f96a8d8e692f75dd494b1",
    "pagerank-mr-ec2-seed": "ca2b9d6475d5004f426edbed7821e3c413c4f7e017a9a43e2a436ff7382a5961",
    "sssp-imr": "2f2caeffe1db2158d68885d076008ebe212b8d36135604cfa1a99227adf85b1a",
    "sssp-imr-combiner-single": "3f922e84d9c72d9f15386fe13845d13ce552fa2c8dbf4bff7c6de4006e9b16ad",
    "sssp-mr": "c793910ed8021e1a2a4109fddd9bcd70655fc9fd75f94511c153b2638d25672d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_runspec_is_pinned(name):
    assert digest(execute(CASES[name])) == PINS[name], name
