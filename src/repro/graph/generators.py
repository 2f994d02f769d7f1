"""Synthetic graph generators following the paper's recipe (§4.1.2).

The paper generates its synthetic evaluation graphs by fitting log-normal
distributions to real graphs and sampling:

* SSSP graphs — out-degree log-normal (σ=1.0, μ=1.5), link weights
  log-normal (σ=1.2, μ=0.4);
* PageRank graphs — out-degree log-normal (σ=2.0, μ=−0.5), unweighted.

We use the same generative model.  For the real-graph *stand-ins* (DBLP,
Facebook, Google web, Berkeley–Stanford) we keep the paper's σ and solve
μ so the expected mean degree matches the published edge/node ratio —
``mu = ln(mean_degree) - sigma**2 / 2`` for a log-normal.

Targets are sampled uniformly, excluding self-loops, without duplicate
edges per node (simple directed graphs, like the paper's web/social
graphs).  Generation is seeded and fully deterministic.

Which graph a seed means is defined sequentially: after the degrees, the
nodes take their targets in id order from the one generator, each by
:func:`_node_targets` — a saturated node (``deg >= n-1``) draws nothing, a
dense one (``deg > (n-1)//4``) calls ``rng.choice``, and a sparse one
calls ``rng.integers(0, n-1, size=deg)`` and, while that gave fewer than
``deg`` distinct values, again for the shortfall.  Every ``integers`` call
has the same bounds, and numpy's ``Generator.integers`` returns the same
values for ``a + b`` draws at once as for ``a`` then ``b`` (a bounded draw
takes what it needs from the bit generator and buffers nothing outside
``bit_generator.state``).  So sparse nodes read consecutive windows of one
stream of draws: ``deg`` long, or longer by the top-ups of a node that
drew a value twice.

:func:`_sample_targets` reads that stream a chunk at a time instead of a
node at a time.  It draws the windows of a run of sparse nodes in one
call as if none needed a top-up; one sort of ``owner * n + draw`` sorts
every window (what ``np.unique`` did per node) and puts a repeated draw
next to its twin.  No adjacent equals: the chunk is the sequential
sampler's output and the generator is where it would be.  Otherwise the
windows before the first node with a repeat stand, the generator is put
where they end (restore the state saved before the chunk, draw exactly
that many again) and that one node is sampled by :func:`_node_targets` on
the generator itself; the next chunk starts after it.  Dense and
saturated nodes end a chunk the same way, as do nodes with more than √n
draws, which repeat a value more often than not.  Invariant: at every
chunk boundary ``rng`` is in the state the sequential sampler had on
reaching that node — so ``rng.choice`` sees the state it always saw, and
so do the SSSP weights drawn after the last node.
``tests/graph/test_generators.py`` keeps the sequential sampler as the
oracle (targets and final generator state) and pins the benchmark graphs'
hashes: a numpy that consumed the stream differently would fail there
rather than silently change every seeded graph.
"""

from __future__ import annotations

import math

import numpy as np

from .digraph import Digraph

__all__ = [
    "lognormal_out_degrees",
    "lognormal_graph",
    "sssp_graph",
    "pagerank_graph",
    "mu_for_mean_degree",
]

#: Paper §4.1.2 parameters.
SSSP_DEGREE_SIGMA = 1.0
SSSP_DEGREE_MU = 1.5
SSSP_WEIGHT_SIGMA = 1.2
SSSP_WEIGHT_MU = 0.4
PAGERANK_DEGREE_SIGMA = 2.0
PAGERANK_DEGREE_MU = -0.5


def mu_for_mean_degree(mean_degree: float, sigma: float) -> float:
    """Log-normal location parameter giving the requested mean."""
    if mean_degree <= 0:
        raise ValueError("mean degree must be positive")
    return math.log(mean_degree) - sigma * sigma / 2.0


def lognormal_out_degrees(
    num_nodes: int,
    mu: float,
    sigma: float,
    rng: np.random.Generator,
    min_degree: int = 1,
) -> np.ndarray:
    """Sample integer out-degrees, clipped to ``[min_degree, n-1]``.

    ``min_degree=1`` avoids dangling nodes by default (the paper's
    PageRank update, Eq. 1, leaks rank at dangling nodes; keeping one
    outgoing edge per node makes convergence behaviour comparable across
    graph sizes).
    """
    raw = rng.lognormal(mean=mu, sigma=sigma, size=num_nodes)
    degrees = np.maximum(np.rint(raw).astype(np.int64), min_degree)
    return np.minimum(degrees, max(num_nodes - 1, min_degree))


#: Draws per chunk of :func:`_sample_targets`.  A chunk is discarded from
#: its first repeat on, so it should not be much longer than the distance
#: between repeats, and long enough to amortise a dozen numpy calls; on
#: the benchmark graphs anything from 2k to 16k measures the same.
_CHUNK = 8192


def _node_targets(n: int, deg: int, rng: np.random.Generator) -> np.ndarray:
    """One node's sorted distinct picks from ``[0, n-2]`` — the scalar rule."""
    if deg >= n - 1:
        # Saturated: connect to everyone else.
        return np.arange(n - 1, dtype=np.int64)
    if deg > (n - 1) // 4:
        # Dense node: exact sampling without replacement.
        return rng.choice(n - 1, size=deg, replace=False)
    # Sparse node: rejection via unique, top-up as needed.
    chosen = np.unique(rng.integers(0, n - 1, size=deg))
    while len(chosen) < deg:
        extra = rng.integers(0, n - 1, size=deg - len(chosen))
        chosen = np.unique(np.concatenate([chosen, extra]))
    return chosen


def _sample_targets(num_nodes: int, degrees: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pick each node's distinct non-self targets; returns (indptr, targets).

    Equal, draw for draw, to :func:`_node_targets` applied node by node
    (module docstring): same targets, same ``rng`` state afterwards.
    """
    n = num_nodes
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    targets = np.empty(indptr[-1], dtype=np.int64)
    owner = np.repeat(np.arange(n), degrees)
    # Nodes no chunk may hold: dense and saturated ones do not read the
    # stream, and past sqrt(n) draws a repeat is the likely outcome.
    scalar = np.append(np.flatnonzero(degrees > min((n - 1) // 4, math.isqrt(n), _CHUNK)), n)
    u = 0
    while u < n:
        lo = indptr[u]
        stop = scalar[np.searchsorted(scalar, u)]
        v = min(np.searchsorted(indptr, lo + _CHUNK, side="right") - 1, stop)
        hi = indptr[v]
        state = rng.bit_generator.state
        base = owner[lo:hi] * n
        keys = base + rng.integers(0, n - 1, size=hi - lo)
        keys.sort()
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if len(dup):
            # Keep the windows before the first node that drew a value
            # twice, put the generator where they end, replay that node.
            v = stop = owner[lo + dup[0]]
            hi = indptr[v]
            rng.bit_generator.state = state
            rng.integers(0, n - 1, size=hi - lo)
        targets[lo:hi] = keys[: hi - lo] - base[: hi - lo]
        if v == stop < n:
            targets[hi : indptr[v + 1]] = _node_targets(n, degrees[v], rng)
            v += 1
        u = v
    # Map [0, n-2] onto node ids skipping the owner (no self-loops).
    return indptr, np.where(targets >= owner, targets + 1, targets)


def lognormal_graph(
    num_nodes: int,
    *,
    degree_mu: float,
    degree_sigma: float,
    weight_mu: float | None = None,
    weight_sigma: float | None = None,
    seed: int = 0,
    min_degree: int = 1,
) -> Digraph:
    """Generate a simple directed graph with log-normal out-degrees.

    If weight parameters are given, edge weights are sampled log-normally
    (the SSSP datasets); otherwise the graph is unweighted (PageRank).
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    degrees = lognormal_out_degrees(num_nodes, degree_mu, degree_sigma, rng, min_degree)
    indptr, targets = _sample_targets(num_nodes, degrees, rng)
    weights = None
    if weight_mu is not None or weight_sigma is not None:
        if weight_mu is None or weight_sigma is None:
            raise ValueError("weight_mu and weight_sigma must be given together")
        weights = rng.lognormal(mean=weight_mu, sigma=weight_sigma, size=len(targets))
    return Digraph(indptr, targets, weights)


def sssp_graph(num_nodes: int, *, mean_degree: float | None = None, seed: int = 0) -> Digraph:
    """A weighted SSSP evaluation graph with the paper's parameters.

    ``mean_degree`` overrides μ (used for the real-graph stand-ins whose
    published edge/node ratios differ from the synthetic family's).
    """
    mu = (
        SSSP_DEGREE_MU
        if mean_degree is None
        else mu_for_mean_degree(mean_degree, SSSP_DEGREE_SIGMA)
    )
    return lognormal_graph(
        num_nodes,
        degree_mu=mu,
        degree_sigma=SSSP_DEGREE_SIGMA,
        weight_mu=SSSP_WEIGHT_MU,
        weight_sigma=SSSP_WEIGHT_SIGMA,
        seed=seed,
    )


def pagerank_graph(num_nodes: int, *, mean_degree: float | None = None, seed: int = 0) -> Digraph:
    """An unweighted PageRank evaluation graph with the paper's parameters."""
    mu = (
        PAGERANK_DEGREE_MU
        if mean_degree is None
        else mu_for_mean_degree(mean_degree, PAGERANK_DEGREE_SIGMA)
    )
    return lognormal_graph(
        num_nodes,
        degree_mu=mu,
        degree_sigma=PAGERANK_DEGREE_SIGMA,
        seed=seed,
    )
