"""Unit and property tests for the log-normal graph generators."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Digraph,
    lognormal_graph,
    lognormal_out_degrees,
    mu_for_mean_degree,
    pagerank_graph,
    sssp_graph,
)
from repro.graph.generators import _sample_targets


def test_mu_for_mean_degree_inverts_lognormal_mean():
    sigma = 1.0
    mu = mu_for_mean_degree(7.39, sigma)
    assert math.exp(mu + sigma**2 / 2) == pytest.approx(7.39)


def test_mu_for_mean_degree_rejects_nonpositive():
    with pytest.raises(ValueError):
        mu_for_mean_degree(0.0, 1.0)


def test_degree_sampling_respects_bounds():
    rng = np.random.default_rng(0)
    degrees = lognormal_out_degrees(500, mu=1.5, sigma=1.0, rng=rng, min_degree=1)
    assert degrees.min() >= 1
    assert degrees.max() <= 499


def test_sssp_graph_is_weighted_with_positive_weights():
    g = sssp_graph(200, seed=1)
    assert g.weighted
    assert (g.weights > 0).all()


def test_pagerank_graph_is_unweighted():
    assert not pagerank_graph(200, seed=1).weighted


def test_generation_is_deterministic():
    a = sssp_graph(300, seed=42)
    b = sssp_graph(300, seed=42)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.weights, b.weights)


def test_different_seeds_differ():
    a = sssp_graph(300, seed=1)
    b = sssp_graph(300, seed=2)
    assert not (
        np.array_equal(a.indptr, b.indptr) and np.array_equal(a.targets, b.targets)
    )


def test_mean_degree_override_hits_target():
    g = sssp_graph(5000, mean_degree=4.9, seed=7)
    observed = g.num_edges / g.num_nodes
    assert observed == pytest.approx(4.9, rel=0.15)


def test_paper_default_mean_degree():
    """σ=1.0, μ=1.5 gives E[deg] = e^2 ≈ 7.39 (paper's SSSP family)."""
    g = sssp_graph(5000, seed=3)
    assert g.num_edges / g.num_nodes == pytest.approx(math.exp(2.0), rel=0.15)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_no_self_loops(n, seed):
    g = lognormal_graph(n, degree_mu=1.0, degree_sigma=1.0, seed=seed)
    for u in range(n):
        assert u not in g.out_neighbors(u)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_no_duplicate_edges(n, seed):
    g = lognormal_graph(n, degree_mu=1.5, degree_sigma=1.0, seed=seed)
    for u in range(n):
        neighbors = g.out_neighbors(u)
        assert len(np.unique(neighbors)) == len(neighbors)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_min_degree_respected(n, seed):
    g = lognormal_graph(n, degree_mu=0.0, degree_sigma=0.5, seed=seed, min_degree=1)
    assert (g.out_degree() >= 1).all()


def test_small_graph_rejected():
    with pytest.raises(ValueError):
        lognormal_graph(1, degree_mu=1.0, degree_sigma=1.0)


def test_weight_params_must_come_together():
    with pytest.raises(ValueError):
        lognormal_graph(10, degree_mu=1.0, degree_sigma=1.0, weight_mu=0.4)


def test_saturated_degrees_connect_to_everyone():
    g = lognormal_graph(5, degree_mu=5.0, degree_sigma=0.1, seed=0)
    for u in range(5):
        if g.out_degree(u) == 4:
            assert sorted(g.out_neighbors(u).tolist()) == sorted(
                v for v in range(5) if v != u
            )


# ---------------------------------------------------- stream-exact sampler --
def _sequential_sample_targets(num_nodes, degrees, rng):
    """The per-node sampler ``_sample_targets`` replaced (its body at commit
    5002b67, verbatim): the definition of which graph a seed means."""
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    targets = np.empty(indptr[-1], dtype=np.int64)
    n = num_nodes
    for u in range(n):
        deg = degrees[u]
        if deg == 0:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        if deg >= n - 1:
            # Saturated: connect to everyone else.
            chosen = np.arange(n - 1, dtype=np.int64)
        elif deg > (n - 1) // 4:
            # Dense node: exact sampling without replacement.
            chosen = rng.choice(n - 1, size=deg, replace=False)
        else:
            # Sparse node: rejection via unique, top-up as needed.
            chosen = np.unique(rng.integers(0, n - 1, size=deg))
            while len(chosen) < deg:
                extra = rng.integers(0, n - 1, size=deg - len(chosen))
                chosen = np.unique(np.concatenate([chosen, extra]))
            chosen = chosen[:deg]
        # Map [0, n-2] onto node ids skipping u (no self-loops).
        mapped = np.where(chosen >= u, chosen + 1, chosen)
        targets[lo:hi] = mapped
    return indptr, targets


#: (mu, sigma) of the out-degree law: the PageRank family (heavy tail:
#: dense nodes, many top-ups), the SSSP family, and a denser one.
FAMILIES = [(-0.5, 2.0), (1.5, 1.0), (2.5, 1.0)]


@pytest.mark.parametrize(
    "n, seeds, families",
    [
        pytest.param(n, seeds, families, id=str(n))
        for n, seeds, families in [
            *((n, range(12), FAMILIES) for n in (2, 3, 4, 5, 7, 12, 20, 50, 100, 300, 800)),
            (4_000, range(3), FAMILIES),
            (30_000, [42], FAMILIES[:2]),
        ]
    ],
)
def test_sampler_matches_the_sequential_one_draw_for_draw(n, seeds, families):
    """Same targets *and* same generator state afterwards, so whatever is
    drawn next (the SSSP weights) is the same too.  Also the guard against
    a numpy whose ``integers`` consumes the bit stream differently when
    asked for ``a + b`` values than for ``a`` then ``b``: this fails
    instead of every seeded graph silently changing."""
    for (mu, sigma), seed in ((f, s) for f in families for s in seeds):
        # Odd seeds allow zero-degree nodes.
        min_degree = 1 - seed % 2
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        degrees = lognormal_out_degrees(n, mu, sigma, ours, min_degree)
        lognormal_out_degrees(n, mu, sigma, theirs, min_degree)
        indptr, targets = _sample_targets(n, degrees, ours)
        want_indptr, want_targets = _sequential_sample_targets(n, degrees, theirs)
        case = (n, mu, sigma, seed)
        assert np.array_equal(indptr, want_indptr), case
        assert targets.dtype == want_targets.dtype
        assert np.array_equal(targets, want_targets), case
        assert ours.bit_generator.state == theirs.bit_generator.state, case


def _pin(graph: Digraph) -> tuple[str, int]:
    digest = hashlib.sha256()
    for column in (graph.indptr, graph.targets, graph.weights):
        if column is not None:
            digest.update(column.tobytes())
    return digest.hexdigest()[:16], graph.num_edges


@pytest.mark.parametrize(
    "build, n, seed, pin",
    [
        # The three benchmark graphs (benchmarks/e2e), hashed at 5002b67.
        pytest.param(pagerank_graph, 30_000, 42, ("5e31305a26860606", 148_299), id="pagerank-30k"),
        pytest.param(pagerank_graph, 150_000, 42, ("0e14d159f73936b2", 769_550), id="pagerank-150k"),
        pytest.param(sssp_graph, 30_000, 42, ("39825ec6a1056b2b", 224_951), id="sssp-30k"),
        # Dense nodes: the ``rng.choice`` path between chunks.
        pytest.param(pagerank_graph, 20, 3, ("15cafc56bc64b530", 60), id="pagerank-20"),
    ],
)
def test_seeded_graphs_are_pinned(build, n, seed, pin):
    assert _pin(build(n, seed=seed)) == pin
