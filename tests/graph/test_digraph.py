"""Unit tests for the CSR digraph."""

import pickle

import numpy as np
import pytest

from repro.graph import Digraph, lognormal_graph


def triangle(weighted=False):
    edges = [(0, 1), (1, 2), (2, 0)]
    weights = [1.0, 2.0, 3.0] if weighted else None
    return Digraph.from_edges(3, edges, weights)


def test_from_edges_shape():
    g = triangle()
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert not g.weighted


def test_out_neighbors():
    g = Digraph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert sorted(g.out_neighbors(0).tolist()) == [1, 2]
    assert g.out_neighbors(1).tolist() == []
    assert g.out_neighbors(2).tolist() == [3]


def test_out_degree_vector_and_scalar():
    g = Digraph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert g.out_degree().tolist() == [2, 0, 1, 0]
    assert g.out_degree(0) == 2


def test_unsorted_edge_list_accepted():
    g = Digraph.from_edges(3, [(2, 0), (0, 1), (1, 2)])
    assert g.out_neighbors(0).tolist() == [1]
    assert g.out_neighbors(2).tolist() == [0]


def test_weights_follow_reordering():
    g = Digraph.from_edges(3, [(2, 0), (0, 1)], [9.0, 5.0])
    assert g.out_weights(0).tolist() == [5.0]
    assert g.out_weights(2).tolist() == [9.0]


def test_out_weights_on_unweighted_raises():
    with pytest.raises(ValueError):
        triangle().out_weights(0)


def test_static_records_unweighted():
    g = Digraph.from_edges(3, [(0, 1), (0, 2)])
    records = dict(g.static_records())
    assert records == {0: (1, 2), 1: (), 2: ()}


def test_static_records_weighted():
    g = triangle(weighted=True)
    records = dict(g.static_records())
    assert records[0] == ((1, 1.0),)
    assert records[2] == ((0, 3.0),)


def test_static_records_cover_sink_nodes():
    g = Digraph.from_edges(5, [(0, 1)])
    assert len(list(g.static_records())) == 5


def _static_records_per_element(g):
    """``Digraph.static_records`` at commit 5002b67, verbatim: one
    ``int(v)`` / ``float(w)`` per element."""
    indptr, targets = g.indptr, g.targets
    if g.weights is None:
        for u in range(g.num_nodes):
            lo, hi = indptr[u], indptr[u + 1]
            yield u, tuple(int(v) for v in targets[lo:hi])
    else:
        weights = g.weights
        for u in range(g.num_nodes):
            lo, hi = indptr[u], indptr[u + 1]
            yield u, tuple(
                (int(v), float(w)) for v, w in zip(targets[lo:hi], weights[lo:hi])
            )


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_static_records_are_the_per_element_ones(weighted):
    """Slices of ``tolist()`` columns give the records the per-element
    conversion gave — equal, pickled to the same bytes (numpy scalars
    would inflate the mesh's ``bytes_pickled``), sinks included."""
    weights = dict(weight_mu=0.4, weight_sigma=1.2) if weighted else {}
    g = lognormal_graph(400, degree_mu=0.5, degree_sigma=1.5, seed=9, min_degree=0, **weights)
    assert (g.out_degree() == 0).any()
    records = list(g.static_records())
    expected = list(_static_records_per_element(g))
    assert records == expected
    assert pickle.dumps(records) == pickle.dumps(expected)
    flat = [entry for _u, row in records for entry in row]
    if weighted:
        assert {(type(v), type(w)) for v, w in flat} == {(int, float)}
    else:
        assert {type(v) for v in flat} == {int}
    assert {type(u) for u, _row in records} == {int}


def test_edge_list_roundtrip():
    g = triangle()
    assert sorted(g.edge_list()) == [(0, 1), (1, 2), (2, 0)]


def test_to_networkx():
    nxg = triangle(weighted=True).to_networkx()
    assert nxg.number_of_nodes() == 3
    assert nxg[0][1]["weight"] == 1.0


def test_to_scipy_csr():
    mat = triangle().to_scipy_csr()
    assert mat.shape == (3, 3)
    assert mat.sum() == 3


def test_validation_errors():
    with pytest.raises(ValueError):
        Digraph(np.array([1, 2]), np.array([0]))  # indptr[0] != 0
    with pytest.raises(ValueError):
        Digraph(np.array([0, 2]), np.array([0]))  # indptr[-1] mismatch
    with pytest.raises(ValueError):
        Digraph(np.array([0, 1]), np.array([5]))  # target out of range
    with pytest.raises(ValueError):
        Digraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))  # weight shape
    with pytest.raises(ValueError):
        Digraph.from_edges(2, [(3, 0)])  # source out of range
