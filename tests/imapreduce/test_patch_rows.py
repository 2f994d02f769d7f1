"""``patch_static_table`` rebuilds each dirty row once; the per-edit
patcher it replaced is kept here as its oracle.

The oracle applies a delta edit by edit — insert nodes, then every
delete, update and insert in delta order, each one rebuilding its row —
which is the row-order contract in its plainest form: survivors keep
their position, inserts append, ``sorted_rows`` kinds re-sort.  The
grouped patcher must leave the same table and return the same dirty set
on every kind, and refuse a bad edit with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imapreduce.incremental import (
    ADJACENCY_KINDS,
    DataDelta,
    DeltaError,
    patch_static_table,
    random_edge_churn,
)


def _target(entry, weighted):
    return entry[0] if weighted else entry


def _directed(edges, symmetric):
    for u, v, *rest in edges:
        yield (u, v, *rest)
        if symmetric:
            yield (v, u, *rest)


def patch_per_edit(table, delta, kind):
    """The per-edit patcher: one row rebuild per edit."""
    delta.validate(kind)
    dirty = set()
    known = set(table) | set(delta.insert_nodes)
    for u in delta.insert_nodes:
        if u in table:
            raise DeltaError(f"insert_nodes key {u!r} already exists")
        table[u] = ()
        dirty.add(u)
    for u, v in _directed(delta.delete_edges, kind.symmetric):
        row = table.get(u)
        if row is None:
            raise DeltaError(f"delete_edges names unknown source {u!r}")
        kept = tuple(e for e in row if _target(e, kind.weighted) != v)
        if len(kept) == len(row):
            raise DeltaError(f"delete_edges edge ({u!r}, {v!r}) not present")
        table[u] = kept
        dirty.add(u)
    for u, v, w in _directed(delta.update_edges, kind.symmetric):
        row = table.get(u)
        if row is None:
            raise DeltaError(f"update_edges names unknown source {u!r}")
        updated = tuple((t, w) if t == v else (t, ow) for t, ow in row)
        if updated == row and not any(t == v for t, _ow in row):
            raise DeltaError(f"update_edges edge ({u!r}, {v!r}) not present")
        table[u] = updated
        dirty.add(u)
    for u, v, *rest in _directed(delta.insert_edges, kind.symmetric):
        if u not in known:
            raise DeltaError(f"insert_edges names unknown source {u!r}")
        if v not in known:
            raise DeltaError(f"insert_edges names unknown target {v!r}")
        row = table.get(u, ())
        if any(_target(e, kind.weighted) == v for e in row):
            raise DeltaError(f"insert_edges edge ({u!r}, {v!r}) already present")
        table[u] = row + ((v, rest[0]) if kind.weighted else v,)
        dirty.add(u)
    if kind.sorted_rows:
        for u in dirty:
            table[u] = tuple(sorted(table[u]))
    return dirty


@st.composite
def _tables(draw, algorithm):
    """A random adjacency table in ``algorithm``'s shape (symmetric
    kinds store both directions, sorted; others keep draw order)."""
    kind = ADJACENCY_KINDS[algorithm]
    n = draw(st.integers(3, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n, unique_by=lambda e: frozenset(e)
                          if kind.symmetric else e))
    table = {u: [] for u in range(n)}
    for u, v in pairs:
        if u == v:
            continue
        w = draw(st.sampled_from([0.5, 1.25, 3.0]))
        table[u].append((v, w) if kind.weighted else v)
        if kind.symmetric:
            table[v].append(u)
    return {u: tuple(sorted(row)) if kind.sorted_rows else tuple(row)
            for u, row in table.items()}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), algorithm=st.sampled_from(sorted(ADJACENCY_KINDS)),
       seed=st.integers(0, 10**6))
def test_grouped_patch_equals_the_per_edit_oracle(data, algorithm, seed):
    """Weighted/unweighted, symmetric/directed, with insert, delete and
    update churn (plus an inserted node wired in): same table, same
    dirty set, same row order."""
    kind = ADJACENCY_KINDS[algorithm]
    table = data.draw(_tables(algorithm))
    edges = sum(len(row) for row in table.values()) // (2 if kind.symmetric else 1)
    delete = data.draw(st.integers(0, min(edges, 4)))
    update = data.draw(st.integers(0, min(edges - delete, 3))) if kind.weighted else 0
    try:
        delta = random_edge_churn(table, algorithm, insert=data.draw(st.integers(0, 4)),
                                  delete=delete, update=update, seed=seed)
    except DeltaError:  # a dense little graph without room for the inserts
        delta = random_edge_churn(table, algorithm, delete=delete, update=update, seed=seed)
    if data.draw(st.booleans()):
        new = max(table) + 1
        wired = (0, new, 2.0) if kind.weighted else (0, new)
        delta = DataDelta(insert_edges=delta.insert_edges + (wired,),
                          delete_edges=delta.delete_edges, update_edges=delta.update_edges,
                          insert_nodes=(new,))
    want, got = dict(table), dict(table)
    assert patch_static_table(got, delta, kind) == patch_per_edit(want, delta, kind)
    assert got == want


@pytest.mark.parametrize("algorithm,delta,message", [
    ("sssp", DataDelta(delete_edges=((0, 2),)), r"\(0, 2\) not present"),
    ("sssp", DataDelta(delete_edges=((9, 1),)), "unknown source 9"),
    ("sssp", DataDelta(update_edges=((1, 0, 2.0),)), r"\(1, 0\) not present"),
    ("sssp", DataDelta(insert_edges=((0, 1, 1.0),)), r"\(0, 1\) already present"),
    ("sssp", DataDelta(insert_edges=((0, 7, 1.0),)), "unknown target 7"),
    ("sssp", DataDelta(insert_nodes=(1,)), "key 1 already exists"),
    ("components", DataDelta(insert_edges=((2, 2),)), r"\(2, 2\) already present"),
    ("components", DataDelta(delete_edges=((0, 0),)), r"\(0, 0\) not present"),
    ("pagerank", DataDelta(delete_edges=((3, 0),), insert_nodes=(3,)), r"\(3, 0\) not present"),
])
def test_a_refused_edit_names_itself_and_leaves_the_table(algorithm, delta, message):
    kind = ADJACENCY_KINDS[algorithm]
    table = {0: ((1, 1.0),), 1: (), 2: ((0, 1.0),)} if kind.weighted else {
        0: (1, 2), 1: (0,), 2: (0,)}
    for patch in (patch_per_edit, patch_static_table):
        with pytest.raises(DeltaError, match=message):
            patch(dict(table), delta, kind)
    untouched = dict(table)
    with pytest.raises(DeltaError):
        patch_static_table(untouched, delta, kind)
    assert untouched == table
