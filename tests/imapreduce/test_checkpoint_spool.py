"""Property tests for the durable checkpoint spool (§3.4).

The spool format *is* the wire format — the exact protocol-5 frame the
data plane ships, length-prefixed onto disk — so the identity to prove
is encode→fsync→decode round-trips bit-exactly for both payload shapes
(record lists and columnar ``(keys, values)`` arrays), and that every
flavor of torn write is *detected* and falls back to the previous
committed manifest instead of restoring garbage.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imapreduce import CheckpointError, CheckpointStore
from repro.imapreduce.checkpoint import _read_parts
from repro.imapreduce.columnar import decode_columnar, encode_columnar
from repro.imapreduce.parallel import _load_restore

# Values exercise the float edge cases a distance fold can produce.
_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)
_records = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), _floats),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(pairs=st.dictionaries(st.integers(0, 7), _records, max_size=6),
       iteration=st.integers(0, 999), worker=st.integers(0, 31))
def test_record_payload_round_trip_identity(tmp_path_factory, pairs, iteration, worker):
    store = CheckpointStore(str(tmp_path_factory.mktemp("spool")))
    payload = {"path": "record", "pairs": pairs}
    entry = store.write(0, iteration, worker, payload)
    got = store.read_payload(entry)
    assert got == payload  # bit-exact: == on floats, not approx
    assert entry["bytes"] == os.path.getsize(os.path.join(store.root, entry["file"]))


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**6), max_size=30, unique=True),
    width=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**31),
)
def test_columnar_payload_round_trip_identity(tmp_path_factory, keys, width, seed):
    """The out-of-band numpy buffers survive the disk hop bit-exactly
    and come back *writable* (restored workers mutate state in place)."""
    rng = np.random.default_rng(seed)
    shape = (len(keys),) if width == 0 else (len(keys), width)
    records = [
        (k, v if width == 0 else list(v))
        for k, v in zip(sorted(keys), rng.standard_normal(shape))
    ]
    owned, values = encode_columnar(records, "float64", width)
    store = CheckpointStore(str(tmp_path_factory.mktemp("spool")))
    entry = store.write(1, 5, 0, {"path": "kernel", "pairs": {0: (owned, values)}})
    got = store.read_payload(entry)
    rk, rv = got["pairs"][0]
    assert rk.dtype == owned.dtype and rv.dtype == values.dtype
    np.testing.assert_array_equal(rk, owned)
    np.testing.assert_array_equal(rv, values)  # exact, not allclose
    assert rk.flags.writeable and rv.flags.writeable
    rv[:] = 0.0  # restored workers mutate state in place
    assert len(decode_columnar(rk, rv)) == len(records)


_DTYPES = ["int32", "float64", "uint8", "float32"]


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from(_DTYPES), st.sampled_from(_DTYPES)),
        max_size=60,
    ),
    seed=st.integers(0, 2**31),
)
def test_many_small_arrays_round_trip_identity(tmp_path_factory, shapes, seed):
    """kmeans' shape: a record payload of many ``("pt", uid, ids,
    counts)`` values, two small arrays each (zero-length and odd byte
    sizes included).  However many there are the file is three parts,
    and every array comes back exact, writable and independent of its
    neighbours in the shared region."""
    rng = np.random.default_rng(seed)
    records = [
        (uid, ("pt", uid, rng.integers(0, 200, n).astype(ids_dtype),
               rng.standard_normal(n).astype(counts_dtype)))
        for uid, (n, ids_dtype, counts_dtype) in enumerate(shapes)
    ]
    store = CheckpointStore(str(tmp_path_factory.mktemp("spool")))
    entry = store.write(0, 2, 1, {"path": "record", "pairs": {3: records}})
    with open(os.path.join(store.root, entry["file"]), "rb") as fh:
        assert len(_read_parts(fh.read())) == (3 if shapes else 2)
    got = store.read_payload(entry)["pairs"][3]
    arrays = [a for _uid, (_tag, _u, ids, counts) in got for a in (ids, counts)]
    for a in arrays:
        a[...] = 0  # writable — and must not reach into a neighbour
    again = store.read_payload(entry)["pairs"][3]
    assert [uid for uid, _ in again] == [uid for uid, _ in records]
    for (_, (_, _, ids, counts)), (_, (_, _, want_ids, want_counts)) in zip(again, records):
        assert ids.dtype == want_ids.dtype and counts.dtype == want_counts.dtype
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(counts, want_counts)
    assert all(not a.any() for a in arrays)


def _many_arrays_entry(store):
    records = [(u, ("pt", u, np.arange(u % 5, dtype="int32"), np.ones(3))) for u in range(40)]
    return store.write(0, 3, 0, {"path": "record", "pairs": {0: records}})


def _rewrite(store, entry, parts):
    """Replace a spool file with ``parts`` re-framed *consistently*
    (prefixes, byte count and digest all agree), as a buggy writer
    would leave it: only the decoder can tell."""
    raw = b"".join(len(p).to_bytes(8, "big") + bytes(p) for p in parts)
    with open(os.path.join(store.root, entry["file"]), "wb") as fh:
        fh.write(raw)
    digest = hashlib.blake2b(raw, digest_size=16).hexdigest()
    return {**entry, "bytes": len(raw), "digest": digest}


@pytest.mark.parametrize("corruption", ["region-truncated", "region-missing", "part-extra"])
def test_miscounted_frame_detected(tmp_path, corruption):
    """Past the byte count and the digest, the decoder itself refuses a
    file whose parts are not the ones its header lists — it never builds
    arrays over a short region."""
    store = CheckpointStore(str(tmp_path))
    entry = _many_arrays_entry(store)
    with open(os.path.join(store.root, entry["file"]), "rb") as fh:
        header, data, region = _read_parts(fh.read())
    entry = _rewrite(store, entry, {
        "region-truncated": [header, data, region[:-1]],
        "region-missing": [header, data],
        "part-extra": [header, data, region, b"x"],
    }[corruption])
    with pytest.raises(CheckpointError, match="header promises"):
        store.read_payload(entry)


@pytest.mark.parametrize("corruption", ["truncate", "flip", "unlink", "lenprefix"])
def test_torn_spool_file_detected(tmp_path, corruption):
    store = CheckpointStore(str(tmp_path))
    entry = store.write(0, 3, 0, {"path": "record", "pairs": {0: [(1, 2.0)]}})
    path = os.path.join(store.root, entry["file"])
    if corruption == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(entry["bytes"] // 2)
    elif corruption == "flip":
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(raw)
    elif corruption == "unlink":
        os.unlink(path)
    else:  # a length prefix pointing past the end of the file
        raw = bytearray(open(path, "rb").read())
        raw[:8] = (2**40).to_bytes(8, "big")
        open(path, "wb").write(raw)
    with pytest.raises(CheckpointError):
        store.read_payload(entry)


def test_restore_falls_back_to_previous_committed_checkpoint(tmp_path):
    """A torn newest checkpoint must not lose the run: ``_load_restore``
    walks back to the previous manifest whose files still validate."""
    store = CheckpointStore(str(tmp_path))
    old = store.write(0, 1, 0, {"path": "record", "pairs": {0: [(7, 1.5)], 1: []}})
    store.commit(1, 0, [old])
    new = store.write(0, 3, 0, {"path": "record", "pairs": {0: [(7, 9.5)], 1: []}})
    store.commit(3, 0, [new])
    # kill -9 after the rename but with a dirty page lost: truncate.
    with open(os.path.join(store.root, new["file"]), "r+b") as fh:
        fh.truncate(10)
    restore, rejected = _load_restore(store, num_pairs=2, columnar=False)
    assert restore == (1, {0: [(7, 1.5)], 1: []})
    # The fallback is not silent: the manifest it skipped, and why.
    assert [iteration for iteration, _ in rejected] == [3]
    assert "10 bytes on disk" in rejected[0][1]


def test_restore_rejects_incomplete_pair_coverage(tmp_path):
    """A manifest missing a pair (reassignment bug, lost file) is not a
    restore point."""
    store = CheckpointStore(str(tmp_path))
    entry = store.write(0, 2, 0, {"path": "record", "pairs": {0: [(1, 1.0)]}})
    store.commit(2, 0, [entry])
    restore, rejected = _load_restore(store, num_pairs=2, columnar=False)
    assert restore is None
    assert rejected == [(2, "manifest i2 covers pairs [0] of 2")]
    assert _load_restore(store, num_pairs=1, columnar=False) == (
        (2, {0: [(1, 1.0)]}), []
    )


def test_restore_rejects_wrong_executor_path(tmp_path):
    """A record checkpoint cannot restore a kernel run and vice versa."""
    store = CheckpointStore(str(tmp_path))
    entry = store.write(0, 0, 0, {"path": "record", "pairs": {0: []}})
    store.commit(0, 0, [entry])
    restore, rejected = _load_restore(store, num_pairs=1, columnar=True)
    assert restore is None
    assert [iteration for iteration, _ in rejected] == [0]
    assert "does not match the job's 'kernel' executor" in rejected[0][1]


def test_manifest_commit_is_atomic_and_torn_manifest_skipped(tmp_path):
    store = CheckpointStore(str(tmp_path))
    entry = store.write(0, 1, 0, {"path": "record", "pairs": {0: [(1, 1.0)]}})
    store.commit(1, 0, [entry])
    # A torn manifest for a newer iteration: invalid JSON on disk.
    with open(os.path.join(store.root, "manifest-i000003.json"), "w") as fh:
        fh.write('{"iteration": 3, "entries": [')
    manifests = store.manifests()
    assert [m["iteration"] for m in manifests] == [1]
    assert json.loads(json.dumps(manifests[0]))  # committed one is valid JSON


# ------------------------------------------------------------- retention --
def _committed_iteration(store, iteration, workers=2):
    entries = [
        store.write(0, iteration, w,
                    {"path": "record", "pairs": {w: [(w, float(iteration))]}})
        for w in range(workers)
    ]
    store.commit(iteration, 0, entries)
    return entries


def test_gc_prunes_stale_spools_keeps_live_manifest(tmp_path):
    """Retention: after ``gc(keep=2)`` only the two newest manifests and
    the spool files they reference survive — and the survivors still
    restore (every live payload readable, digests intact)."""
    store = CheckpointStore(str(tmp_path))
    for iteration in range(5):
        _committed_iteration(store, iteration)
    # An orphan tmp file from a torn write must also be swept.
    orphan = os.path.join(store.root, "ckpt-g000-i000099-w000.bin.tmp.1234")
    with open(orphan, "w") as fh:
        fh.write("torn")
    before = set(os.listdir(store.root))
    stats = store.gc(keep=2)
    after = set(os.listdir(store.root))

    assert [m["iteration"] for m in store.manifests()] == [4, 3]
    assert stats["kept_manifests"] == 2
    assert stats["pruned_manifests"] == 3
    assert stats["pruned_files"] + stats["pruned_manifests"] == \
        len(before) - len(after)
    assert stats["pruned_bytes"] > 0
    assert not os.path.exists(orphan)
    # No spool file from a pruned iteration remains…
    for name in after:
        if name.startswith("ckpt-"):
            assert any(f"i00000{i}" in name for i in (3, 4)), name
    # …and every surviving manifest still restores its payloads.
    for manifest in store.manifests():
        for entry in manifest["entries"]:
            assert store.read_payload(entry)["path"] == "record"


def test_gc_keep_all_is_noop(tmp_path):
    store = CheckpointStore(str(tmp_path))
    for iteration in range(3):
        _committed_iteration(store, iteration, workers=1)
    before = sorted(os.listdir(store.root))
    stats = store.gc(keep=10)
    assert sorted(os.listdir(store.root)) == before
    assert stats["pruned_files"] == 0 and stats["pruned_manifests"] == 0


def test_gc_rejects_nonpositive_keep(tmp_path):
    store = CheckpointStore(str(tmp_path))
    with pytest.raises(ValueError):
        store.gc(keep=0)


def test_gc_empty_store(tmp_path):
    stats = CheckpointStore(str(tmp_path)).gc(keep=1)
    assert stats["kept_manifests"] == 0 and stats["pruned_files"] == 0
