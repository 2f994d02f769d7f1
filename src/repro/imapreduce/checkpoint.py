"""Durable checkpoints and fault injection for the real backend (§3.4/§5).

The paper's runtime support dumps iterated state to disk every few
iterations so a failure rolls back to the last dump instead of to
iteration zero.  This module is that dump for :func:`run_parallel`:

* **Spool files** — each worker serializes its pair states every
  ``checkpoint_every`` iterations into one file per ``(generation,
  iteration, worker)``.  The on-disk format *is* the wire format: the
  exact frame the data plane would ship (pickled header + protocol-5
  payload with out-of-band numpy buffers), written as length-prefixed
  parts, so the record path and the columnar path both round-trip
  bit-exactly through the same encoders the mesh already trusts.
* **Atomic commit** — files land under a temp name, are fsynced, then
  ``os.replace``\\ d into place; a torn write (kill -9 mid-``write``)
  can therefore never be confused with a committed checkpoint, and the
  BLAKE2 digest in the manifest catches the rename-landed-but-truncated
  cases a crashed filesystem could still produce.
* **Manifests** — the coordinator commits ``manifest-<iteration>.json``
  only after *every* worker's spool file for that iteration arrived and
  the iteration itself was merged, so a manifest is a global barrier:
  restoring from it yields exactly the cluster state at the end of that
  iteration.  Validation walks manifests newest-first and falls back to
  the previous one when any referenced file is torn or missing.
* **Fault plans** — :class:`ProcFault` describes a seeded kill -9 /
  SIGSTOP a worker inflicts on *itself* at an exact ``(iteration,
  phase)`` point, which makes real process death deterministic enough
  for the chaos campaigns' differential oracles to judge recovery
  bit-exactly.  ``generation`` gates re-firing: a respawned worker
  (generation > 0) replays the same iterations without re-dying.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from dataclasses import dataclass
from typing import Any

from ..common.errors import JobError

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "ProcFault",
    "fire_fault",
]

#: Length prefix per part: 8 bytes, big-endian.
_LEN_BYTES = 8
_DIGEST_SIZE = 16


class CheckpointError(JobError):
    """A spool file or manifest is torn, missing, or inconsistent."""


@dataclass(frozen=True)
class ProcFault:
    """One seeded process fault: ``worker`` dies at the start of
    ``(iteration, phase)`` — ``kill`` is SIGKILL (hard death, sentinel
    fires), ``stop`` is SIGSTOP (a hang only the heartbeat suspicion
    timeout can detect)."""

    worker: int
    iteration: int
    phase: int = 0
    action: str = "kill"
    generation: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("kill", "stop"):
            raise ValueError(f"unknown fault action {self.action!r}")

    def matches(self, generation: int, worker: int, iteration: int, phase: int) -> bool:
        return (
            self.generation == generation
            and self.worker == worker
            and self.iteration == iteration
            and self.phase == phase
        )


def fire_fault(fault: ProcFault) -> None:
    """Inflict ``fault`` on the calling process — a *real* signal, not a
    simulated one; SIGKILL never returns."""
    sig = signal.SIGKILL if fault.action == "kill" else signal.SIGSTOP
    os.kill(os.getpid(), sig)


def _read_parts(raw) -> list[memoryview]:
    """Split a spool file back into its length-prefixed parts — slices
    of ``raw``, writable when it is."""
    view = memoryview(raw)
    parts: list[memoryview] = []
    offset = 0
    total = len(view)
    while offset < total:
        if offset + _LEN_BYTES > total:
            raise CheckpointError("torn spool file: truncated length prefix")
        size = int.from_bytes(view[offset:offset + _LEN_BYTES], "big")
        offset += _LEN_BYTES
        if offset + size > total:
            raise CheckpointError("torn spool file: truncated part")
        parts.append(view[offset:offset + size])
        offset += size
    if not parts:
        raise CheckpointError("torn spool file: empty")
    return parts


class CheckpointStore:
    """One spool directory of per-worker checkpoint files + manifests."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- worker side ---------------------------------------------------
    def write(self, generation: int, iteration: int, worker: int, payload) -> dict:
        """Durably spool one worker's pair states; returns the manifest
        entry (file name, byte count, digest) to report upstream."""
        name = f"ckpt-g{generation:03d}-i{iteration:06d}-w{worker:03d}.bin"
        path = os.path.join(self.root, name)
        # Imported lazily: workerproc imports this module for ProcFault.
        from .workerproc import CKPT_REPORT, encode_frame

        parts, _ = encode_frame(CKPT_REPORT, iteration, 0, worker, payload)
        digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        tmp = f"{path}.tmp.{os.getpid()}"
        total = 0
        with open(tmp, "wb") as fh:
            for part in parts:
                prefix = len(part).to_bytes(_LEN_BYTES, "big")
                fh.write(prefix)
                fh.write(part)
                digest.update(prefix)
                digest.update(part)
                total += _LEN_BYTES + len(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return {
            "file": name,
            "bytes": total,
            "digest": digest.hexdigest(),
            "worker": worker,
            "iteration": iteration,
            "generation": generation,
        }

    # -- coordinator side ----------------------------------------------
    def read_payload(self, entry: dict) -> Any:
        """Decode one spool file, validating size and digest; raises
        :class:`CheckpointError` on any torn or tampered content."""
        from .workerproc import decode_frame

        path = os.path.join(self.root, entry["file"])
        try:
            with open(path, "rb") as fh:
                raw = bytearray(fh.read())  # writable: arrays are views of it
        except OSError as exc:
            raise CheckpointError(f"missing spool file {entry['file']}: {exc}")
        if len(raw) != entry["bytes"]:
            raise CheckpointError(
                f"torn spool file {entry['file']}: "
                f"{len(raw)} bytes on disk, manifest says {entry['bytes']}"
            )
        if hashlib.blake2b(raw, digest_size=_DIGEST_SIZE).hexdigest() != entry["digest"]:
            raise CheckpointError(f"digest mismatch in {entry['file']}")
        parts = _read_parts(raw)
        # The spool format *is* the wire format, so the wire's decoder
        # reads it: a part is the next slice of the file.
        supply = iter(parts)
        try:
            payload = decode_frame(lambda size: next(supply))[4]
            complete = next(supply, None) is None
        except StopIteration:
            complete = False
        except Exception as exc:
            raise CheckpointError(f"bad frame in {entry['file']}: {exc}")
        if not complete:
            raise CheckpointError(
                f"torn spool file {entry['file']}: "
                f"{len(parts)} parts are not what its header promises"
            )
        return payload

    def commit(self, iteration: int, generation: int, entries: list[dict]) -> str:
        """Atomically publish the manifest that makes ``iteration``'s
        checkpoint the restore point."""
        name = f"manifest-i{iteration:06d}.json"
        path = os.path.join(self.root, name)
        body = json.dumps(
            {"iteration": iteration, "generation": generation, "entries": entries},
            sort_keys=True,
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def manifests(self) -> list[dict]:
        """All committed manifests, newest iteration first; unreadable
        ones (a torn commit) are skipped."""
        found = []
        for name in os.listdir(self.root):
            if not (name.startswith("manifest-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.root, name)) as fh:
                    found.append(json.load(fh))
            except (OSError, ValueError):
                continue
        found.sort(key=lambda m: m["iteration"], reverse=True)
        return found

    # -- retention ------------------------------------------------------
    def gc(self, keep: int = 1) -> dict:
        """Prune old checkpoints: keep the newest ``keep`` manifests and
        every spool file they reference, delete the rest.

        Spool dirs accumulate one file per ``(generation, iteration,
        worker)`` across a run's lifetime (and across runs when a memo
        store shares the directory); only the files referenced by a
        retained manifest are ever restore candidates, so everything
        else — older manifests, their spools, and orphan spools no
        manifest ever committed (a fenced generation's partial writes) —
        is dead weight.  Deletion order is manifests first, then files,
        so a reader that races the sweep can never see a live manifest
        pointing at a pruned spool.  Returns a summary dict
        (``kept_manifests``, ``pruned_manifests``, ``pruned_files``,
        ``pruned_bytes``).
        """
        if keep < 1:
            raise ValueError("gc keep must be >= 1")
        kept = self.manifests()[:keep]
        live = {e["file"] for m in kept for e in m.get("entries", [])}
        live |= {f"manifest-i{m['iteration']:06d}.json" for m in kept}
        pruned_manifests = 0
        pruned_files = 0
        pruned_bytes = 0
        doomed_manifests: list[str] = []
        doomed_spools: list[str] = []
        for name in sorted(os.listdir(self.root)):
            if name in live:
                continue
            if name.startswith("manifest-") and name.endswith(".json"):
                doomed_manifests.append(name)
            elif name.startswith("ckpt-") or ".tmp." in name:
                doomed_spools.append(name)
        for name in doomed_manifests + doomed_spools:
            path = os.path.join(self.root, name)
            try:
                size = os.path.getsize(path)
                os.remove(path)
            except OSError:
                continue
            if name in doomed_manifests:
                pruned_manifests += 1
            else:
                pruned_files += 1
            pruned_bytes += size
        return {
            "kept_manifests": len(kept),
            "pruned_manifests": pruned_manifests,
            "pruned_files": pruned_files,
            "pruned_bytes": pruned_bytes,
        }
