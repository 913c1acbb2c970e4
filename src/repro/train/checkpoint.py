"""Atomic, digest-verified training checkpoints with resume.

Layout under the checkpoint root::

    manifest.json               index: format, fingerprint, checkpoints
    checkpoint-<step>.bin       full training state after <step> steps

A ``.bin`` blob is one line of JSON header followed by raw array bytes.
The header holds the payload's scalars and lists (step counters, loss
curves, model config, tokenizer) under ``"state"`` and, under
``"arrays"``, the dtype, shape and byte offset of every array in the
payload's array lists (params and both Adam moments), in order.  The
array region is the arrays' native bytes back to back, so a write is a
handful of buffer copies and a read is bit-exact.

**Write discipline** (journal-first, mirroring ``repro.serve.store``):
a checkpoint blob is atomically renamed into place *before* the
manifest is rewritten to point at it, and the manifest records the
sha256 of the whole blob.  A crash between the two writes leaves the
manifest pointing at the previous checkpoint, which is always safe:
replaying the extra steps from there is deterministic and converges on
identical weights.  Renames are atomic against process death but not
fsynced, so after a power loss a blob can come back torn; it then fails
its sha256 and :meth:`CheckpointStore.latest` walks back to an older
one.  A fingerprint mismatch (different train config, different
dataset, format bump) discards old checkpoints instead of resuming
across incompatible state.

**Fault injection.** ``REPRO_TRAIN_CRASH_AFTER`` SIGKILLs the process
around the Nth checkpoint write; ``REPRO_TRAIN_CRASH_MODE`` picks the
point — ``kill`` after the full commit (blob + manifest), ``early``
after the blob but *before* the manifest update (exercising the
journal-first ordering).  See ``tests/test_train_service.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal

import numpy as np

from ..core.records import atomic_write_bytes
from ..scale.cache import read_manifest, write_manifest

#: Bump when the checkpoint blob format changes; old stores are
#: discarded (training restarts from scratch — still deterministic).
#: v2: payloads carry ``model_config`` + ``tokenizer`` so inference
#: can load weights straight from a checkpoint directory.
#: v3: one raw-binary ``.bin`` blob per checkpoint (was base64 JSON).
TRAIN_FORMAT_VERSION = 3

#: Environment hooks for the SIGKILL-at-checkpoint tests.
CRASH_AFTER_ENV = "REPRO_TRAIN_CRASH_AFTER"
CRASH_MODE_ENV = "REPRO_TRAIN_CRASH_MODE"

#: Checkpoints kept in the manifest (latest N; older files unlinked).
KEEP_CHECKPOINTS = 2


def state_digest(arrays: list[np.ndarray]) -> str:
    """sha256 over the raw bytes (+ shapes) of an ordered array list."""
    hasher = hashlib.sha256()
    for array in arrays:
        contiguous = np.ascontiguousarray(array)
        hasher.update(str(contiguous.shape).encode("utf-8"))
        hasher.update(str(contiguous.dtype).encode("utf-8"))
        hasher.update(contiguous.tobytes())
    return hasher.hexdigest()


class CheckpointStore:
    """Manifest-indexed checkpoint blobs for one training run.

    ``fingerprint`` must hash everything that defines the run (format
    version, train config, dataset digest); a store opened under a
    different fingerprint starts clean rather than resuming
    incompatible state.
    """

    def __init__(self, root: str, fingerprint: str,
                 crash_after: int | None = None,
                 crash_mode: str | None = None):
        self.root = root
        self.fingerprint = fingerprint
        self.writes = 0
        if crash_after is None:
            crash_after = int(os.environ.get(CRASH_AFTER_ENV, "0") or 0)
            crash_mode = crash_mode or os.environ.get(CRASH_MODE_ENV)
        self._crash_after = crash_after or 0
        self._crash_mode = crash_mode or "kill"
        # A stale store (other config/data/format) starts clean; .json
        # names v2 blobs, so a format bump drops them too.
        manifest = read_manifest(root, TRAIN_FORMAT_VERSION, fingerprint,
                                 root, "checkpoint-", (".bin", ".json"))
        #: ``[{step, file, sha256}]``, oldest first.
        self._checkpoints: list[dict] = list(manifest.get("checkpoints",
                                                          []))

    # -- save / load ------------------------------------------------------

    def _crash(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def save(self, step: int, payload: dict) -> None:
        """Commit one checkpoint: blob first, then the manifest entry.

        Every non-empty list of ndarrays in ``payload`` goes to the raw
        array region; everything else must be JSON-safe.  The arrays are
        written before this returns, so callers may hand over live
        state.
        """
        chunks = _pack(payload)
        hasher = hashlib.sha256()
        for chunk in chunks:
            hasher.update(chunk)
        path = os.path.join(self.root, f"checkpoint-{step:08d}.bin")
        atomic_write_bytes(path, chunks)
        self.writes += 1
        fire = self._crash_after and self.writes >= self._crash_after
        if fire and self._crash_mode == "early":
            self._crash()       # blob in place, manifest not yet updated
        entry = {"step": step, "file": os.path.basename(path),
                 "sha256": hasher.hexdigest()}
        self._checkpoints = [c for c in self._checkpoints
                             if c["step"] != step] + [entry]
        self._checkpoints.sort(key=lambda c: c["step"])
        dropped = self._checkpoints[:-KEEP_CHECKPOINTS]
        self._checkpoints = self._checkpoints[-KEEP_CHECKPOINTS:]
        write_manifest(self.root, TRAIN_FORMAT_VERSION, self.fingerprint,
                       {"checkpoints": self._checkpoints})
        for old in dropped:     # after the manifest stops naming them
            try:
                os.unlink(os.path.join(self.root, old["file"]))
            except OSError:
                pass
        if fire:
            self._crash()       # full commit completed

    def latest(self) -> dict | None:
        """The newest digest-verified checkpoint payload, or None.

        Walks backwards past corrupt/missing blobs (e.g. a crash that
        beat the unlink of a superseded file, or a blob torn by power
        loss) — resuming from an older checkpoint is always correct,
        just slower.
        """
        for entry in reversed(self._checkpoints):
            path = os.path.join(self.root, entry["file"])
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                continue
            if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
                continue
            try:
                return _unpack(blob)
            except (ValueError, KeyError, TypeError):
                continue
        return None


def _pack(payload: dict) -> list:
    """``payload`` as blob chunks: the header line, then each array."""
    state: dict = {}
    layout: dict = {}
    arrays: list[np.ndarray] = []
    offset = 0
    for key, value in payload.items():
        if (isinstance(value, list) and value
                and all(isinstance(a, np.ndarray) for a in value)):
            entries = layout[key] = []
            for array in value:
                array = np.ascontiguousarray(array)
                entries.append({"dtype": array.dtype.str,
                                "shape": list(array.shape),
                                "offset": offset})
                arrays.append(array)
                offset += array.nbytes
        else:
            state[key] = value
    header = json.dumps({"state": state, "arrays": layout},
                        ensure_ascii=False, sort_keys=True)
    return [header.encode("utf-8") + b"\n", *arrays]


def _unpack(blob: bytes) -> dict:
    """Inverse of :func:`_pack` over the joined chunks (arrays are
    fresh, writable copies)."""
    split = blob.index(b"\n")
    header = json.loads(blob[:split])
    data = memoryview(blob)[split + 1:]
    payload = dict(header["state"])
    for key, entries in header["arrays"].items():
        payload[key] = [
            np.frombuffer(data, dtype=np.dtype(entry["dtype"]),
                          count=math.prod(entry["shape"]),
                          offset=entry["offset"])
            .reshape(entry["shape"]).copy()
            for entry in entries]
    return payload
