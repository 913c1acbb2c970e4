"""Content-addressed, manifest-indexed result caches.

:class:`ManifestCache` is the generic layer: a directory of atomically
written entry files indexed by ``manifest.json``.  Every entry lives in a
*slot* (a stable identity — "which piece of work") and is stamped with a
*key* (a content hash — "computed from what").  A lookup whose key no
longer matches is a miss, so touching one input invalidates exactly the
slots derived from it, while a fingerprint or format-version change
discards the whole cache.

Two subclasses specialise the payload encoding:

* :class:`ResultCache` — augmentation shards (``digest -> records`` in
  JSONL, one line per source file), used by ``repro augment``;
* ``repro.eval.engine.EvalCache`` — one JSON blob per benchmark cell.

The manifest format itself lives here once: :func:`read_manifest` (the
version/fingerprint check and the stale-file wipe) and
:func:`write_manifest` (the atomic write) serve these caches and
``repro.train.checkpoint.CheckpointStore``, and :func:`cache_counters`
reads every cache's ``last_run`` counters back.

Invalidation rules (see ROADMAP "repro.scale architecture"):

* a slot's **key** hashes the config fingerprint plus the content of its
  inputs — touching one input changes exactly the affected keys;
* a manifest written under a different fingerprint or format version is
  discarded wholesale;
* entry files are written atomically, so a crashed writer leaves either
  the old entry or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Generic, TypeVar

from ..core.records import Record, atomic_write_text

#: Bump when the shard line format changes; invalidates old caches.
CACHE_FORMAT_VERSION = 1

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded in-memory cache with least-recently-used eviction.

    The in-memory layer of the evaluation engine (candidate verdict
    memoisation) uses this so long sweeps cannot grow without limit.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K, default: V | None = None) -> V | None:
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data


MANIFEST = "manifest.json"


def read_manifest(root: str, version: int, fingerprint: str,
                  entry_dir: str, prefix: str,
                  suffix: str | tuple[str, ...]) -> dict:
    """``root``'s manifest if it was written under ``version`` and
    ``fingerprint``, else ``{}``.

    A manifest from another format or config is stale: its entry files
    (``<prefix>…<suffix>`` in ``entry_dir``) are unlinked so they do not
    pile up.  A missing or unreadable manifest just reads empty.
    """
    try:
        with open(os.path.join(root, MANIFEST), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return {}
    if (isinstance(manifest, dict) and manifest.get("version") == version
            and manifest.get("fingerprint") == fingerprint):
        return manifest
    try:
        names = os.listdir(entry_dir)
    except OSError:
        return {}
    for name in names:
        if name.startswith(prefix) and name.endswith(suffix):
            try:
                os.unlink(os.path.join(entry_dir, name))
            except OSError:
                pass
    return {}


def write_manifest(root: str, version: int, fingerprint: str,
                   fields: dict) -> None:
    """Atomically write ``root``'s manifest: format, fingerprint and
    ``fields``."""
    manifest = {"version": version, "fingerprint": fingerprint, **fields}
    atomic_write_text(os.path.join(root, MANIFEST),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cache_counters(workdir: str) -> dict[str, dict]:
    """``relative dir → last_run`` for every cache manifest under
    ``workdir`` (manifests without ``last_run``, such as training
    checkpoints', are not caches and are left out)."""
    counters = {}
    for root, _, names in sorted(os.walk(workdir)):
        if MANIFEST not in names:
            continue
        try:
            with open(os.path.join(root, MANIFEST),
                      encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(manifest, dict) and "last_run" in manifest:
            counters[os.path.relpath(root, workdir)] = manifest["last_run"]
    return counters


class ManifestCache:
    """Manifest-indexed store of per-slot results.

    Subclasses set the class attributes below and implement
    :meth:`_encode` / :meth:`_decode`; everything else — manifest
    validation, stale-file pruning, atomic writes, hit/miss accounting —
    is shared.
    """

    #: Format version written into (and required of) the manifest.
    version: int = 1
    #: Subdirectory of ``root`` holding the entry files.
    subdir: str = "entries"
    #: Entry file name pieces: ``<prefix><slot>-<key8><suffix>``.
    file_prefix: str = "entry-"
    file_suffix: str = ".json"
    #: Manifest key for the slot index (kept as ``"shards"`` by the
    #: augmentation cache for backward compatibility).
    entries_field: str = "entries"

    def __init__(self, root: str, fingerprint: str):
        self.root = root
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self._entry_dir = os.path.join(root, self.subdir)
        manifest = read_manifest(root, self.version, fingerprint,
                                 self._entry_dir, self.file_prefix,
                                 self.file_suffix)
        self._entries: dict[str, dict] = manifest.get(self.entries_field,
                                                      {})

    # -- serialisation hooks ----------------------------------------------

    def _encode(self, payload) -> str:
        raise NotImplementedError

    def _decode(self, text: str):
        raise NotImplementedError

    def _entry_meta(self, payload) -> dict:
        """Extra manifest metadata recorded alongside an entry."""
        return {}

    def _entry_path(self, slot: str, key: str) -> str:
        return os.path.join(
            self._entry_dir,
            f"{self.file_prefix}{slot}-{key[:8]}{self.file_suffix}")

    # -- lookup / store ---------------------------------------------------

    def lookup(self, slot, key: str):
        """Cached payload for ``slot``, or ``None``.

        Updates the hit/miss counters that :meth:`flush` writes into the
        manifest — a warm re-run is verifiable as ``misses == 0``.
        """
        entry = self._entries.get(str(slot))
        if entry is None or entry.get("key") != key:
            self.misses += 1
            return None
        path = os.path.join(self.root, entry["file"])
        try:
            with open(path, encoding="utf-8") as handle:
                payload = self._decode(handle.read())
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, slot, key: str, payload) -> None:
        """Persist one slot's payload and index it in the manifest."""
        path = self._entry_path(str(slot), key)
        atomic_write_text(path, self._encode(payload))
        relpath = os.path.relpath(path, self.root)
        old = self._entries.get(str(slot))
        if (old is not None and old.get("key") != key
                and old.get("file") != relpath):
            try:
                os.unlink(os.path.join(self.root, old["file"]))
            except OSError:
                pass
        entry = {"key": key, "file": relpath}
        entry.update(self._entry_meta(payload))
        self._entries[str(slot)] = entry

    def flush(self) -> None:
        """Atomically write the manifest, including last-run counters."""
        write_manifest(self.root, self.version, self.fingerprint, {
            self.entries_field: dict(sorted(self._entries.items())),
            "last_run": {"hits": self.hits, "misses": self.misses}})


def shard_key(fingerprint: str, digests: list[str]) -> str:
    """Cache key for one shard: config fingerprint + member contents."""
    hasher = hashlib.sha256(fingerprint.encode("utf-8"))
    for digest in sorted(digests):
        hasher.update(digest.encode("utf-8"))
    return hasher.hexdigest()


class ResultCache(ManifestCache):
    """Per-shard augmentation results (``digest -> records`` JSONL).

    Layout under ``cache_dir``::

        manifest.json                  index + config fingerprint + counters
        shards/shard-<idx>-<key8>.jsonl   one line per source file

    Each shard line is ``{"file": <content digest>, "records": [...]}``
    with records in the lossless :meth:`repro.core.Record.to_dict` form.
    """

    version = CACHE_FORMAT_VERSION
    subdir = "shards"
    file_prefix = "shard-"
    file_suffix = ".jsonl"
    entries_field = "shards"

    def _entry_path(self, slot: str, key: str) -> str:
        return os.path.join(self._entry_dir,
                            f"shard-{int(slot):04d}-{key[:8]}.jsonl")

    def _encode(self, payload: dict[str, list[Record]]) -> str:
        lines = [json.dumps({"file": digest,
                             "records": [r.to_dict() for r in records]},
                            ensure_ascii=False, sort_keys=True)
                 for digest, records in sorted(payload.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def _decode(self, text: str) -> dict[str, list[Record]]:
        results: dict[str, list[Record]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            blob = json.loads(line)
            results[blob["file"]] = [Record.from_dict(r)
                                     for r in blob["records"]]
        return results

    def _entry_meta(self, payload: dict[str, list[Record]]) -> dict:
        return {"files": sorted(payload)}
