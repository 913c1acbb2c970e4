"""Parallel work execution over a ``concurrent.futures`` pool.

:class:`WorkPool` is the generic layer: map a picklable module-level
function over keyed work items on worker processes (or the calling
thread for ``jobs=1``), with a completion callback per item.
:func:`cached_map` puts a :class:`~repro.scale.cache.ManifestCache` in
front of it; both cached maps of the system run through it — the
augmentation shards (:func:`run_shard`, driven by
:func:`repro.scale.service.augment_distributed`) and the evaluation
engine's benchmark cells (``repro.eval.engine``).

Because every unit of work derives its randomness from *content* hashes
(:func:`repro.core.content_seed`, the behavioural models' stable
hashes), results are independent of which worker ran an item and of the
submission order: parallelism is purely a wall-clock optimisation and
never changes output.
"""

from __future__ import annotations

import concurrent.futures
from collections.abc import Callable
from typing import TypeVar

from ..core.pipeline import PipelineConfig, augment_file
from ..core.records import Record
from .cache import ManifestCache
from .store import sha256_text

K = TypeVar("K")
W = TypeVar("W")
R = TypeVar("R")


class WorkPool:
    """Map a function over keyed work items, optionally in parallel.

    ``jobs <= 1`` runs in-process (no pool, no pickling); ``jobs > 1``
    uses a :class:`~concurrent.futures.ProcessPoolExecutor` whose
    workers each run ``initializer`` first.  ``fn`` must be a
    module-level callable and both items and results must pickle.
    """

    def __init__(self, jobs: int = 1,
                 initializer: Callable[[], None] | None = None):
        self.jobs = max(1, jobs)
        self.initializer = initializer

    def map(self, fn: Callable[[W], R], items: dict[K, W],
            on_done: Callable[[K, R], None] | None = None) -> dict[K, R]:
        """Apply ``fn`` to every item; returns ``key -> result``.

        ``on_done`` fires as each item completes (in completion order) —
        callers use it to write cache entries eagerly so an interrupted
        run still warms the cache for finished work.
        """
        results: dict[K, R] = {}
        if self.jobs == 1 or len(items) <= 1:
            for key, item in items.items():
                results[key] = fn(item)
                if on_done is not None:
                    on_done(key, results[key])
            return results
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(items)),
                initializer=self.initializer) as pool:
            return self._drain(pool, fn, items, on_done)

    @staticmethod
    def _drain(pool: concurrent.futures.Executor,
               fn: Callable[[W], R], items: dict[K, W],
               on_done: Callable[[K, R], None] | None) -> dict[K, R]:
        """Collect every future; successes fire ``on_done`` even when a
        sibling item fails, then the first error (in submission order)
        propagates — so eager cache writes survive partial failures."""
        results: dict[K, R] = {}
        errors: dict[int, BaseException] = {}
        order = {key: pos for pos, key in enumerate(items)}
        futures = {pool.submit(fn, item): key
                   for key, item in items.items()}
        for future in concurrent.futures.as_completed(futures):
            key = futures[future]
            try:
                results[key] = future.result()
            except BaseException as exc:       # noqa: BLE001 - re-raised
                errors[order[key]] = exc
                continue
            if on_done is not None:
                on_done(key, results[key])
        if errors:
            raise errors[min(errors)]
        return results


def cached_map(pool: WorkPool, fn: Callable[[W], R], items: dict[K, W],
               cache: ManifestCache | None, slot: Callable[[K], str],
               key: Callable[[K], str], flush_every: int,
               cached: Callable[[R], object] = lambda result: result,
               ) -> tuple[dict[K, object], dict[K, R]]:
    """Map ``fn`` over the items ``cache`` does not already hold.

    Returns ``(hits, computed)``: the cached payloads of the items the
    cache served and ``fn``'s results for the rest, both keyed like
    ``items``.  ``slot(k)`` and ``key(k)`` address item ``k`` in the
    cache (keys are computed only when a cache is attached).  Each
    result's ``cached(result)`` part is stored as it finishes; the
    manifest is flushed after every ``flush_every`` stores and once
    more on the way out, errors included, so an interrupted run keeps
    every item it finished.
    """
    if cache is None:
        return {}, pool.map(fn, items)
    keys = {k: key(k) for k in items}
    hits: dict[K, object] = {}
    misses: dict[K, W] = {}
    for k, item in items.items():
        found = cache.lookup(slot(k), keys[k])
        if found is None:
            misses[k] = item
        else:
            hits[k] = found
    stored = 0

    def on_done(k: K, result: R) -> None:
        nonlocal stored
        cache.store(slot(k), keys[k], cached(result))
        stored += 1
        if stored % flush_every == 0:
            cache.flush()

    try:
        computed = pool.map(fn, misses, on_done)
    finally:
        cache.flush()
    return hits, computed


def run_shard(payload: tuple[list[tuple[str, str]], PipelineConfig],
              ) -> dict[str, list[Record]]:
    """Augment one shard: ``([(digest, path), ...], config)`` → records.

    Module-level (picklable) so it can run in a process pool.  Workers
    re-read each source from disk — only paths and digests cross the
    process boundary going in — so peak memory stays bounded by the
    largest in-flight shard, not the corpus.  Duplicate contents within
    a shard are computed once.
    """
    members, config = payload
    results: dict[str, list[Record]] = {}
    for digest, path in members:
        if digest in results:
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if sha256_text(text) != digest:
            raise RuntimeError(
                f"{path} changed on disk mid-run (digest mismatch); "
                f"re-run to pick up the new content")
        results[digest] = augment_file(text, config)
    return results
