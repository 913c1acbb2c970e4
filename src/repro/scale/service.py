"""The sharded, parallel, incremental augmentation entry point.

:func:`augment_distributed` runs the subsystem end-to-end::

    CorpusStore ──▶ cached_map(run_shard) over a ResultCache
         │                       │
         └──── canonical merge ◀─┘
                     │
                 ScaleReport

The merged dataset is byte-identical to running the serial
:class:`~repro.core.AugmentationPipeline` over the same corpus sorted by
content digest — regardless of ``jobs``, shard count, input order, or
which shards came from the cache.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.pipeline import PipelineConfig, report_fields
from ..core.records import Dataset
from ..core.script_aug import Describer
from .cache import ResultCache, shard_key
from .report import ScaleReport
from .runner import WorkPool, cached_map, run_shard
from .store import DEFAULT_NUM_SHARDS, CorpusStore


def augment_distributed(paths: Iterable[str],
                        config: PipelineConfig | None = None, jobs: int = 1,
                        cache_dir: str | None = None,
                        num_shards: int = DEFAULT_NUM_SHARDS,
                        eda_scripts: Iterable[str] = (),
                        describer: Describer | None = None) -> ScaleReport:
    """Augment every Verilog file under ``paths``, one shard per work
    item; ``cache_dir`` serves unchanged shards from disk (the manifest
    is flushed after every computed shard)."""
    config = config or PipelineConfig()
    fingerprint = config.fingerprint()
    store = CorpusStore(paths, num_shards=num_shards)
    shards = store.shards()
    cache = ResultCache(cache_dir, fingerprint) if cache_dir else None
    pool = WorkPool(jobs)
    hits, computed = cached_map(
        pool, run_shard,
        {index: ([(s.digest, s.path) for s in members], config)
         for index, members in shards.items()},
        cache, slot=str,
        key=lambda index: shard_key(fingerprint,
                                    [s.digest for s in shards[index]]),
        flush_every=1)

    by_digest = {}
    for results in (*hits.values(), *computed.values()):
        by_digest.update(results)
    dataset = Dataset()
    for source in store.merge_order():
        dataset.extend(by_digest[source.digest])
    return ScaleReport(
        **report_fields(dataset, config, eda_scripts, describer),
        files_total=len(store.discover()), shards_total=len(shards),
        shards_cached=len(hits), shards_computed=len(computed),
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        cache_enabled=cache is not None, jobs=pool.jobs)
