"""The sharded, parallel, incremental augmentation service.

Orchestrates the subsystem end-to-end::

    CorpusStore ──▶ ResultCache lookups ──▶ ShardRunner (dirty shards)
         │                                        │
         └────────── canonical merge ◀────────────┘
                          │
                      ScaleReport

The merged dataset is byte-identical to running the serial
:class:`~repro.core.AugmentationPipeline` over the same corpus sorted by
content digest — regardless of ``jobs``, shard count, input order, or
which shards came from the cache.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.pipeline import PipelineConfig
from ..core.records import Dataset, Record
from ..core.script_aug import Describer, script_records
from .cache import ResultCache, shard_key
from .report import ScaleReport
from .runner import ShardRunner
from .store import DEFAULT_NUM_SHARDS, CorpusStore


class AugmentationService:
    """Reusable front-end over store + cache + runner."""

    def __init__(self, config: PipelineConfig | None = None, jobs: int = 1,
                 cache_dir: str | None = None,
                 num_shards: int = DEFAULT_NUM_SHARDS):
        self.config = config or PipelineConfig()
        self.jobs = max(1, jobs)
        self.cache_dir = cache_dir
        self.num_shards = num_shards

    def run(self, paths: Iterable[str], eda_scripts: Iterable[str] = (),
            describer: Describer | None = None) -> ScaleReport:
        config = self.config
        store = CorpusStore(paths, num_shards=self.num_shards)
        shards = store.shards()
        cache = (ResultCache(self.cache_dir, config.fingerprint())
                 if self.cache_dir else None)

        by_digest: dict[str, list[Record]] = {}
        dirty: dict[int, list] = {}
        keys: dict[int, str] = {}
        shards_cached = 0
        for index, members in shards.items():
            keys[index] = shard_key(config.fingerprint(),
                                    [s.digest for s in members])
            cached = (cache.lookup(index, keys[index])
                      if cache is not None else None)
            if cached is not None:
                shards_cached += 1
                by_digest.update(cached)
            else:
                dirty[index] = members

        if dirty:
            def on_shard_done(index: int,
                              results: dict[str, list[Record]]) -> None:
                if cache is not None:
                    cache.store(index, keys[index], results)
                    cache.flush()   # interrupted runs keep finished shards

            runner = ShardRunner(config, jobs=self.jobs)
            for results in runner.run(dirty, on_shard_done).values():
                by_digest.update(results)
        if cache is not None:
            cache.flush()

        dataset = Dataset()
        for source in store.merge_order():
            dataset.extend(by_digest[source.digest])
        if config.eda_scripts and eda_scripts:
            if describer is None:
                from ..core.script_aug import default_describer
                describer = default_describer()
            dataset.extend(script_records(eda_scripts, describer))

        raw_count = len(dataset)
        trimmed = dataset.trimmed(config.max_tokens)
        return ScaleReport(
            dataset=trimmed, raw_count=raw_count,
            trimmed_count=raw_count - len(trimmed),
            per_task=trimmed.task_counts(),
            files_total=len(store.discover()),
            shards_total=len(shards), shards_cached=shards_cached,
            shards_computed=len(dirty),
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            cache_enabled=cache is not None, jobs=self.jobs)


def augment_distributed(paths: Iterable[str],
                        config: PipelineConfig | None = None, jobs: int = 1,
                        cache_dir: str | None = None,
                        num_shards: int = DEFAULT_NUM_SHARDS,
                        eda_scripts: Iterable[str] = (),
                        describer: Describer | None = None) -> ScaleReport:
    """One-shot convenience wrapper around :class:`AugmentationService`."""
    service = AugmentationService(config, jobs=jobs, cache_dir=cache_dir,
                                  num_shards=num_shards)
    return service.run(paths, eda_scripts=eda_scripts, describer=describer)
