"""Sharded, parallel, cache-aware execution infrastructure.

The one-shot :class:`~repro.core.AugmentationPipeline` scaled out —
and the generic work-pool + content-addressed-cache layer that the
evaluation engine (:mod:`repro.eval.engine`) builds on:

* :mod:`store`   — lazy corpus discovery + deterministic sharding
* :mod:`cache`   — :class:`ManifestCache` (generic), :class:`ResultCache`
  (augmentation shards), :class:`LRUCache` (bounded in-memory layer),
  and the one reader/writer of the ``manifest.json`` format
* :mod:`runner`  — :class:`WorkPool` and :func:`cached_map` (generic),
  :func:`run_shard` (one augmentation shard)
* :mod:`report`  — merged :class:`ScaleReport` (a ``PipelineReport``)
* :mod:`service` — :func:`augment_distributed`, the one augmentation
  entry point behind ``repro augment`` and the train job's corpus load

Output is order-, parallelism- and cache-invariant: see
``ROADMAP.md`` ("repro.scale architecture") for the guarantees.
"""

from .cache import (CACHE_FORMAT_VERSION, LRUCache, ManifestCache,
                    ResultCache, cache_counters, shard_key)
from .report import ScaleReport
from .runner import WorkPool, cached_map, run_shard
from .service import augment_distributed
from .store import (DEFAULT_NUM_SHARDS, VERILOG_EXTENSIONS, CorpusStore,
                    SourceFile, sha256_text, shard_of_path)

__all__ = [
    "CorpusStore", "SourceFile", "sha256_text", "shard_of_path",
    "VERILOG_EXTENSIONS", "DEFAULT_NUM_SHARDS",
    "ManifestCache", "ResultCache", "LRUCache", "shard_key",
    "CACHE_FORMAT_VERSION", "cache_counters",
    "WorkPool", "cached_map", "run_shard",
    "ScaleReport", "augment_distributed",
]
