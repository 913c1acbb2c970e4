"""Merged output of a sharded run, in the legacy report shape.

``ScaleReport`` *is a* :class:`~repro.core.PipelineReport` — everything
downstream (``dataset_stats``, ``render_table2``, the experiment
drivers) consumes it unchanged — plus the shard/cache accounting that
the ``augment`` CLI and the scale benchmark print.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import PipelineReport


@dataclass
class ScaleReport(PipelineReport):
    """Pipeline report + sharded-execution accounting."""

    files_total: int = 0
    shards_total: int = 0
    shards_cached: int = 0      #: served straight from the ResultCache
    shards_computed: int = 0    #: augmented by run_shard this run
    cache_hits: int = 0
    cache_misses: int = 0
    cache_enabled: bool = False
    jobs: int = 1

    def summary(self) -> str:
        cache = (f"cache {self.cache_hits} hit(s) / "
                 f"{self.cache_misses} miss(es)"
                 if self.cache_enabled else "cache disabled")
        return (f"{len(self.dataset)} records from {self.files_total} "
                f"file(s) in {self.shards_total} shard(s) "
                f"[{self.shards_cached} cached, {self.shards_computed} "
                f"computed, jobs={self.jobs}, {cache}]")
