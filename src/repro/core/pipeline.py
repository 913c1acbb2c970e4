"""The full design-data augmentation pipeline (paper Fig. 4).

``AugmentationPipeline`` wires every stage together:

1. multi-level completion (Sec. 3.1.1),
2. program-analysis NL alignment (Sec. 3.1.2),
3. rule-based mutation → repair pairs (Sec. 3.2.1),
4. checker-feedback repair pairs (Sec. 3.2.2),
5. EDA-script description pairs (Sec. 3.3),

then trims over-length records (Sec. 4 "Implementation").  Every stage can
be disabled individually, which is how the ablation experiments (Fig. 7 /
Table 5 "General Aug") build their completion-only datasets.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

from .alignment import alignment_records
from .completion import completion_records
from .records import Dataset, Record, Task
from .repair import feedback_repair_records, repair_records
from .script_aug import Describer, script_records


@dataclass
class PipelineConfig:
    """Stage toggles and per-stage knobs."""

    completion: bool = True
    alignment: bool = True
    repair: bool = True
    repair_feedback: bool = True
    eda_scripts: bool = True
    include_partial_alignment: bool = True
    repair_variants: int = 3
    max_mutations: int = 5
    statement_cap: int | None = 64
    token_cap: int | None = 256
    max_tokens: int = 1800          # trimming budget ≈ Llama-2 context
    seed: int = 0

    @staticmethod
    def completion_only() -> "PipelineConfig":
        """The paper's "general data generation" ablation baseline."""
        return PipelineConfig(alignment=False, repair=False,
                              repair_feedback=False, eda_scripts=False)

    @staticmethod
    def nl_only() -> "PipelineConfig":
        """Fig. 7 ablation: only natural-language-aligned data."""
        return PipelineConfig(completion=False, repair=False,
                              repair_feedback=False, eda_scripts=False)

    def fingerprint(self) -> str:
        """Stable hash of every knob that affects pipeline output.

        ``repro.scale`` stamps cached shard results with this value, so
        changing any stage toggle or cap invalidates the whole cache
        rather than silently serving records built under old settings.
        """
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class PipelineReport:
    """What the pipeline produced (before/after trimming)."""

    dataset: Dataset
    raw_count: int = 0
    trimmed_count: int = 0
    per_task: dict[Task, int] = field(default_factory=dict)


def content_seed(text: str, base_seed: int = 0) -> int:
    """Per-file RNG seed derived from the *content* of ``text``.

    Mixing the pipeline-level seed with a SHA-256 digest of the source
    makes every downstream random choice (mutation selection, repair
    variants) a pure function of ``(text, base_seed)``: identical files
    produce identical records no matter where they sit in the corpus or
    which worker processes them.  This is what lets ``repro.scale``
    shard a corpus and still merge byte-identical output.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (base_seed * 1_000_003
            + int.from_bytes(digest[:8], "big")) & ((1 << 63) - 1)


def augment_file(text: str, config: PipelineConfig | None = None,
                 seed: int | None = None) -> list[Record]:
    """Run every per-file stage over one Verilog source.

    Pure function: output depends only on ``(text, config, seed)``.
    Both the serial :class:`AugmentationPipeline` and the sharded
    :func:`repro.scale.augment_distributed` call this (and
    :func:`report_fields`), so the two paths can never drift apart.
    ``seed`` defaults to ``content_seed(text, config.seed)``.
    """
    config = config or PipelineConfig()
    if seed is None:
        seed = content_seed(text, config.seed)
    records: list[Record] = []
    if config.completion:
        records.extend(completion_records(
            text, statement_cap=config.statement_cap,
            token_cap=config.token_cap))
    if config.alignment:
        records.extend(alignment_records(
            text, include_partial=config.include_partial_alignment))
    if config.repair:
        records.extend(repair_records(
            text, seed=seed,
            variants=config.repair_variants,
            max_mutations=config.max_mutations))
    if config.repair_feedback:
        records.extend(feedback_repair_records(
            text, seed=seed + 7,
            variants=config.repair_variants,
            max_mutations=config.max_mutations))
    return records


class AugmentationPipeline:
    """Run the full framework over a corpus of Verilog files."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()

    def run(self, verilog_files: Iterable[str],
            eda_scripts: Iterable[str] = (),
            describer: Describer | None = None) -> PipelineReport:
        """Serially augment ``verilog_files`` (any iterable — it is
        streamed, never materialised).

        Compat note: per-file seeds used to be derived from the file's
        *position* in the corpus, so reordering the corpus changed the
        generated repair pairs.  Seeds are now content-based (see
        :func:`content_seed`); identical files yield identical records
        regardless of corpus ordering or duplication.
        """
        dataset = Dataset()
        for text in verilog_files:
            dataset.extend(augment_file(text, self.config))
        return PipelineReport(**report_fields(dataset, self.config,
                                              eda_scripts, describer))


def report_fields(dataset: Dataset, config: PipelineConfig,
                  eda_scripts: Iterable[str],
                  describer: Describer | None) -> dict:
    """The tail every augmentation run shares: append the EDA-script
    records, trim over-length records, count what is left.  Returns
    :class:`PipelineReport`'s fields."""
    if config.eda_scripts and eda_scripts:
        if describer is None:
            from .script_aug import default_describer
            describer = default_describer()
        dataset.extend(script_records(eda_scripts, describer))
    raw_count = len(dataset)
    trimmed = dataset.trimmed(config.max_tokens)
    return {"dataset": trimmed, "raw_count": raw_count,
            "trimmed_count": raw_count - len(trimmed),
            "per_task": trimmed.task_counts()}
