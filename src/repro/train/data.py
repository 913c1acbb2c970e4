"""Deterministic training data: shard-cache loading, epoch schedules and
the validation loss.

**Corpus loading.** Training data comes from the same sharded,
content-addressed augmentation layer the rest of the system uses: a
train job loads its corpus through the augment job's code
(``repro.serve.executor.run_augment``) with a shard cache attached, so
a pipeline whose augment stage already ran sees ``misses == 0`` —
every shard is *read* from the cache, nothing is re-augmented — and the
merged dataset is in canonical (content digest, discovery index) order
regardless of corpus listing, shard count or ``jobs``.

**Schedules.** Everything downstream is a pure function of
``(dataset digest, train config)``: the per-epoch permutation is seeded
by :func:`stable_seed` (a content hash, mirroring
``repro.core.content_seed``), and :func:`epoch_plan` slices the
permuted sequences into macro-steps of fixed micro-batches.  The
service reduces each step's micro-batch gradients in that fixed index
order, so a resumed run replays bit-identical steps.

**Validation.** :func:`evaluate_transformer` scores held-out sequences
in fixed batches of 8 under a fixed permutation, so a run's
``val_losses`` depend on the weights alone.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..core.records import Dataset
from ..llm.tiny_transformer import TinyTransformerLM
from ..llm.tokenizer import Tokenizer
from ..llm.trainer import records_to_text


def dataset_digest(dataset: Dataset) -> str:
    """Content digest of a dataset in its lossless record form.

    The anchor for every derived seed and for checkpoint-store
    compatibility: two corpora that merge to the same records train
    identically, and an edited corpus invalidates old checkpoints.
    """
    hasher = hashlib.sha256()
    for record in dataset:
        hasher.update(json.dumps(record.to_dict(), ensure_ascii=False,
                                 sort_keys=True).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def stable_seed(*parts: object) -> int:
    """Content-hash seed (process-hash-randomisation-proof)."""
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def encode_sequences(dataset: Dataset, tokenizer: Tokenizer
                     ) -> list[list[int]]:
    """Token-id sequences in dataset (= canonical) order."""
    return [tokenizer.encode(text, add_special=True)
            for text in records_to_text(dataset)]


def _pad_batch(sequences: list[list[int]], pad_id: int,
               seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, targets) arrays for one micro-batch; targets −1 on pads."""
    batch_ids, batch_targets = [], []
    for sequence in sequences:
        clipped = sequence[:seq_len + 1]
        ids = clipped[:-1]
        targets = clipped[1:]
        pad = seq_len - len(ids)
        batch_ids.append(ids + [pad_id] * pad)
        batch_targets.append(targets + [-1] * pad)
    return np.array(batch_ids), np.array(batch_targets)


def epoch_plan(sequences: list[list[int]], digest: str, seed: int,
               epoch: int, batch_size: int, micro_batch: int,
               seq_len: int, pad_id: int
               ) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The epoch's optimizer steps: ``[step][micro] -> (ids, targets)``.

    Sequences are permuted with a seed derived from
    ``(dataset digest, seed, epoch)``, sliced into macro-steps of
    ``batch_size`` and further into micro-batches of ``micro_batch``.
    A pure function of its arguments, so a resumed run rebuilds exactly
    the steps (and micro-batch reduction order) it left off in.
    """
    rng = np.random.default_rng(stable_seed("epoch", digest, seed, epoch))
    order = rng.permutation(len(sequences))
    usable = [sequences[i] for i in order if len(sequences[i]) >= 2]
    plan: list[list[tuple[np.ndarray, np.ndarray]]] = []
    for start in range(0, len(usable), batch_size):
        macro = usable[start:start + batch_size]
        micros = [_pad_batch(macro[m:m + micro_batch], pad_id, seq_len)
                  for m in range(0, len(macro), micro_batch)]
        plan.append(micros)
    return plan


def evaluate_transformer(model: TinyTransformerLM,
                         sequences: list[list[int]], pad_id: int,
                         seq_len: int) -> float:
    """Mean of per-batch mean losses over ``sequences`` (no gradients).

    Batches of 8 under a ``default_rng(0)`` permutation; sequences
    shorter than 2 tokens carry no target and are skipped.
    """
    order = np.random.default_rng(0).permutation(len(sequences))
    usable = [sequences[i] for i in order if len(sequences[i]) >= 2]
    losses = [model.evaluate_loss(*_pad_batch(usable[start:start + 8],
                                              pad_id, seq_len))
              for start in range(0, len(usable), 8)]
    return float(np.mean(losses)) if losses else float("inf")
