"""Dataset serialisation and the n-gram training path.

* ``records_to_text`` serialises instruction records the way the paper's
  finetuning does (instruct + input + output in one context window);
* ``split_dataset`` is the deterministic train/validation split;
* ``train_ngram`` fits the n-gram model, the fast stand-in the Fig. 3
  scaling law (``scaling_curve``) and the Fig. 7 ablation are defined on;
  ``TrainResult.final_loss`` is the quantity they compare.

The transformer is trained by :class:`repro.train.TrainerService`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.records import Dataset, Record
from .ngram import NGramModel
from .tokenizer import Tokenizer


def prompt_text(instruct: str, inp: str = "") -> str:
    """The finetuning record layout with the output left open."""
    return f"### instruct: {instruct}\n### input: {inp}\n### output:"


def record_to_text(record: Record) -> str:
    """One training document per record, paper's three-field layout."""
    return f"{prompt_text(record.instruct, record.input)} {record.output}"


def records_to_text(dataset: Dataset) -> list[str]:
    return [record_to_text(record) for record in dataset]


def split_dataset(dataset: Dataset, val_fraction: float = 0.1,
                  seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic train/validation split."""
    import random
    records = list(dataset)
    random.Random(seed).shuffle(records)
    cut = max(1, int(len(records) * (1 - val_fraction)))
    return Dataset(records=records[:cut]), Dataset(records=records[cut:])


@dataclass
class TrainResult:
    """Validation loss of one n-gram fit."""

    val_losses: list[float] = field(default_factory=list)
    trained_tokens: int = 0

    @property
    def final_loss(self) -> float:
        return self.val_losses[-1] if self.val_losses else float("inf")


# --------------------------------------------------------------------------
# n-gram path (fast — used by Fig. 3 / Fig. 7 benches)
# --------------------------------------------------------------------------

def train_ngram(train_set: Dataset, val_set: Dataset,
                tokenizer: Tokenizer | None = None,
                order: int = 3) -> tuple[NGramModel, TrainResult, Tokenizer]:
    """Fit a backoff n-gram on the dataset; loss = validation NLL/token."""
    texts = records_to_text(train_set)
    if tokenizer is None:
        tokenizer = Tokenizer.train(texts)
    sequences = [tokenizer.encode(text, add_special=True) for text in texts]
    model = NGramModel(order=order)
    model.fit(sequences, vocab_size=len(tokenizer))
    val_sequences = [tokenizer.encode(text, add_special=True)
                     for text in records_to_text(val_set)]
    result = TrainResult(trained_tokens=model.trained_tokens)
    result.val_losses.append(model.cross_entropy(val_sequences))
    return model, result, tokenizer


# --------------------------------------------------------------------------
# Fig. 3: scaling law
# --------------------------------------------------------------------------

def scaling_curve(dataset: Dataset, fractions: list[float],
                  seed: int = 0, order: int = 3
                  ) -> list[tuple[int, float]]:
    """(train tokens, val loss) at growing dataset fractions (n-gram).

    A shared validation split and tokenizer keep the points comparable;
    the paper's Fig. 3 claim is that loss decreases monotonically-ish as
    data volume grows.
    """
    train_all, val = split_dataset(dataset, val_fraction=0.15, seed=seed)
    texts = records_to_text(train_all)
    tokenizer = Tokenizer.train(texts)
    points: list[tuple[int, float]] = []
    for fraction in fractions:
        count = max(1, int(len(train_all.records) * fraction))
        subset = Dataset(records=train_all.records[:count])
        model, result, _ = train_ngram(subset, val, tokenizer=tokenizer,
                                       order=order)
        points.append((result.trained_tokens, result.final_loss))
    return points
