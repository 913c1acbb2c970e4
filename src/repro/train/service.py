"""The checkpointed trainer: one serial optimizer loop.

**Determinism contract.**  For a given BLAS thread count, a run's loss
curve and final weights are a pure function of ``(dataset,
TrainConfig)`` — never of checkpoint cadence, of ``--jobs`` (which
sizes augmentation only), or of how many SIGKILL-and-resume cycles the
run survived.  Three mechanisms enforce this:

1. the epoch/batch schedule is a pure function of the dataset digest
   and config (:func:`repro.train.data.epoch_plan`);
2. per-micro-batch gradients are reduced in canonical micro-batch
   index order, weighted by valid-token counts
   (:func:`_optimizer_step`);
3. checkpoints capture the *complete* optimisation state (weights,
   Adam moments and step count, loss history, schedule position) as
   raw array bytes, so a resumed run replays the remaining steps with
   bit-identical inputs (:mod:`repro.train.checkpoint`).

The BLAS thread count is outside that tuple: a multi-threaded BLAS may
split a matrix product's sums differently from a single-threaded one.
At the sizes every test and the paper loop train (``d_model`` 16–32)
the weights match either way; at ``d_model`` 64 and above, runs with
``OPENBLAS_NUM_THREADS`` unset and set to 1 have been measured to
differ on a 2-CPU host.  Compare weights across hosts or environments
only with the same BLAS budget.

Training runs in-process, on one code path: at this model's size,
splitting a step's micro-batches across worker threads or processes
costs more than it saves (measured on 2 CPUs: slower than serial at
the paper-loop size, and at best 1.11x at ``d_model`` 256 with
single-threaded BLAS).  Checkpoints are written inline: a raw-binary
blob costs a millisecond or two at the paper-loop model size, most of
it the blob's sha256.

Proven by ``tests/test_train_service.py`` (property + SIGKILL
harness).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.records import Dataset
from ..llm.tiny_transformer import Adam, TinyTransformerLM, \
    TransformerConfig
from ..llm.tokenizer import Tokenizer
from ..llm.trainer import records_to_text, split_dataset
from .checkpoint import (TRAIN_FORMAT_VERSION, CheckpointStore,
                         state_digest)
from .data import (dataset_digest, encode_sequences, epoch_plan,
                   evaluate_transformer)
from .weights import model_weights_bundle


@dataclass
class TrainConfig:
    """Every knob that affects training output (all in the fingerprint).

    Defaults are sized for the tiny numpy transformer: small enough
    that a full pipeline run stays interactive, big enough that the
    loss curve genuinely falls.
    """

    epochs: int = 2
    batch_size: int = 4
    micro_batch: int = 2
    seq_len: int = 48
    lr: float = 3e-3
    seed: int = 0
    vocab_size: int = 384
    d_model: int = 16
    n_heads: int = 2
    n_layers: int = 1
    d_ff: int = 32
    #: Canonical-order prefix cap on the training dataset (None = all).
    max_records: int | None = 256
    #: Checkpoint cadence in optimizer steps (0 = final only).
    checkpoint_every: int = 4
    val_fraction: float = 0.1

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.micro_batch < 1:
            raise ValueError("epochs/batch_size/micro_batch must be >= 1")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.d_model % self.n_heads:
            raise ValueError("n_heads must divide d_model")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in (0, 1)")

    def fingerprint(self) -> str:
        """Stable hash of every knob; stamps the checkpoint store."""
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def model_config(self, vocab: int) -> dict:
        """:class:`TransformerConfig` fields for this run's model."""
        return {"vocab_size": vocab, "d_model": self.d_model,
                "n_heads": self.n_heads, "n_layers": self.n_layers,
                "d_ff": self.d_ff, "max_len": self.seq_len,
                "seed": self.seed}


@dataclass
class TrainReport:
    """What one (possibly resumed) run produced.

    Only spec-pure fields belong in service result blobs:
    ``resumed_steps``/``checkpoints_written`` describe *this
    invocation* and differ between a fresh and a resumed run even
    though the trained weights are identical.
    """

    steps: int = 0
    epochs: int = 0
    records: int = 0
    trained_tokens: int = 0
    losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    weights_sha256: str = ""
    dataset_digest: str = ""
    completed: bool = True
    resumed_steps: int = 0
    checkpoints_written: int = 0
    #: Portable weights bundle (see :mod:`repro.train.weights`) — a
    #: pure function of the trained weights + tokenizer, embedded in
    #: artifacts so inference/eval need no filesystem access.
    weights_bundle: dict | None = None

    @property
    def final_loss(self) -> float:
        if self.val_losses:
            return self.val_losses[-1]
        return self.losses[-1] if self.losses else float("inf")

    def summary(self) -> str:
        resumed = (f" [resumed at step {self.resumed_steps}]"
                   if self.resumed_steps else "")
        return (f"{self.steps} step(s) over {self.records} "
                f"record(s){resumed}; final loss "
                f"{self.final_loss:.4f}; weights "
                f"{self.weights_sha256[:12]}")


def model_state(model: TinyTransformerLM) -> list[np.ndarray]:
    """Copies of every parameter tensor, in canonical params() order."""
    return [param.value.copy() for param in model.params()]


def set_model_state(model: TinyTransformerLM,
                    arrays: list[np.ndarray]) -> None:
    """Load a :func:`model_state` snapshot (by copy) into ``model``."""
    params = model.params()
    if len(params) != len(arrays):
        raise ValueError(f"state has {len(arrays)} tensors, model has "
                         f"{len(params)}")
    for param, array in zip(params, arrays):
        if param.value.shape != array.shape:
            raise ValueError(f"shape mismatch {array.shape} vs "
                             f"{param.value.shape}")
        param.value[...] = array


class FlatGrads:
    """Rebind every param's ``.grad`` to slices of one flat buffer.

    Zeroing becomes a single vectorised store and a whole gradient
    reads back as one contiguous vector.  The views alias exactly the
    memory the backward pass accumulates into, so the arithmetic (and
    therefore every loss/weight byte) is that of per-param gradients.
    """

    def __init__(self, model: TinyTransformerLM):
        params = model.params()
        self.size = int(sum(param.value.size for param in params))
        self.flat = np.zeros(self.size)
        offset = 0
        for param in params:
            end = offset + param.value.size
            param.grad = self.flat[offset:end] \
                .reshape(param.value.shape)
            offset = end


def _optimizer_step(model: TinyTransformerLM, optimizer: Adam,
                    grads: FlatGrads, acc: np.ndarray,
                    micros: list) -> float:
    """One optimizer step over one macro-batch's micro-batches.

    Every ``param.grad`` is a view into ``grads.flat``, so each
    micro-batch is zero-the-buffer → backward, which leaves the
    micro-batch's mean gradient over its valid tokens.
    ``acc += count * grad`` then reduces them in canonical micro-batch
    index order (float addition is not associative, so that fixed order
    is part of the determinism contract), one divide lands the
    token-weighted mean back in the flat buffer, and Adam steps.
    Returns the step's token-weighted mean loss.
    """
    acc[...] = 0.0
    loss_sum, total = 0.0, 0
    for ids, targets in micros:
        grads.flat[...] = 0.0
        loss = model.loss_and_backward(ids, targets)
        count = int((targets >= 0).sum())
        loss_sum += loss * count
        total += count
        acc += count * grads.flat
    np.divide(acc, total, out=grads.flat)
    optimizer.step()
    return loss_sum / total


class TrainerService:
    """Run finetuning with checkpoints and bit-identical resume."""

    def __init__(self, config: TrainConfig | None = None,
                 checkpoint_dir: str | None = None):
        self.config = config or TrainConfig()
        self.config.validate()
        self.checkpoint_dir = checkpoint_dir

    # -- checkpoint plumbing ---------------------------------------------

    @staticmethod
    def _payload(model: TinyTransformerLM, optimizer: Adam,
                 steps_done: int, val_done: int, losses: list[float],
                 val_losses: list[float], cfg_blob: dict,
                 tokenizer: Tokenizer) -> dict:
        """The complete training state, over the live arrays (the store
        writes them before returning, so no copies are needed)."""
        params = model.params()
        return {"steps_done": steps_done, "val_done": val_done,
                "losses": losses, "val_losses": val_losses,
                "params": [p.value for p in params],
                "adam_m": [p.m for p in params],
                "adam_v": [p.v for p in params],
                "adam_step": optimizer.step_count,
                # Inference handoff: enough to rebuild model + tokenizer
                # straight from a checkpoint (repro.train.weights).
                "model_config": dict(cfg_blob),
                "tokenizer": list(tokenizer.inverse)}

    @staticmethod
    def _restore(model: TinyTransformerLM, optimizer: Adam,
                 payload: dict) -> None:
        set_model_state(model, payload["params"])
        for param, m, v in zip(model.params(), payload["adam_m"],
                               payload["adam_v"]):
            param.m = m
            param.v = v
        optimizer.step_count = payload["adam_step"]

    # -- the run ----------------------------------------------------------

    def run(self, dataset: Dataset,
            stop_after_steps: int | None = None) -> TrainReport:
        """Train (or resume training) on ``dataset``.

        ``stop_after_steps`` caps the number of optimizer steps
        *executed by this call* (a checkpoint is committed before
        returning) — the in-process interruption hook the resume tests
        drive; production interruption is simply SIGKILL.
        """
        config = self.config
        records = list(dataset)
        if config.max_records is not None:
            records = records[:config.max_records]
        if not records:
            raise ValueError("training dataset is empty")
        capped = Dataset(records=records)
        digest = dataset_digest(capped)
        train_set, val_set = split_dataset(
            capped, val_fraction=config.val_fraction, seed=config.seed)
        tokenizer = Tokenizer.train(records_to_text(train_set),
                                    vocab_size=config.vocab_size)
        sequences = encode_sequences(train_set, tokenizer)
        val_sequences = encode_sequences(val_set, tokenizer)
        if not any(len(s) >= 2 for s in sequences):
            raise ValueError("no trainable sequences in dataset")
        cfg_blob = config.model_config(len(tokenizer))
        model = TinyTransformerLM(TransformerConfig(**cfg_blob))
        optimizer = Adam(model.params(), lr=config.lr)

        store = None
        done_steps = 0
        val_done = 0
        losses: list[float] = []
        val_losses: list[float] = []
        resumed_steps = 0
        if self.checkpoint_dir:
            run_id = hashlib.sha256(
                f"{TRAIN_FORMAT_VERSION}\x1f{config.fingerprint()}"
                f"\x1f{digest}".encode("utf-8")).hexdigest()
            store = CheckpointStore(self.checkpoint_dir, run_id)
            payload = store.latest()
            if payload is not None:
                self._restore(model, optimizer, payload)
                done_steps = payload["steps_done"]
                val_done = payload["val_done"]
                losses = list(payload["losses"])
                val_losses = list(payload["val_losses"])
                resumed_steps = done_steps
        committed = done_steps      # newest step already on disk

        def save(step: int) -> None:
            # The final save repeats a step when the cadence divides it,
            # a stop lands on a cadence step, or nothing ran: skip it.
            nonlocal committed
            if store is None or step == committed:
                return
            store.save(step, self._payload(model, optimizer, step,
                                           val_done, losses, val_losses,
                                           cfg_blob, tokenizer))
            committed = step

        grads = FlatGrads(model)
        acc = np.zeros(grads.size)
        global_step = 0
        executed = 0
        completed = True
        for epoch in range(config.epochs):
            plan = epoch_plan(sequences, digest, config.seed, epoch,
                              config.batch_size, config.micro_batch,
                              config.seq_len, tokenizer.pad_id)
            for micros in plan:
                global_step += 1
                if global_step <= done_steps:
                    continue            # replayed from the checkpoint
                losses.append(_optimizer_step(model, optimizer, grads,
                                              acc, micros))
                done_steps = global_step
                executed += 1
                if (config.checkpoint_every
                        and global_step % config.checkpoint_every == 0):
                    save(global_step)
                if (stop_after_steps is not None
                        and executed >= stop_after_steps):
                    completed = False
                    break
            if not completed:
                break
            if epoch + 1 > val_done:
                val_losses.append(evaluate_transformer(
                    model, val_sequences, tokenizer.pad_id,
                    config.seq_len))
                val_done = epoch + 1
        save(done_steps)            # final (or interruption) checkpoint
        return TrainReport(
            steps=done_steps, epochs=val_done, records=len(capped),
            trained_tokens=sum(len(s) for s in sequences),
            losses=losses, val_losses=val_losses,
            weights_sha256=state_digest(model_state(model)),
            dataset_digest=digest, completed=completed,
            resumed_steps=resumed_steps,
            checkpoints_written=store.writes if store else 0,
            weights_bundle=model_weights_bundle(model, tokenizer))


def train_run(dataset: Dataset, config: TrainConfig | None = None,
              checkpoint_dir: str | None = None,
              stop_after_steps: int | None = None) -> TrainReport:
    """One-shot convenience wrapper around :class:`TrainerService`."""
    service = TrainerService(config, checkpoint_dir=checkpoint_dir)
    return service.run(dataset, stop_after_steps=stop_after_steps)
