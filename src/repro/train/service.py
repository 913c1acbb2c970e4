"""The checkpointed, data-parallel trainer (resident-worker edition).

**Determinism contract.**  A run's loss curve and final weights are a
pure function of ``(dataset, TrainConfig)`` — never of ``jobs``,
thread vs process pools, checkpoint cadence, transport, or how many
SIGKILL-and-resume cycles it survived.  Three mechanisms enforce this:

1. the epoch/batch schedule is a pure function of the dataset digest
   and config (:func:`repro.train.data.epoch_plan`);
2. per-micro-batch gradients are reduced in canonical micro-batch
   index order, weighted by valid-token counts — identical arithmetic
   whether the micro-batches ran inline, on threads, or on forked
   workers (:mod:`repro.train.worker`);
3. checkpoints capture the *complete* optimisation state (weights,
   Adam moments and step count, loss history, schedule position) as
   raw array bytes, so a resumed run replays the remaining steps with
   bit-identical inputs (:mod:`repro.train.checkpoint`).

**The parallel hot path** is :class:`_StepRunner`.  ``jobs=1`` runs the
fused inline kernel (one preallocated gradient buffer, zero copies).
``jobs>1`` keeps a *resident* replica on every worker lane: weights
ship once at session start, each optimizer step crosses the boundary
as (previous step's reduced gradient to replay, this step's schedule
slices) in and per-micro-batch gradients out — via shared-memory
mailboxes on fork pools (:mod:`repro.train.shm`), so the steady state
pickles only index/loss/count tuples.  Replicas stay bit-identical to
the service model by replaying the identical Adam update from the
identical reduced-gradient bytes; a state-digest handshake every
``digest_every`` steps proves it at runtime.  Checkpoints are written
inline: a raw-binary blob costs a millisecond or two at the paper-loop
model size, most of it the blob's sha256.

Proven by ``tests/test_train_service.py`` (property + SIGKILL
harness).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.records import Dataset
from ..llm.tiny_transformer import Adam, TinyTransformerLM, \
    TransformerConfig
from ..llm.tokenizer import Tokenizer
from ..llm.trainer import evaluate_transformer, records_to_text, \
    split_dataset
from ..scale.runner import WorkPool
from .checkpoint import (TRAIN_FORMAT_VERSION, CheckpointStore,
                         state_digest)
from .data import dataset_digest, encode_sequences, epoch_plan
from .shm import open_channel_group
from .weights import model_weights_bundle
from .worker import FlatGrads, flat_microbatch_grads, model_state, \
    resident_close, resident_init, resident_step, set_model_state


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
    ``resumed_steps``/``checkpoints_written``/``transport``/
    ``replica_checks`` describe *this invocation* and differ between a
    fresh and a resumed run (or between pool types) even though the
    trained weights are identical.
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
    jobs: int = 1
    resumed_steps: int = 0
    checkpoints_written: int = 0
    #: How gradients crossed the pool boundary: ``inline`` (no pool),
    #: ``local`` (thread lanes, shared arrays), ``shm`` (process lanes,
    #: shared memory), ``pickle`` (process lanes, fallback).
    transport: str = "inline"
    #: Digest handshakes that confirmed worker replicas bit-identical.
    replica_checks: int = 0
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
        resumed = (f", resumed at step {self.resumed_steps}"
                   if self.resumed_steps else "")
        return (f"{self.steps} step(s) over {self.records} record(s) "
                f"[jobs={self.jobs}{resumed}]; final loss "
                f"{self.final_loss:.4f}; weights "
                f"{self.weights_sha256[:12]}")


#: Per-process counter distinguishing resident sessions (a long-lived
#: process — tests, the daemon — may run many trainings).
_SESSION_IDS = itertools.count()


class _StepRunner:
    """Owns one run's optimizer-step machinery.

    * ``jobs=1`` (or single-micro-batch schedules): the fused inline
      kernel — every ``param.grad`` is a view into one flat buffer
      (:class:`~repro.train.worker.FlatGrads`), so a step is
      zero-the-buffer → backward → weighted accumulate, no per-param
      loops or copies.
    * ``jobs>1``: resident lanes.  Lanes are provisioned lazily on the
      first parallel step (:meth:`WorkPool.ensure_slots` — one
      single-worker executor per lane, so lane ``c`` is always the
      same OS thread/process), weights+Adam state ship once
      (:func:`resident_init`, digest-acknowledged), then every step is
      one :meth:`WorkPool.slot_map` round of :func:`resident_step`.
      Idle lanes (steps with fewer micro-batches than lanes) still
      receive apply-only payloads so no replica misses an update.

    The reduction is identical float arithmetic in both modes:
    ``acc += count * grad`` in micro-batch index order, then one
    divide into the flat buffer, then ``optimizer.step()``.
    """

    def __init__(self, model: TinyTransformerLM, optimizer: Adam,
                 cfg_blob: dict, pool: WorkPool, jobs: int,
                 use_threads: bool, max_micros: int, digest_every: int):
        self.model = model
        self.optimizer = optimizer
        self.cfg_blob = cfg_blob
        self.pool = pool
        self.use_threads = use_threads
        self.digest_every = max(0, digest_every)
        self.grads = FlatGrads(model)
        self.acc = np.zeros(self.grads.size)
        self.width = min(jobs, max_micros) if jobs > 1 else 1
        self.rows = -(-max_micros // self.width)
        self.transport = "inline"
        self.replica_checks = 0
        self.session: str | None = None
        self.group = None
        self._pending = False       # lanes owe a replay of grads.flat
        self._lane_steps = 0

    # -- shared reduction tail --------------------------------------------

    def _apply(self, total: int) -> None:
        """Divide the accumulated gradient and step the optimizer."""
        np.divide(self.acc, total, out=self.grads.flat)
        self.optimizer.step()

    def _digest(self) -> str:
        return state_digest([p.value for p in self.model.params()])

    # -- inline (jobs == 1) -----------------------------------------------

    def _inline_step(self, micros: list) -> float:
        self.acc[...] = 0.0
        loss_sum, total = 0.0, 0
        for ids, targets in micros:
            loss, count = flat_microbatch_grads(self.model, self.grads,
                                                ids, targets)
            loss_sum += loss * count
            total += count
            self.acc += count * self.grads.flat
        self._apply(total)
        return loss_sum / total

    # -- resident lanes (jobs > 1) ----------------------------------------

    def _start_lanes(self) -> None:
        self.width = self.pool.ensure_slots(self.width)
        self.session = f"train-{os.getpid()}-{next(_SESSION_IDS)}"
        self.group = open_channel_group(self.width, self.rows,
                                        self.grads.size,
                                        self.use_threads)
        self.transport = (self.group.kind if self.group is not None
                          else "pickle")
        state = model_state(self.model)
        params = self.model.params()
        base = {"session": self.session, "parent": os.getpid(),
                "config": self.cfg_blob,
                "state": state,
                "adam_m": [p.m for p in params],
                "adam_v": [p.v for p in params],
                "adam_step": self.optimizer.step_count,
                "lr": self.optimizer.lr,
                "betas": (self.optimizer.beta1, self.optimizer.beta2),
                "eps": self.optimizer.eps}
        payloads = {slot: {**base, "slot": slot,
                           "channel": (self.group.specs[slot]
                                       if self.group is not None
                                       else None)}
                    for slot in range(self.width)}
        acks = self.pool.slot_map(resident_init, payloads)
        expected = self._digest()
        for slot, ack in acks.items():
            if ack != expected:
                raise RuntimeError(
                    f"resident lane {slot} installed state {ack[:12]} "
                    f"!= service {expected[:12]}")
        self.replica_checks += 1

    def _lane_step(self, micros: list) -> float:
        if self.session is None:
            self._start_lanes()
        n = len(micros)
        self._lane_steps += 1
        want_digest = bool(
            self._pending and self.digest_every
            and self._lane_steps % self.digest_every == 0)
        expected = self._digest() if want_digest else None
        grad_blob = None
        in_channel = False
        if self._pending:
            # grads.flat still holds the previous step's reduced
            # gradient (nothing wrote it since the last _apply).
            if self.group is not None:
                self.group.bcast[...] = self.grads.flat
                in_channel = True
            else:
                grad_blob = self.grads.flat.copy()
        bounds = [round(i * n / self.width)
                  for i in range(self.width + 1)]
        payloads = {}
        for lane in range(self.width):
            chunk = [(i, micros[i][0], micros[i][1])
                     for i in range(bounds[lane], bounds[lane + 1])]
            payload = {"session": self.session, "slot": lane,
                       "micros": chunk, "want_digest": want_digest,
                       "grad_in_channel": in_channel}
            if grad_blob is not None:
                payload["grad"] = grad_blob
            payloads[lane] = payload
        outs = self.pool.slot_map(resident_step, payloads)
        if want_digest:
            for lane, out in outs.items():
                if out.get("digest") != expected:
                    raise RuntimeError(
                        f"replica drift on lane {lane}: "
                        f"{str(out.get('digest'))[:12]} != service "
                        f"{expected[:12]} after step {self._lane_steps}")
            self.replica_checks += 1
        table: dict[int, tuple[float, int, np.ndarray]] = {}
        for lane, out in outs.items():
            pickled = out.get("grads")
            for pos, (index, row, loss, count) in \
                    enumerate(out["micros"]):
                vec = (self.group.outs[lane][row]
                       if self.group is not None else pickled[pos])
                table[index] = (loss, count, vec)
        self.acc[...] = 0.0
        loss_sum, total = 0.0, 0
        for index in range(n):          # canonical reduction order
            loss, count, vec = table[index]
            loss_sum += loss * count
            total += count
            self.acc += count * vec
        self._apply(total)
        self._pending = True
        return loss_sum / total

    # -- public -----------------------------------------------------------

    def step(self, micros: list) -> float:
        """One optimizer step over one macro-batch's micro-batches."""
        if self.width <= 1:
            return self._inline_step(micros)
        return self._lane_step(micros)

    def shutdown(self) -> None:
        """Tear down lanes + transport.  Safe to call on any failure."""
        if self.session is not None:
            payloads = {lane: {"session": self.session, "slot": lane}
                        for lane in range(self.width)}
            try:
                self.pool.slot_map(resident_close, payloads)
            except Exception:
                pass            # broken pool: workers die with it
            self.session = None
        if self.group is not None:
            self.group.close()
            self.group = None


class TrainerService:
    """Run finetuning with checkpoints, resume, and resident workers."""

    def __init__(self, config: TrainConfig | None = None, jobs: int = 1,
                 use_threads: bool = False,
                 checkpoint_dir: str | None = None,
                 digest_every: int = 16):
        self.config = config or TrainConfig()
        self.config.validate()
        self.jobs = max(1, jobs)
        self.use_threads = use_threads
        self.checkpoint_dir = checkpoint_dir
        #: Replica-digest handshake cadence in lane steps (0 = only the
        #: init handshake).  Operational only — never affects output —
        #: so it lives on the service, not in the fingerprint.
        self.digest_every = digest_every

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

        global_step = 0
        executed = 0
        completed = True
        max_micros = -(-config.batch_size // config.micro_batch)
        with WorkPool(jobs=self.jobs,
                      use_threads=self.use_threads) as pool:
            runner = _StepRunner(model, optimizer, cfg_blob, pool,
                                 self.jobs, self.use_threads,
                                 max_micros, self.digest_every)
            try:
                for epoch in range(config.epochs):
                    plan = epoch_plan(sequences, digest, config.seed,
                                      epoch, config.batch_size,
                                      config.micro_batch,
                                      config.seq_len, tokenizer.pad_id)
                    for micros in plan:
                        global_step += 1
                        if global_step <= done_steps:
                            continue    # replayed from the checkpoint
                        losses.append(runner.step(micros))
                        done_steps = global_step
                        executed += 1
                        if (config.checkpoint_every
                                and global_step
                                % config.checkpoint_every == 0):
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
            finally:
                runner.shutdown()
        save(done_steps)            # final (or interruption) checkpoint
        return TrainReport(
            steps=done_steps, epochs=val_done, records=len(capped),
            trained_tokens=sum(len(s) for s in sequences),
            losses=losses, val_losses=val_losses,
            weights_sha256=state_digest(model_state(model)),
            dataset_digest=digest, completed=completed, jobs=self.jobs,
            resumed_steps=resumed_steps,
            checkpoints_written=store.writes if store else 0,
            transport=runner.transport,
            replica_checks=runner.replica_checks,
            weights_bundle=model_weights_bundle(model, tokenizer))


def train_run(dataset: Dataset, config: TrainConfig | None = None,
              jobs: int = 1, use_threads: bool = False,
              checkpoint_dir: str | None = None,
              stop_after_steps: int | None = None,
              digest_every: int = 16) -> TrainReport:
    """One-shot convenience wrapper around :class:`TrainerService`."""
    service = TrainerService(config, jobs=jobs, use_threads=use_threads,
                             checkpoint_dir=checkpoint_dir,
                             digest_every=digest_every)
    return service.run(dataset, stop_after_steps=stop_after_steps)
