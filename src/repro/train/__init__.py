"""Checkpointed, sharded finetuning service (the ``repro.train`` layer).

The last one-shot subsystem — ``llm.trainer`` — scaled out the same way
``repro.scale`` scaled augmentation: training becomes a crash-safe,
parallel, cache-aware workload that closes the paper's
augment → train → evaluate loop.

* :mod:`data`       — deterministic corpus loading straight from the
  ``repro.scale`` shard caches (content-ordered, no re-augmentation on
  a warm cache) plus the epoch/batch schedule, a pure function of
  (dataset digest, config)
* :mod:`checkpoint` — :class:`CheckpointStore`: atomic, digest-verified
  ``checkpoint-<step>.bin`` raw-binary blobs behind a journal-first
  manifest (blob renamed into place *before* the manifest points at
  it; a blob torn by power loss fails its sha256 and resume walks back)
* :mod:`worker`     — fused flat-buffer gradient kernel plus the
  resident-worker protocol (weights live in the worker across steps;
  only schedule slices and gradients cross the pool boundary)
* :mod:`shm`        — shared-memory gradient mailboxes for fork pools
  (gradients stop round-tripping through pickle)
* :mod:`tune`       — ``repro tune``: profile a (jobs, pool,
  micro_batch, cadence) grid as ordinary service jobs and persist the
  machine-local winner (``work/tune.json``)
* :mod:`artifact`   — the trained-model artefact and its derived
  behavioural profile (what ``repro.eval`` scores via ``llm.registry``)
* :mod:`service`    — :class:`TrainerService`: data-parallel gradient
  accumulation with canonical-order reduction (loss curves and final
  weights are byte-identical across ``--jobs``) and checkpoint/resume
  (a SIGKILL'd run resumes to bit-identical weights)

See ROADMAP "repro.train" for the guarantees and the proof harness
(``tests/test_train_service.py``, ``tests/test_pipeline_e2e.py``).
"""

from .artifact import (TRAIN_ARTIFACT_VERSION, build_artifact,
                       derive_profile)
from .checkpoint import (CRASH_AFTER_ENV, CRASH_MODE_ENV,
                         TRAIN_FORMAT_VERSION, CheckpointStore,
                         state_digest)
from .data import (corpus_dataset, dataset_digest, encode_sequences,
                   epoch_plan, stable_seed)
from .service import TrainConfig, TrainReport, TrainerService, train_run
from .tune import (TuneCandidate, TuneOutcome, TuneReport, default_grid,
                   load_tuned, save_tuned, tune_corpus)
from .weights import (bundle_from_checkpoint, bundle_from_payload,
                      decode_array, encode_array, model_from_bundle,
                      model_weights_bundle)
from .worker import (FlatGrads, flat_microbatch_grads, microbatch_grads,
                     model_state, resident_close, resident_init,
                     resident_step, run_train_chunk, set_model_state)

__all__ = [
    "TrainConfig", "TrainReport", "TrainerService", "train_run",
    "CheckpointStore", "TRAIN_FORMAT_VERSION", "CRASH_AFTER_ENV",
    "CRASH_MODE_ENV", "encode_array", "decode_array", "state_digest",
    "corpus_dataset", "dataset_digest", "encode_sequences", "epoch_plan",
    "stable_seed",
    "run_train_chunk", "microbatch_grads", "model_state",
    "set_model_state", "FlatGrads", "flat_microbatch_grads",
    "resident_init", "resident_step", "resident_close",
    "TuneCandidate", "TuneOutcome", "TuneReport", "default_grid",
    "tune_corpus", "save_tuned", "load_tuned",
    "build_artifact", "derive_profile", "TRAIN_ARTIFACT_VERSION",
    "model_weights_bundle", "model_from_bundle", "bundle_from_payload",
    "bundle_from_checkpoint",
]
