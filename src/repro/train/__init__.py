"""Checkpointed finetuning service (the ``repro.train`` layer).

The last one-shot subsystem — ``llm.trainer`` — became a service the
same way ``repro.scale`` did for augmentation: training is a
crash-safe, cache-aware workload that closes the paper's
augment → train → evaluate loop.

* :mod:`data`       — deterministic corpus loading straight from the
  ``repro.scale`` shard caches (content-ordered, no re-augmentation on
  a warm cache) plus the epoch/batch schedule, a pure function of
  (dataset digest, config)
* :mod:`checkpoint` — :class:`CheckpointStore`: atomic, digest-verified
  ``checkpoint-<step>.bin`` raw-binary blobs behind a journal-first
  manifest (blob renamed into place *before* the manifest points at
  it; a blob torn by power loss fails its sha256 and resume walks back)
* :mod:`worker`     — the fused flat-buffer gradient kernel
  (:class:`FlatGrads`) and model-state snapshot helpers
* :mod:`weights`    — the portable weights bundle artefacts embed
* :mod:`artifact`   — the trained-model artefact and its derived
  behavioural profile (what ``repro.eval`` scores via ``llm.registry``)
* :mod:`service`    — :class:`TrainerService`: one serial optimizer
  loop with canonical-order gradient reduction and checkpoint/resume
  (a SIGKILL'd run resumes to bit-identical weights)

:mod:`service` states the determinism contract; the proof harness is
``tests/test_train_service.py`` and ``tests/test_pipeline_e2e.py``.
"""

from .artifact import (TRAIN_ARTIFACT_VERSION, build_artifact,
                       derive_profile)
from .checkpoint import (CRASH_AFTER_ENV, CRASH_MODE_ENV,
                         TRAIN_FORMAT_VERSION, CheckpointStore,
                         state_digest)
from .data import (corpus_dataset, dataset_digest, encode_sequences,
                   epoch_plan, stable_seed)
from .service import TrainConfig, TrainReport, TrainerService, train_run
from .weights import (bundle_from_checkpoint, bundle_from_payload,
                      decode_array, encode_array, model_from_bundle,
                      model_weights_bundle)
from .worker import (FlatGrads, flat_microbatch_grads, model_state,
                     set_model_state)

__all__ = [
    "TrainConfig", "TrainReport", "TrainerService", "train_run",
    "CheckpointStore", "TRAIN_FORMAT_VERSION", "CRASH_AFTER_ENV",
    "CRASH_MODE_ENV", "encode_array", "decode_array", "state_digest",
    "corpus_dataset", "dataset_digest", "encode_sequences", "epoch_plan",
    "stable_seed",
    "model_state", "set_model_state", "FlatGrads",
    "flat_microbatch_grads",
    "build_artifact", "derive_profile", "TRAIN_ARTIFACT_VERSION",
    "model_weights_bundle", "model_from_bundle", "bundle_from_payload",
    "bundle_from_checkpoint",
]
