"""Job model: kinds, states, spec validation, dependencies.

A *job* is one unit of service work — an augmentation run, a training
run, a benchmark suite evaluation, an inference (decode) request, a
simulation, or a registered experiment — identified by a stable
``job-<seq>`` id.  Specs are
normalised at submit time (defaults filled in, names validated against
the registries) so that a job's spec is canonical from the moment it
is journaled: batching fingerprints and resume behaviour never depend
on when defaults were applied.

``after`` lists job ids that must reach ``done`` before a job becomes
runnable — the DAG edges ``repro pipeline`` uses to chain
augment → train → evaluate.  A failed or cancelled dependency fails
its dependents (transitively).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

#: Every kind the service executes (see ``repro.serve.executor``).
JOB_KINDS = ("augment", "train", "evaluate", "infer", "simulate",
             "experiment", "probe")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class SpecError(ValueError):
    """A submitted job spec is invalid (unknown kind, suite, model…)."""


@dataclass
class Job:
    """One service job.  ``seq`` is the submission counter (FIFO order);
    ``attempts`` counts executions across crash/resume cycles;
    ``after`` lists dependency job ids gating dispatch."""

    id: str
    seq: int
    kind: str
    spec: dict
    priority: int = 0
    state: str = QUEUED
    error: str | None = None
    attempts: int = 0
    after: list[str] = field(default_factory=list)
    #: sha256 of the result blob text promised by the ``done`` event.
    result_sha256: str | None = None

    @property
    def sort_key(self) -> tuple[int, int]:
        """Scheduling order: higher priority first, then FIFO."""
        return (-self.priority, self.seq)

    def to_dict(self) -> dict:
        return {"id": self.id, "seq": self.seq, "kind": self.kind,
                "spec": self.spec, "priority": self.priority,
                "state": self.state, "error": self.error,
                "attempts": self.attempts, "after": list(self.after),
                "result_sha256": self.result_sha256}

    @staticmethod
    def from_dict(blob: dict) -> "Job":
        return Job(id=blob["id"], seq=blob["seq"], kind=blob["kind"],
                   spec=blob["spec"], priority=blob.get("priority", 0),
                   state=blob.get("state", QUEUED),
                   error=blob.get("error"),
                   attempts=blob.get("attempts", 0),
                   after=list(blob.get("after", ())),
                   result_sha256=blob.get("result_sha256"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    _require(_is_int(value), f"'{key}' must be an integer")
    return value


def _normalize_augment(spec: dict) -> dict:
    paths = spec.get("paths")
    _require(isinstance(paths, list) and paths
             and all(isinstance(p, str) for p in paths),
             "'paths' must be a non-empty list of strings")
    seed = _as_int(spec, "seed", 0)
    shards = spec.get("shards")
    _require(shards is None or (_is_int(shards) and shards >= 0),
             "'shards' must be an integer >= 0 (0 = the default "
             "count) or null")
    return {"paths": list(paths), "seed": seed,
            "completion_only": bool(spec.get("completion_only", False)),
            "shards": shards}


#: Train-spec knob -> :class:`repro.train.TrainConfig` field, in
#: canonical-spec order (the spec's ``seed`` is the corpus seed, hence
#: ``train_seed``).  ``repro.cli`` makes one flag per key.
TRAIN_KNOBS = dict(
    epochs="epochs", batch_size="batch_size", micro_batch="micro_batch",
    seq_len="seq_len", vocab_size="vocab_size", d_model="d_model",
    n_heads="n_heads", n_layers="n_layers", d_ff="d_ff",
    checkpoint_every="checkpoint_every", train_seed="seed", lr="lr",
    max_records="max_records")

#: The name a train spec registers its model under by default.
DEFAULT_REGISTER_AS = "trained"


def _normalize_train(spec: dict) -> dict:
    """Corpus knobs shared with augment + the training hyper-knobs."""
    from ..llm.behavioral import PROFILES
    from ..train import TrainConfig
    spec_out = _normalize_augment(spec)
    name = spec.get("register_as", DEFAULT_REGISTER_AS)
    _require(isinstance(name, str) and name.strip()
             and name not in PROFILES,
             "'register_as' must be a non-empty name that does not "
             "shadow a built-in model")
    defaults = TrainConfig()
    types = typing.get_type_hints(TrainConfig)
    for key, field_name in TRAIN_KNOBS.items():
        value = spec.get(key, getattr(defaults, field_name))
        # The field's type decides: float > 0, int, or int > 0 | None.
        if types[field_name] is float:
            _require(isinstance(value, (int, float))
                     and not isinstance(value, bool) and value > 0,
                     f"'{key}' must be a positive number")
            value = float(value)
        elif types[field_name] is int:
            _require(_is_int(value), f"'{key}' must be an integer")
        else:
            _require(value is None or (_is_int(value) and value > 0),
                     f"'{key}' must be a positive integer or null")
        spec_out[key] = value
    spec_out["register_as"] = name
    try:        # one authoritative consistency check (heads divide, …)
        _train_config(spec_out).validate()
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return spec_out


def _train_config(spec: dict):
    """The :class:`repro.train.TrainConfig` a train spec describes."""
    from ..train import TrainConfig
    return TrainConfig(**{name: spec[key]
                          for key, name in TRAIN_KNOBS.items()})


def _trained_ref(trained) -> dict | None:
    """Canonical ``{'name', 'job'}`` reference to a train job's artefact
    (shared by the evaluate and infer specs)."""
    if trained is None:
        return None
    from ..llm.behavioral import PROFILES
    _require(isinstance(trained, dict)
             and isinstance(trained.get("name"), str)
             and trained["name"].strip()
             and isinstance(trained.get("job"), str)
             and trained["job"].strip(),
             "'trained' must be {'name': <model>, 'job': <job id>} "
             "naming the train job whose artefact to score")
    _require(trained["name"] not in PROFILES,
             f"trained name '{trained['name']}' shadows a built-in "
             f"model")
    return {"name": trained["name"], "job": trained["job"]}


def _normalize_infer(spec: dict) -> dict:
    """Decode completions from a trained artefact's weights."""
    prompts = spec.get("prompts")
    _require(isinstance(prompts, list) and prompts
             and all(isinstance(p, str) and p.strip() for p in prompts),
             "'prompts' must be a non-empty list of non-empty strings")
    trained = _trained_ref(spec.get("trained"))
    _require(trained is not None,
             "'trained' is required: {'name': <model>, 'job': <job id>} "
             "naming the train job whose weights to decode from")
    max_tokens = _as_int(spec, "max_tokens", 32)
    _require(max_tokens > 0, "'max_tokens' must be >= 1")
    temperature = spec.get("temperature", 0.0)
    _require(isinstance(temperature, (int, float))
             and not isinstance(temperature, bool) and temperature >= 0,
             "'temperature' must be a number >= 0")
    return {"prompts": list(prompts), "trained": trained,
            "max_tokens": max_tokens,
            "temperature": float(temperature),
            "seed": _as_int(spec, "seed", 0)}


def _normalize_evaluate(spec: dict) -> dict:
    from ..eval.suite_api import (DEFAULT_LEVELS, EVAL_SUITES, SUITES,
                                  suite_models)
    from ..llm import get_model
    suite = spec.get("suite")
    _require(suite in EVAL_SUITES,
             f"unknown suite '{suite}'; available: "
             f"{', '.join(EVAL_SUITES)}")
    trained = _trained_ref(spec.get("trained"))
    models = suite_models(suite, spec.get("models"))
    for name in models:
        if trained is not None and name == trained["name"]:
            continue        # registered at execution, from the artefact
        try:
            get_model(name)
        except KeyError:
            raise SpecError(f"unknown model '{name}'") from None
    levels = spec.get("levels")
    if SUITES[suite].levels:
        if levels:
            _require(isinstance(levels, list)
                     and all(level in DEFAULT_LEVELS
                             for level in levels),
                     f"'levels' must be a list drawn from "
                     f"{', '.join(DEFAULT_LEVELS)}")
            levels = list(levels)
        else:
            levels = list(DEFAULT_LEVELS)
    else:
        levels = []
    samples = spec.get("samples")
    if samples is None:
        samples = SUITES[suite].samples
    _require(isinstance(samples, int) and samples > 0,
             "'samples' must be a positive integer")
    out = {"suite": suite, "models": models, "samples": samples,
           "k": _as_int(spec, "k", 5), "levels": levels,
           "seed": _as_int(spec, "seed", 0)}
    if trained is not None:
        out["trained"] = trained
    return out


def _normalize_simulate(spec: dict) -> dict:
    source = spec.get("source")
    _require(isinstance(source, str) and source.strip(),
             "'source' must be non-empty Verilog text")
    top = spec.get("top")
    _require(top is None or isinstance(top, str),
             "'top' must be a string module name")
    return {"source": source, "top": top,
            "vcd": bool(spec.get("vcd", False))}


#: Probe payloads are admission-tested data, not work — keep them small.
_PROBE_PAYLOAD_LIMIT = 16 * 1024


def _normalize_probe(spec: dict) -> dict:
    """Near-zero-cost serving probe: echo a payload (+ its sha256).

    The serving-tier benchmarks and health checks need a job whose
    execution cost is negligible next to the gateway/journal path being
    measured.  ``sleep_ms`` (optional) simulates a long-running job for
    drain/kill scenarios; it is excluded from the result blob so the
    determinism contract holds.
    """
    import json as _json
    payload = spec.get("payload", "")
    try:
        encoded = _json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError):
        raise SpecError("'payload' must be JSON-serialisable") from None
    _require(len(encoded) <= _PROBE_PAYLOAD_LIMIT,
             f"'payload' must encode to <= {_PROBE_PAYLOAD_LIMIT} bytes")
    sleep_ms = _as_int(spec, "sleep_ms", 0)
    _require(0 <= sleep_ms <= 60000,
             "'sleep_ms' must be between 0 and 60000")
    return {"payload": payload, "sleep_ms": sleep_ms}


def _normalize_experiment(spec: dict) -> dict:
    from ..experiments import EXPERIMENTS
    name = spec.get("name")
    _require(name in EXPERIMENTS,
             f"unknown experiment '{name}'; available: "
             f"{', '.join(EXPERIMENTS)}")
    return {"name": name, "quick": bool(spec.get("quick", True))}


_NORMALIZERS = {
    "augment": _normalize_augment,
    "train": _normalize_train,
    "evaluate": _normalize_evaluate,
    "infer": _normalize_infer,
    "simulate": _normalize_simulate,
    "experiment": _normalize_experiment,
    "probe": _normalize_probe,
}


def validate_spec(kind: str, spec: dict) -> dict:
    """Canonical spec for ``kind`` (defaults filled, names validated).

    Raises :class:`SpecError` on anything a daemon shouldn't accept —
    validation happens at submit time so the journal only ever holds
    runnable jobs.
    """
    if kind not in JOB_KINDS:
        raise SpecError(f"unknown job kind '{kind}'; available: "
                        f"{', '.join(JOB_KINDS)}")
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    return _NORMALIZERS[kind](spec)
