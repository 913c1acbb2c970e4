"""Batch execution: jobs → deterministic result blobs.

**Determinism contract.**  A job's result blob is a pure function of
its (canonical) spec — never of the daemon, the batch it shared, the
cache state, or how many crash/resume cycles it survived.  That holds
because every subsystem underneath already guarantees cache- and
parallelism-invariant output (``repro.scale``, ``repro.eval``,
``repro.sim``; see ROADMAP), and blobs only carry result-derived
fields — no timings, no hit counters.  The fault-injection harness
(``tests/test_serve_recovery.py``) compares daemon blobs byte-for-byte
against :func:`execute_job` run directly in a fresh process.

**Batching.**  A batch shares one run per kind: augment jobs with the
same :meth:`~repro.core.PipelineConfig.fingerprint` share a shard
cache (so overlapping corpora compute once), same-suite evaluate jobs
become a single :class:`~repro.eval.engine.EvalEngine` pass over the
union of their models (each job then renders its own model subset),
and experiments share the engine's cell cache.  Train jobs never batch
(each owns a checkpoint store) but *read* the augment shard cache for
their corpus config — a pipeline's train stage re-augments nothing.
Jobs that must not mix get different :func:`compat_key` values, which
the scheduler respects.

**Dependencies.**  ``resolve`` maps a finished job id to its result
blob; the evaluate executor uses it to load the trained artefact a
``spec["trained"]`` entry points at and register it with
``repro.llm.registry`` before the engine pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from .jobs import Job, _train_config


def _config_from_spec(spec: dict):
    from ..core import PipelineConfig
    if spec.get("completion_only"):
        return PipelineConfig.completion_only()
    return PipelineConfig(seed=spec.get("seed", 0))


def _augment_cache_dir(workdir: str, config) -> str:
    """The shard cache shared by every run of one augment config —
    augment batches warm it, train runs read it back."""
    return os.path.join(workdir, f"aug-{config.fingerprint()[-12:]}")


def compat_key(job: Job) -> str:
    """Batching fingerprint: jobs may share a run iff keys match."""
    spec = job.spec
    if job.kind == "augment":
        return f"augment-{_config_from_spec(spec).fingerprint()}"
    if job.kind == "train":
        return f"train-{job.id}"        # own checkpoints: never batch
    if job.kind == "evaluate":
        knobs = json.dumps(
            [spec["suite"], spec["samples"], spec["levels"],
             spec["seed"], spec.get("trained")], sort_keys=True)
        digest = hashlib.sha256(knobs.encode("utf-8")).hexdigest()
        return f"evaluate-{spec['suite']}-{digest[:12]}"
    if job.kind == "infer":
        # One train job = one weights digest, so keying on the trained
        # job id batches by weights identity before any result exists:
        # same-model requests share one decode batch (and one ModelHost
        # load); per-job prompts/knobs ride along per row.
        return f"infer-{spec['trained']['job']}"
    if job.kind == "simulate":
        return "simulate"
    if job.kind == "probe":
        return "probe"                  # all probes batch freely
    if job.kind == "experiment":
        return f"experiment-quick{int(bool(job.spec.get('quick', True)))}"
    return f"{job.kind}-{job.id}"       # unknown kinds never batch


@dataclass
class JobOutcome:
    """What one job produced: a blob, or an error string."""

    ok: bool
    blob: dict | None = None
    error: str | None = None


@dataclass
class BatchResult:
    """Per-job outcomes plus the batch's simulator counters."""

    outcomes: dict[str, JobOutcome] = field(default_factory=dict)
    sim_stats: object = None


def _augment_blob(spec: dict, workdir: str, jobs: int) -> dict:
    from ..scale import augment_distributed
    from ..scale.store import DEFAULT_NUM_SHARDS
    config = _config_from_spec(spec)
    report = augment_distributed(
        spec["paths"], config=config, jobs=jobs,
        cache_dir=_augment_cache_dir(workdir, config),
        num_shards=spec.get("shards") or DEFAULT_NUM_SHARDS)
    text = report.dataset.to_jsonl()
    per_task = {task.value: count for task, count
                in report.dataset.task_counts().items()}
    return {"kind": "augment", "records": len(report.dataset),
            "per_task": per_task,
            "sha256": hashlib.sha256(
                text.encode("utf-8")).hexdigest(),
            "dataset_jsonl": text}


def run_training(spec: dict, cache_dir: str | None,
                 checkpoint_dir: str | None, jobs: int):
    """Run (or resume) the training a canonical train spec describes.

    Returns ``(blob, corpus_report, train_report)``.  The blob is pure
    in the spec: invocation-dependent facts (``resumed_steps``, shard
    cache counters) stay in the two reports, for callers that print
    them.  The corpus loads through ``cache_dir`` and checkpoints go to
    ``checkpoint_dir`` (either may be None); ``jobs`` sizes the
    augmentation shards, and training itself runs in-process.
    """
    from ..scale.store import DEFAULT_NUM_SHARDS
    from ..train import build_artifact, corpus_dataset, train_run
    dataset, corpus_report = corpus_dataset(
        spec["paths"], config=_config_from_spec(spec),
        cache_dir=cache_dir, jobs=jobs,
        num_shards=spec.get("shards") or DEFAULT_NUM_SHARDS)
    report = train_run(dataset, _train_config(spec),
                       checkpoint_dir=checkpoint_dir)
    blob = {"kind": "train", "register_as": spec["register_as"],
            "steps": report.steps, "records": report.records,
            "trained_tokens": report.trained_tokens,
            "final_loss": report.final_loss,
            "losses": report.losses, "val_losses": report.val_losses,
            "weights_sha256": report.weights_sha256,
            "dataset_digest": report.dataset_digest,
            "artifact": build_artifact(spec["register_as"], report,
                                       dataset)}
    return blob, corpus_report, report


def _train_blob(spec: dict, workdir: str, jobs: int) -> dict:
    """One train job.  The corpus loads through the shared augment
    shard cache — warm after the pipeline's augment stage, so nothing
    re-augments — and checkpoints live under a spec-keyed directory, so
    a job requeued by crash recovery resumes instead of restarting
    (byte-identical either way)."""
    spec_digest = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode("utf-8")).hexdigest()
    return run_training(
        spec, _augment_cache_dir(workdir, _config_from_spec(spec)),
        os.path.join(workdir, f"train-{spec_digest[:12]}"), jobs)[0]


def _trained_artifact(spec: dict,
                      resolve: Callable[[str], dict | None] | None) -> dict:
    """The artefact of the job the spec's ``trained`` reference names."""
    trained = spec["trained"]
    blob = resolve(trained["job"]) if resolve is not None else None
    if blob is None or "artifact" not in blob:
        raise RuntimeError(
            f"trained model '{trained['name']}' needs the artefact of "
            f"job {trained['job']}, which has no result")
    artifact = blob["artifact"]
    if artifact.get("name") != trained["name"]:
        raise RuntimeError(
            f"job {trained['job']} trained "
            f"'{artifact.get('name')}', not '{trained['name']}'")
    return artifact


def artifact_weights(artifact: dict, owner: str) -> dict:
    """The weights bundle ``artifact`` embeds; ``owner`` names the
    artefact in the error raised when it has none."""
    weights = artifact.get("weights")
    if weights is None:
        raise RuntimeError(
            f"{owner} carries no weights bundle (trained by a "
            "pre-inference repro.train?)")
    return weights


def _execute_infer(jobs: list[Job],
                   resolve: Callable[[str], dict | None] | None
                   ) -> dict[str, JobOutcome]:
    """One shared decode batch for every prompt in the batch's jobs.

    The batch shares one compat key (= one trained job = one weights
    digest), so all rows decode against one :class:`ModelHost` entry in
    a single :func:`sample_tokens` call.  Each row's seed derives from
    its *own* job's spec (never from batch composition), and KV-cache
    decoding is token-identical to solo decoding — so a job's blob is
    the same whether it ran alone or shared a batch.
    """
    from ..infer import sample_tokens, shared_host
    from ..train.data import stable_seed
    weights = artifact_weights(
        _trained_artifact(jobs[0].spec, resolve),
        f"artefact of job {jobs[0].spec['trained']['job']}")
    loaded = shared_host().load_bundle(weights)
    tokenizer = loaded.tokenizer
    rows, temps, seeds, spans = [], [], [], []
    for job in jobs:
        start = len(rows)
        for index, prompt in enumerate(job.spec["prompts"]):
            rows.append([tokenizer.bos_id] + tokenizer.encode(prompt))
            temps.append(job.spec["temperature"])
            seeds.append(stable_seed("infer", loaded.digest,
                                     job.spec["seed"], index, prompt))
        spans.append((job, start, len(rows)))
    outs = sample_tokens(loaded.model, rows,
                         max_tokens=max(job.spec["max_tokens"]
                                        for job in jobs),
                         temperature=temps, seeds=seeds,
                         stop_token=tokenizer.eos_id)
    outcomes = {}
    for job, start, end in spans:
        completions = []
        for row in range(start, end):
            generated = outs[row][len(rows[row]):]
            generated = generated[:job.spec["max_tokens"]]
            completions.append(
                {"prompt": job.spec["prompts"][row - start],
                 "text": tokenizer.decode(generated),
                 "tokens": len(generated)})
        outcomes[job.id] = JobOutcome(ok=True, blob={
            "kind": "infer", "model": job.spec["trained"]["name"],
            "weights_sha256": loaded.digest,
            "max_tokens": job.spec["max_tokens"],
            "temperature": job.spec["temperature"],
            "seed": job.spec["seed"], "completions": completions})
    return outcomes


def _probe_blob(spec: dict) -> dict:
    """Echo the payload plus its canonical-JSON sha256.

    ``sleep_ms`` delays execution (drain/kill-worker scenarios) but is
    excluded from the blob: the result is a pure function of the
    payload, as the determinism contract requires.
    """
    import time
    if spec["sleep_ms"]:
        time.sleep(spec["sleep_ms"] / 1000.0)
    encoded = json.dumps(spec["payload"], sort_keys=True)
    return {"kind": "probe", "payload": spec["payload"],
            "sha256": hashlib.sha256(encoded.encode("utf-8")).hexdigest()}


def _simulate_blob(spec: dict) -> dict:
    from ..sim import run_simulation
    result = run_simulation(spec["source"], top=spec.get("top"),
                            trace=bool(spec.get("vcd")))
    return {"kind": "simulate", "ok": result.ok,
            "finished": result.finished, "time": result.time,
            "output": result.output if result.ok else "",
            "error": result.error, "vcd": result.vcd}


def _execute_evaluate(jobs: list[Job],
                      resolve: Callable[[str], dict | None] | None,
                      engine) -> dict[str, JobOutcome]:
    """One engine pass over the union of the batch's models.

    The whole batch shares one compat key, so the leader's ``trained``
    dependency (registered before the pass) is everyone's.
    """
    from ..eval.suite_api import render_suite, suite_report, suite_scores
    from ..llm import register_artifact
    leader = jobs[0].spec
    if leader.get("trained") is not None:
        register_artifact(_trained_artifact(leader, resolve))
    union: list[str] = []
    for job in jobs:
        for name in job.spec["models"]:
            if name not in union:
                union.append(name)
    levels = tuple(leader["levels"]) if leader["levels"] else None
    report = suite_report(leader["suite"], union,
                          samples=leader["samples"], levels=levels,
                          seed=leader["seed"], engine=engine)
    outcomes = {}
    for job in jobs:
        sub = report.subset(job.spec["models"])
        rendered = render_suite(leader["suite"], sub, levels=levels,
                                pass_k=job.spec["k"])
        outcomes[job.id] = JobOutcome(ok=True, blob={
            "kind": "evaluate", "suite": leader["suite"],
            "models": job.spec["models"], "k": job.spec["k"],
            "scores": suite_scores(leader["suite"], sub,
                                   k=job.spec["k"]),
            "rendered": rendered})
    return outcomes


def _experiment_blob(spec: dict, engine) -> dict:
    from ..experiments import run_selected
    name = spec["name"]
    rendered = run_selected([name], quick=spec["quick"],
                            engine=engine)[name]
    return {"kind": "experiment", "name": name, "rendered": rendered}


#: Kinds whose jobs run one at a time: kind → blob(spec, workdir,
#: engine_jobs, engine).  A failing job fails alone.
_JOB_RUNNERS: dict[str, Callable[..., dict]] = {
    "augment": lambda spec, workdir, jobs, engine:
        _augment_blob(spec, workdir, jobs),
    "train": lambda spec, workdir, jobs, engine:
        _train_blob(spec, workdir, jobs),
    "simulate": lambda spec, *_: _simulate_blob(spec),
    "probe": lambda spec, *_: _probe_blob(spec),
    "experiment": lambda spec, workdir, jobs, engine:
        _experiment_blob(spec, engine),
}

#: Kinds whose batch runs as one: kind → outcomes(jobs, resolve,
#: engine).  A failure fails the whole batch.
_BATCH_RUNNERS: dict[str, Callable[..., dict[str, JobOutcome]]] = {
    "infer": lambda jobs, resolve, engine: _execute_infer(jobs, resolve),
    "evaluate": _execute_evaluate,
}

#: Kinds that score through a batch-wide :class:`EvalEngine`.
_ENGINE_KINDS = ("evaluate", "experiment")


def execute_batch(kind: str, jobs: list[Job], workdir: str,
                  engine_jobs: int = 1,
                  resolve: Callable[[str], dict | None] | None = None
                  ) -> BatchResult:
    """Run one scheduler batch; every job gets an outcome.

    Per-job kinds (``_JOB_RUNNERS``) share one loop, in which each job
    succeeds or fails on its own; infer and evaluate run their batch as
    one (``_BATCH_RUNNERS``); an unknown kind fails every job.
    ``resolve`` maps a done job id to its result blob (the daemon wires
    the store's result reader in); evaluate and infer jobs use it to
    reach their ``trained`` dependency's artefact.  ``sim_stats`` on the
    returned result is the batch's exact simulator accounting: the
    engine's worker-aggregated counters for engine-based kinds, the
    executing thread's delta otherwise (the two sources never overlap —
    counters are thread-local).
    """
    from ..eval import EvalEngine
    from ..sim import backend_stats
    os.makedirs(workdir, exist_ok=True)
    result = BatchResult()
    engine = None
    if kind in _ENGINE_KINDS:
        engine = EvalEngine(jobs=engine_jobs,
                            cache_dir=os.path.join(workdir,
                                                   "eval-cache"))
    stats = backend_stats()
    before = stats.copy()
    if kind in _JOB_RUNNERS:
        run = _JOB_RUNNERS[kind]
        for job in jobs:
            try:
                outcome = JobOutcome(ok=True, blob=run(
                    job.spec, workdir, engine_jobs, engine))
            except Exception as exc:
                outcome = JobOutcome(ok=False, error=_describe(exc))
            result.outcomes[job.id] = outcome
    elif kind in _BATCH_RUNNERS:
        try:
            result.outcomes = _BATCH_RUNNERS[kind](jobs, resolve, engine)
        except Exception as exc:
            error = _describe(exc)
            result.outcomes = {job.id: JobOutcome(ok=False, error=error)
                               for job in jobs}
    else:
        result.outcomes = {
            job.id: JobOutcome(ok=False,
                               error=f"unknown job kind '{kind}'")
            for job in jobs}
    result.sim_stats = (engine.sim_stats if engine is not None
                        else stats.delta_since(before))
    return result


def _describe(exc: Exception) -> str:
    line = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return line


def execute_job(kind: str, spec: dict, workdir: str,
                engine_jobs: int = 1,
                resolve: Callable[[str], dict | None] | None = None
                ) -> dict:
    """Direct (no store, no daemon) execution of one job spec.

    The reference path the fault-injection tests compare daemon results
    against; also handy for dry-running a spec before submitting it.
    ``resolve`` supplies dependency results for evaluate/infer specs
    with a ``trained`` entry (e.g. ``{train_id: train_blob}.get``).
    """
    from .jobs import validate_spec
    job = Job(id="direct", seq=0, kind=kind,
              spec=validate_spec(kind, spec))
    outcome = execute_batch(kind, [job], workdir,
                            engine_jobs=engine_jobs,
                            resolve=resolve).outcomes[job.id]
    if not outcome.ok:
        raise RuntimeError(outcome.error)
    return outcome.blob
