"""The unified parallel evaluation engine.

One execution kernel behind every benchmark sweep (Tables 3–5): a sweep
(:func:`sweep`) is decomposed into :class:`EvalTask` units — one (model,
payload, level, sample budget) cell — which run through
:func:`~repro.scale.runner.cached_map`, the cached work map the
augmentation shards share, and persist through :class:`EvalCache`, a
:class:`~repro.scale.cache.ManifestCache` of one JSON blob per cell.

Determinism rules (mirroring ``repro.scale``):

* every sample a behavioural model draws is seeded by a **stable hash**
  of (model, problem, level, sample index) and repair benchmarks are
  built from **content-derived** seeds (:func:`repro.eval.repair_eval.case_seed`)
  — a task's result is a pure function of the task, never of which
  worker ran it or in what order;
* results are re-assembled in the caller's task order, so reports are
  byte-identical across ``jobs`` settings and cache hits vs recomputes.

Cache-invalidation rules:

* a cell's **slot** is its identity — (kind, model, payload name,
  level) — and its **key** hashes the engine format version, the model's
  full calibration profile, the sampling knobs and a content digest of
  the payload (reference, testbench, prompts, broken file, feedback, …);
* editing one problem therefore invalidates exactly that problem's
  cells; changing a model profile or sampling knob invalidates exactly
  the affected cells; an :data:`EVAL_CACHE_VERSION` bump discards the
  cache wholesale;
* entry files and the manifest are written atomically, and the manifest
  records ``last_run: {hits, misses}`` — a fully warm re-run is
  verifiable as ``misses == 0``;
* the manifest is flushed every 32 computed cells and once more when
  :meth:`EvalEngine.run` returns or raises, so a sweep that fails on a
  later cell keeps every cell it finished.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

from ..bench.problems import Problem
from ..bench.scgen import ScriptTask
from ..llm.behavioral import BehavioralModel
from ..scale.cache import ManifestCache
from ..scale.runner import WorkPool, cached_map
from .repair_eval import BrokenCase, evaluate_repair_cell
from .script_eval import IterationResult, iterations_to_correct
from .verilog_eval import CellResult, clear_cache, evaluate_cell

#: Bump when the cell blob format (or evaluation semantics) changes;
#: discards old eval caches wholesale.
#: v2: trained artefacts evaluate real sampled transformer output
#: (repro.infer) instead of the behavioural bridge.
#: v3: a generation candidate with no module is a syntax error.
#: v4: repair cells carry ``samples`` and ``passes`` like generation
#: cells.
EVAL_CACHE_VERSION = 4

_SLOT_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _digest(*parts: object) -> str:
    return hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode("utf-8")).hexdigest()


def payload_digest(payload: Problem | BrokenCase | ScriptTask) -> str:
    """Content digest of one task payload (a dataclass).

    Hashes every field, nested payloads included, so any edit that can
    change the verdict changes the digest.  A function-valued field (a
    script task's expectation predicate, derived from its reference
    script) is hashed by its qualified name.
    """
    content = json.dumps(asdict(payload), sort_keys=True,
                         default=lambda value: value.__qualname__)
    return _digest(type(payload).__name__, content)


def profile_digest(model: BehavioralModel) -> str:
    """Digest of a model's full identity for cache keying.

    Behavioural models hash their calibration profile + sampling seed.
    Sampling-backed models (:class:`repro.infer.SampledModel`) expose
    ``eval_fingerprint`` — sha256 weights digest + decode knobs — which
    is folded in so two trained artefacts registered under the *same*
    spec name can never share cells: the weights, not the name, are the
    identity.
    """
    blob = json.dumps(asdict(model.profile), sort_keys=True)
    fingerprint = getattr(model, "eval_fingerprint", None)
    if fingerprint:
        return _digest("profile", blob, model.seed, fingerprint)
    return _digest("profile", blob, model.seed)


@dataclass(frozen=True, eq=False)
class EvalTask:
    """One unit of evaluation work: a single benchmark cell.

    ``n_samples`` is the sample budget — candidate samples for
    generation/repair, ``max_attempts`` for scripts.  Tasks are
    picklable (payloads are plain dataclasses; script expectations are
    module-level functions) so they can cross a process boundary.
    """

    kind: str                                   #: generation|repair|script
    model: BehavioralModel
    payload: Problem | BrokenCase | ScriptTask
    level: str = "middle"                       #: "" for repair/script
    n_samples: int = 5

    def slot(self) -> str:
        """Stable identity: which cell this is (not what it computed).

        Sampling-backed models qualify the name with a fragment of
        their weights fingerprint: two artefacts under one registered
        name occupy *different* slots, so a retrained pipeline adds
        cells instead of overwriting (and possibly aliasing) the old
        artefact's entries.
        """
        fingerprint = getattr(self.model, "eval_fingerprint", None)
        model_tag = self.model.name if not fingerprint \
            else f"{self.model.name}@{_digest(fingerprint)[:8]}"
        identity = f"{self.kind}-{model_tag}-{self.payload.name}" + (
            f"-{self.level}" if self.level else "")
        return _SLOT_SAFE.sub("_", identity)

    def key(self) -> str:
        """Content key: everything the cell's verdict depends on."""
        return _digest(EVAL_CACHE_VERSION, self.kind,
                       profile_digest(self.model), self.level,
                       self.n_samples, payload_digest(self.payload))


def run_eval_task_traced(task: EvalTask) -> tuple[dict, "object"]:
    """Execute one cell and capture its simulator counters.

    Returns ``(blob, stats_delta)`` where ``stats_delta`` is the
    :class:`repro.sim.BackendStats` increment this cell caused *in the
    executing thread*.  Counters are thread-local (each pool worker
    process owns its own), so per-task deltas are exact and summing
    them over the result stream recovers the true totals no matter
    where the work ran.  Module-level (picklable) so the
    :class:`WorkPool` can run it in a worker process.
    """
    from ..sim import backend_stats
    stats = backend_stats()
    before = stats.copy()
    blob = run_eval_task(task)
    return blob, stats.delta_since(before)


def run_eval_task(task: EvalTask) -> dict:
    """Execute one cell; returns its JSON-serialisable result blob.

    Module-level (picklable) so the :class:`WorkPool` can run it in a
    worker process.  The cell functions are called through this
    module's globals, so a tracer that rebinds them sees every call.
    """
    if task.kind == "generation":
        return evaluate_cell(task.model, task.payload, task.level,
                             task.n_samples).to_dict()
    if task.kind == "repair":
        return evaluate_repair_cell(task.model, task.payload,
                                    task.n_samples).to_dict()
    if task.kind == "script":
        return iterations_to_correct(task.model, task.payload,
                                     task.n_samples).to_dict()
    raise ValueError(f"unknown eval task kind '{task.kind}'")


def _cold_worker() -> None:
    """Process-pool initializer: start each worker with empty
    process-wide memos.  A forked worker otherwise inherits the
    parent's candidate verdicts and simulation results, and the
    sweep's summed :class:`repro.sim.BackendStats` would depend on what
    the parent evaluated before the fork."""
    from ..sim import clear_memo
    clear_cache()
    clear_memo()


class EvalCache(ManifestCache):
    """On-disk cell cache: ``cells/cell-<slot>-<key8>.json`` + manifest."""

    version = EVAL_CACHE_VERSION
    subdir = "cells"
    file_prefix = "cell-"
    file_suffix = ".json"

    def _encode(self, payload: dict) -> str:
        return json.dumps(payload, ensure_ascii=False, sort_keys=True) \
            + "\n"

    #: Field sets a cell blob must carry to round-trip through one of
    #: the cell ``from_dict`` constructors.
    _SHAPES = tuple({field.name for field in fields(cell)}
                    for cell in (CellResult, IterationResult))

    def _decode(self, text: str) -> dict:
        blob = json.loads(text)
        if not isinstance(blob, dict) or not any(
                shape <= blob.keys() for shape in self._SHAPES):
            # Wrong-shape blobs degrade to a miss instead of crashing
            # later inside a report constructor.
            raise ValueError("unrecognised cell blob shape")
        return blob


def engine_fingerprint() -> str:
    """Manifest fingerprint: format only — result-affecting config lives
    in each entry's key, so knob changes invalidate cells, not caches."""
    return _digest("repro.eval.engine", EVAL_CACHE_VERSION)


@dataclass
class EngineStats:
    """Accounting for one :meth:`EvalEngine.run` call."""

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    computed: int = 0
    jobs: int = 1
    cache_enabled: bool = False

    def summary(self) -> str:
        cache = (f"cache {self.cache_hits} hit(s) / "
                 f"{self.cache_misses} miss(es)"
                 if self.cache_enabled else "cache disabled")
        return (f"{self.tasks} cell(s) [{self.computed} computed, "
                f"jobs={self.jobs}, {cache}]")


class EvalEngine:
    """Cached, sharded execution of benchmark cells.

    ``jobs`` maps cells over a process pool; ``cache_dir`` makes
    re-runs incremental.  Both are purely operational: the result list
    is byte-identical for any setting.
    """

    def __init__(self, jobs: int = 1, cache_dir: str | None = None):
        from ..sim import BackendStats
        self.jobs = max(1, jobs)
        self.cache_dir = cache_dir
        self.stats = EngineStats(jobs=self.jobs)
        #: Simulator counters aggregated across *all* workers of
        #: every :meth:`run` on this engine (exact with ``jobs > 1``,
        #: unlike the per-thread ``repro.sim.backend_stats()`` counters,
        #: which only ever see the calling thread's own work).
        self.sim_stats = BackendStats()

    def run(self, tasks: list[EvalTask]) -> list[dict]:
        """Evaluate every task; returns result blobs in task order."""
        cache = (EvalCache(self.cache_dir, engine_fingerprint())
                 if self.cache_dir else None)
        # Flushing every 32 cells keeps an interrupted run warm without
        # rewriting the manifest per cell (O(n^2) on big sweeps).
        hits, computed = cached_map(
            WorkPool(jobs=self.jobs, initializer=_cold_worker),
            run_eval_task_traced, dict(enumerate(tasks)), cache,
            slot=lambda index: tasks[index].slot(),
            key=lambda index: tasks[index].key(), flush_every=32,
            cached=lambda traced: traced[0])
        for _, stats in computed.values():
            self.sim_stats.add(stats)
        self.stats = EngineStats(
            tasks=len(tasks),
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            computed=len(computed), jobs=self.jobs,
            cache_enabled=cache is not None)
        return [hits[index] if index in hits else computed[index][0]
                for index in range(len(tasks))]


def sweep(kind: str, models: list[BehavioralModel], payloads: list,
          levels: tuple[str, ...], n_samples: int,
          decode: Callable[[dict], object], engine=None
          ) -> dict[str, dict[str, dict[str, object]]]:
    """Evaluate every (model, payload, level) cell of one task kind in
    one engine pass; returns model → payload → level → ``decode(blob)``.

    ``engine`` defaults to a serial, uncached :class:`EvalEngine`; the
    result is byte-identical for any engine setting.
    """
    engine = engine if engine is not None else EvalEngine()
    blobs = iter(engine.run([
        EvalTask(kind=kind, model=model, payload=payload, level=level,
                 n_samples=n_samples)
        for model in models for payload in payloads for level in levels]))
    return {model.name: {payload.name: {level: decode(next(blobs))
                                        for level in levels}
                         for payload in payloads}
            for model in models}
