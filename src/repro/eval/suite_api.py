"""The evaluation-suite table and one shared "run suite X" entry point.

Every evaluation suite is one :data:`SUITES` entry: its payloads, the
engine sweep that scores them, whether it is swept at prompt levels,
its default models and sample budget, its renderer and its scores.
``repro evaluate``, the job service (:mod:`repro.serve`) and the table
drivers all look the entry up, so adding a suite means adding one
entry here.

The split into :func:`suite_report` / :func:`render_suite` exists for
the service's batching: several same-suite jobs evaluate as *one*
engine pass over the union of their models, then each job renders its
own model subset (``report.subset``) — byte-identical to running that
job alone, because every model's cells are independent and
deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..bench import GENERATION_SUITES, rtllm_suite, scgen_suite
from ..llm import (TABLE3_MODEL_ORDER, TABLE4_MODEL_ORDER,
                   TABLE5_MODEL_ORDER, get_model, register_artifact)
from .repair_eval import evaluate_repair
from .reporting import render_table3, render_table4, render_table5
from .script_eval import evaluate_scripts
from .verilog_eval import evaluate_generation

#: Prompt levels swept by generation suites (paper order).
DEFAULT_LEVELS = ("low", "middle", "high")


@dataclass(frozen=True)
class Suite:
    """One evaluation suite: everything that differs between suites."""

    payloads: Callable[[], tuple]   #: its problems or script tasks
    #: ``(models, payloads, levels, samples, seed, engine) -> report``:
    #: the engine sweep of the suite's task kind.
    evaluate: Callable[..., object]
    levels: bool                    #: swept at prompt levels
    models: tuple[str, ...]         #: default columns, paper order
    samples: int                    #: default sample budget per cell
    #: ``(report, payloads, levels, k) -> str``: the paper-style table.
    render: Callable[..., str]
    #: ``(report, k) -> {model: {metric: value}}``.
    scores: Callable[..., dict]


def _names(payloads) -> list[str]:
    return [payload.name for payload in payloads]


def _render_generation(report, problems, levels, k) -> str:
    return render_table5(
        report, [p.name for p in problems if p.suite == "thakur"],
        [p.name for p in problems if p.suite == "rtllm"],
        levels=levels, pass_k=k)


def _generation_scores(report, k) -> dict[str, dict]:
    return {model: {"solve_rate": report.success_rate(model),
                    "pass_at_k": report.pass_at_k(model, k)}
            for model in report.cells}


def _repair_scores(report, k) -> dict[str, dict]:
    return {model: {"solve_rate": report.success_rate(model)}
            for model in report.cells}


def _script_scores(report, k) -> dict[str, dict]:
    scores = {}
    for model in report.results:
        avg_syntax, avg_function = report.average(model)
        scores[model] = {"avg_syntax_iterations": avg_syntax,
                         "avg_function_iterations": avg_function}
    return scores


#: Suite id → entry.  The generation suites are the named problem sets
#: of :data:`repro.bench.GENERATION_SUITES`.
SUITES: dict[str, Suite] = {
    **{name: Suite(
        payloads=problems,
        evaluate=lambda models, problems, levels, samples, seed, engine:
            evaluate_generation(models, problems, levels, samples,
                                engine),
        levels=True, models=TABLE5_MODEL_ORDER, samples=5,
        render=_render_generation, scores=_generation_scores)
       for name, problems in sorted(GENERATION_SUITES.items())},
    "repair": Suite(
        payloads=rtllm_suite,
        evaluate=lambda models, problems, levels, samples, seed, engine:
            evaluate_repair(models, problems, seed, samples, engine),
        levels=False, models=TABLE3_MODEL_ORDER, samples=5,
        render=lambda report, problems, levels, k:
            render_table3(report, _names(problems)),
        scores=_repair_scores),
    "scripts": Suite(
        payloads=scgen_suite,
        evaluate=lambda models, tasks, levels, samples, seed, engine:
            evaluate_scripts(models, tasks, samples, engine),
        levels=False, models=TABLE4_MODEL_ORDER, samples=10,
        render=lambda report, tasks, levels, k:
            render_table4(report, _names(tasks)),
        scores=_script_scores),
}

#: Every suite id ``repro evaluate --suite`` accepts, in table order.
EVAL_SUITES: tuple[str, ...] = tuple(SUITES)


def suite_models(suite: str, names: list[str] | None = None) -> list[str]:
    """Model names for a suite — the paper's column order by default."""
    return list(names) if names else list(SUITES[suite].models)


@dataclass
class SuiteResult:
    """A rendered suite evaluation plus the report it came from."""

    suite: str
    models: list[str]
    rendered: str
    report: object


def suite_report(suite: str, model_names: list[str],
                 samples: int | None = None,
                 levels: tuple[str, ...] | None = None, seed: int = 0,
                 engine=None):
    """Evaluate ``suite`` for ``model_names`` in one engine pass."""
    entry = SUITES[suite]
    return entry.evaluate(
        [get_model(name) for name in model_names], list(entry.payloads()),
        tuple(levels) if levels else DEFAULT_LEVELS,
        samples if samples is not None else entry.samples, seed, engine)


def render_suite(suite: str, report,
                 levels: tuple[str, ...] | None = None,
                 pass_k: int = 5) -> str:
    """Render the paper-style table for an already-computed report."""
    entry = SUITES[suite]
    return entry.render(report, list(entry.payloads()),
                        tuple(levels) if levels else DEFAULT_LEVELS,
                        pass_k)


def suite_scores(suite: str, report, k: int = 5) -> dict[str, dict]:
    """Machine-readable per-model metrics for one suite report.

    The rendered tables are for humans; scenario gating and service
    result blobs need numbers.  Every value is a plain float (or
    ``None`` where a script model produced no passing run), computed
    from the same cells the table renders — so the scores are exactly
    as deterministic as the report.
    """
    return SUITES[suite].scores(report, k)


def run_suite(suite: str, models: list[str] | None = None,
              samples: int | None = None, k: int = 5,
              levels: tuple[str, ...] | None = None, seed: int = 0,
              engine=None, artifacts: list[dict] | None = None
              ) -> SuiteResult:
    """Evaluate one suite end-to-end and render its table.

    ``artifacts`` are training artefacts
    (:func:`repro.train.artifact.build_artifact` blobs) registered
    before model resolution, so freshly finetuned models appear in
    ``models`` — and the rendered table — like any built-in.  With no
    explicit ``models`` the artefact names are appended to the suite's
    paper column order.
    """
    registered = [register_artifact(artifact).name
                  for artifact in artifacts or ()]
    names = suite_models(suite, models)
    if models is None:
        names += [name for name in registered if name not in names]
    report = suite_report(suite, names, samples=samples, levels=levels,
                          seed=seed, engine=engine)
    rendered = render_suite(suite, report, levels=levels, pass_k=k)
    return SuiteResult(suite=suite, models=names, rendered=rendered,
                       report=report)
