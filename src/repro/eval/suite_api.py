"""One shared "run benchmark suite X" entry point.

``repro evaluate`` and the job service (:mod:`repro.serve`) both need
the same operation — resolve a suite by registry name, sweep it through
the shared :class:`~repro.eval.engine.EvalEngine`, and render the
paper-style table — so it lives here once.  The split into
:func:`suite_report` / :func:`subset_report` / :func:`render_suite`
exists for the service's batching: several same-suite jobs evaluate as
*one* engine pass over the union of their models, then each job renders
its own model subset — byte-identical to running that job alone,
because every model's cells are independent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Prompt levels swept by generation suites (paper order).
DEFAULT_LEVELS = ("low", "middle", "high")


def suite_models(suite: str, names: list[str] | None = None) -> list[str]:
    """Model names for a suite — the paper's column order by default."""
    if names:
        return list(names)
    from ..llm import (TABLE3_MODEL_ORDER, TABLE4_MODEL_ORDER,
                       TABLE5_MODEL_ORDER)
    if suite == "repair":
        return list(TABLE3_MODEL_ORDER)
    if suite == "scripts":
        return list(TABLE4_MODEL_ORDER)
    return list(TABLE5_MODEL_ORDER)


def default_samples(suite: str) -> int:
    """Sample budget per cell (the paper's pass@10 for scripts)."""
    return 10 if suite == "scripts" else 5


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
    from ..bench import GENERATION_SUITES, generation_suite, scgen_suite
    from ..llm import get_model
    from .repair_eval import evaluate_repair
    from .script_eval import evaluate_scripts
    from .verilog_eval import evaluate_generation
    models = [get_model(name) for name in model_names]
    samples = samples if samples is not None else default_samples(suite)
    if suite in GENERATION_SUITES:
        return evaluate_generation(
            models, list(generation_suite(suite)),
            levels=tuple(levels) if levels else DEFAULT_LEVELS,
            n_samples=samples, engine=engine)
    if suite == "repair":
        from ..bench import rtllm_suite
        return evaluate_repair(models, list(rtllm_suite()), seed=seed,
                               n_samples=samples, engine=engine)
    if suite == "scripts":
        return evaluate_scripts(models, list(scgen_suite()),
                                max_attempts=samples, engine=engine)
    raise KeyError(f"unknown eval suite '{suite}'")


def subset_report(suite: str, report, model_names: list[str]):
    """The sub-report for ``model_names``, in that order.

    Cells are per-model and deterministic, so a subset of a union-run
    report is byte-identical to a report computed for the subset alone.
    """
    from .repair_eval import RepairReport
    from .script_eval import ScriptReport
    from .verilog_eval import GenerationReport
    if isinstance(report, GenerationReport):
        return GenerationReport(
            cells={name: report.cells[name] for name in model_names})
    if isinstance(report, RepairReport):
        return RepairReport(
            cells={name: report.cells[name] for name in model_names})
    if isinstance(report, ScriptReport):
        return ScriptReport(
            results={name: report.results[name] for name in model_names},
            max_attempts=report.max_attempts)
    raise TypeError(f"unsupported report type {type(report).__name__}")


def render_suite(suite: str, report,
                 levels: tuple[str, ...] | None = None,
                 pass_k: int = 5) -> str:
    """Render the paper-style table for an already-computed report."""
    from ..bench import GENERATION_SUITES, generation_suite, scgen_suite
    from .reporting import render_table3, render_table4, render_table5
    if suite in GENERATION_SUITES:
        problems = list(generation_suite(suite))
        thakur = [p.name for p in problems if p.suite == "thakur"]
        rtllm = [p.name for p in problems if p.suite == "rtllm"]
        return render_table5(report, thakur, rtllm,
                             levels=tuple(levels) if levels
                             else DEFAULT_LEVELS,
                             pass_k=pass_k)
    if suite == "repair":
        from ..bench import rtllm_suite
        return render_table3(report,
                             [p.name for p in rtllm_suite()])
    if suite == "scripts":
        return render_table4(report,
                             [t.name for t in scgen_suite()])
    raise KeyError(f"unknown eval suite '{suite}'")


def suite_scores(suite: str, report, k: int = 5) -> dict[str, dict]:
    """Machine-readable per-model metrics for one suite report.

    The rendered tables are for humans; scenario gating and service
    result blobs need numbers.  Every value is a plain float (or
    ``None`` where a script model produced no passing run), computed
    from the same cells the table renders — so the scores are exactly
    as deterministic as the report.
    """
    from .repair_eval import RepairReport
    from .script_eval import ScriptReport
    from .verilog_eval import GenerationReport
    if isinstance(report, GenerationReport):
        return {model: {"solve_rate": report.success_rate(model),
                        "pass_at_k": report.pass_at_k(model, k)}
                for model in report.cells}
    if isinstance(report, RepairReport):
        return {model: {"solve_rate": report.success_rate(model)}
                for model in report.cells}
    if isinstance(report, ScriptReport):
        scores = {}
        for model in report.results:
            avg_syntax, avg_function = report.average(model)
            scores[model] = {"avg_syntax_iterations": avg_syntax,
                             "avg_function_iterations": avg_function}
        return scores
    raise TypeError(f"unsupported report type {type(report).__name__}")


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
    registered = []
    if artifacts:
        from ..llm import register_artifact
        registered = [register_artifact(artifact).name
                      for artifact in artifacts]
    names = suite_models(suite, models)
    if models is None:
        names += [name for name in registered if name not in names]
    report = suite_report(suite, names, samples=samples, levels=levels,
                          seed=seed, engine=engine)
    rendered = render_suite(suite, report, levels=levels, pass_k=k)
    return SuiteResult(suite=suite, models=names, rendered=rendered,
                       report=report)
