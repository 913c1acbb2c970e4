"""EDA-script generation evaluation (drives Table 4).

For each task the model generates scripts attempt by attempt; the script
runner (real Python compile + mini-SiliconCompiler execution + task
expectation) judges each one.  The reported numbers are the first
iteration with correct *syntax* and with correct *function* under
pass@10 — ``None`` renders as the paper's ``>10``.

Each (model, task) pair is one :class:`EvalTask` on the shared
evaluation engine, so the Table-4 sweep parallelises and caches like
the generation/repair sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.scgen import ScriptTask
from ..eda import run_script
from ..llm.behavioral import BehavioralModel


@dataclass(frozen=True)
class IterationResult:
    """First syntax-correct / function-correct attempt (None = >max)."""

    syntax_iteration: int | None
    function_iteration: int | None

    @staticmethod
    def render(iteration: int | None, max_attempts: int = 10) -> str:
        return str(iteration) if iteration is not None \
            else f">{max_attempts}"

    def to_dict(self) -> dict:
        return {"syntax_iteration": self.syntax_iteration,
                "function_iteration": self.function_iteration}

    @staticmethod
    def from_dict(blob: dict) -> "IterationResult":
        return IterationResult(
            syntax_iteration=blob["syntax_iteration"],
            function_iteration=blob["function_iteration"])


@dataclass
class ScriptReport:
    """model → task → IterationResult."""

    results: dict[str, dict[str, IterationResult]] = \
        field(default_factory=dict)
    max_attempts: int = 10

    def subset(self, models: list[str]) -> "ScriptReport":
        """The report of ``models`` alone, in that order."""
        return ScriptReport(
            results={name: self.results[name] for name in models},
            max_attempts=self.max_attempts)

    def average(self, model: str) -> tuple[float | None, float | None]:
        """Mean iterations (None if any task never succeeded)."""
        rows = self.results[model].values()
        syn = [r.syntax_iteration for r in rows]
        func = [r.function_iteration for r in rows]
        avg_syn = None if any(v is None for v in syn) \
            else sum(syn) / len(syn)
        avg_func = None if any(v is None for v in func) \
            else sum(func) / len(func)
        return avg_syn, avg_func


def iterations_to_correct(model: BehavioralModel, task: ScriptTask,
                          max_attempts: int = 10) -> IterationResult:
    """Generate-check loop for one (model, task) pair."""
    syntax_iteration = None
    function_iteration = None
    for attempt in range(1, max_attempts + 1):
        script = model.generate_script(task.name, task.reference, attempt)
        check = run_script(script, expectation=task.expectation)
        if syntax_iteration is None and check.syntax_ok:
            syntax_iteration = attempt
        if check.function_ok:
            function_iteration = attempt
            break
    return IterationResult(syntax_iteration=syntax_iteration,
                           function_iteration=function_iteration)


def evaluate_scripts(models: list[BehavioralModel],
                     tasks: list[ScriptTask],
                     max_attempts: int = 10, engine=None) -> ScriptReport:
    """Full Table-4 sweep on the shared engine."""
    from .engine import sweep
    cells = sweep("script", models, tasks, ("",), max_attempts,
                  IterationResult.from_dict, engine)
    return ScriptReport(
        results={model: {task: levels[""] for task, levels in rows.items()}
                 for model, rows in cells.items()},
        max_attempts=max_attempts)
