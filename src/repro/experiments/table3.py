"""Experiment: Table 3 — Verilog repair on the RTLLM suite.

Paper success rates: ours-13B 72.4%, ours-7B 51.7%, GPT-3.5 34.5%,
Llama2-13B 10.3% over 29 designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval import GenerationReport
from ..eval.suite_api import SUITES
from ..llm import get_model

PAPER_SUCCESS = {
    "ours-13b": 0.724,
    "ours-7b": 0.517,
    "gpt-3.5": 0.345,
    "llama2-13b": 0.103,
}


@dataclass
class Table3Result:
    report: GenerationReport
    rendered: str

    def success(self, model: str) -> float:
        return self.report.success_rate(model)


def run_table3(seed: int = 0, n_samples: int = 5,
               quick: bool = False, engine=None) -> Table3Result:
    """Regenerate Table 3 from the ``repair`` suite; quick mode scores
    every third design with 3 samples."""
    repair = SUITES["repair"]
    problems = repair.payloads()
    if quick:
        problems, n_samples = problems[::3], 3
    models = [get_model(name) for name in repair.models]
    report = repair.evaluate(models, problems, (), n_samples, seed, engine)
    return Table3Result(report=report,
                        rendered=repair.render(report, problems, (), 5))
