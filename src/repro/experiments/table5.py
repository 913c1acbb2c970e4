"""Experiment: Table 5 — Verilog generation on Thakur + RTLLM benchmarks.

Paper success rates:

==================  =======  =======  =====
model               Thakur   RTLLM    All
==================  =======  =======  =====
GPT-3.5             64.7%    27.8%    45.7%
Ours-7B             64.7%     5.6%    34.3%
Ours-13B            70.6%    22.2%    45.7%
Thakur et al.       58.8%     5.6%    31.4%
Llama2-13B          41.2%     5.6%    22.9%
Llama2-General Aug  47.1%     5.6%    25.7%
==================  =======  =======  =====
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench import PROMPT_LEVELS, generation_suite
from ..eval import GenerationReport
from ..eval.suite_api import render_suite, suite_report
from ..llm import TABLE5_MODEL_ORDER

PAPER_SUCCESS = {
    "gpt-3.5": {"thakur": 0.647, "rtllm": 0.278, "all": 0.457},
    "ours-7b": {"thakur": 0.647, "rtllm": 0.056, "all": 0.343},
    "ours-13b": {"thakur": 0.706, "rtllm": 0.222, "all": 0.457},
    "thakur": {"thakur": 0.588, "rtllm": 0.056, "all": 0.314},
    "llama2-13b": {"thakur": 0.412, "rtllm": 0.056, "all": 0.229},
    "llama2-general-aug": {"thakur": 0.471, "rtllm": 0.056, "all": 0.257},
}


@dataclass
class Table5Result:
    report: GenerationReport
    rendered: str
    thakur_names: list[str]
    rtllm_names: list[str]

    def success(self, model: str, which: str = "all") -> float:
        if which == "thakur":
            return self.report.success_rate(model, self.thakur_names)
        if which == "rtllm":
            return self.report.success_rate(model, self.rtllm_names)
        return self.report.success_rate(
            model, self.thakur_names + self.rtllm_names)


def run_table5(quick: bool = False, engine=None) -> Table5Result:
    """Regenerate Table 5: the ``generation`` suite (Thakur + the
    RTLLM subset) for the paper's six models, through the suite API."""
    levels = ("middle",) if quick else PROMPT_LEVELS
    report = suite_report("generation", list(TABLE5_MODEL_ORDER),
                          samples=3 if quick else 5, levels=levels,
                          engine=engine)
    problems = generation_suite("generation")
    return Table5Result(
        report=report,
        rendered=render_suite("generation", report, levels=levels),
        thakur_names=[p.name for p in problems if p.suite == "thakur"],
        rtllm_names=[p.name for p in problems if p.suite == "rtllm"])
