"""Experiment: Table 4 — SiliconCompiler script generation.

Paper: ours-7B/13B reach syntax- and function-correct scripts in 1
iteration (2 for Mixed); GPT-3.5 needs 8–10+; Thakur et al. and plain
Llama2 never succeed within pass@10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval import ScriptReport
from ..eval.suite_api import render_suite, suite_report
from ..llm import TABLE4_MODEL_ORDER

PAPER_ITERATIONS = {
    ("ours-13b", "Basic"): (1, 1),
    ("ours-13b", "Mixed"): (2, 2),
    ("ours-7b", "Basic"): (1, 1),
    ("gpt-3.5", "Basic"): (8, 9),
    ("llama2-13b", "Basic"): (None, None),   # >10
    ("thakur", "Basic"): (None, None),       # >10
}


@dataclass
class Table4Result:
    report: ScriptReport
    rendered: str


def run_table4(quick: bool = False, engine=None) -> Table4Result:
    """Regenerate Table 4: the ``scripts`` suite at pass@10, through
    the suite API (quick mode scores three of the six models)."""
    models = (["gpt-3.5", "ours-13b", "llama2-13b"] if quick
              else list(TABLE4_MODEL_ORDER))
    report = suite_report("scripts", models, samples=10, engine=engine)
    return Table4Result(report=report,
                        rendered=render_suite("scripts", report))
