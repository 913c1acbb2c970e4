"""Verilog-repair evaluation (drives Table 3).

Benchmark construction follows the paper: the broken inputs are
"syntax-error code generated by the LLM" — here, reference designs run
through the same mutation engine the augmentation framework uses.  Each
model gets the broken file plus the real yosys-style feedback line and
produces five repair attempts; syntax errors are counted by the checker
and function by the testbench, like Table 3's columns.  A repair cell is
scored exactly like a generation cell (:func:`score_samples`), and the
report is a :class:`GenerationReport` with the single level ``""``.

Broken-case seeds are derived from the *content* of the reference design
(not its position in the suite), so the benchmark — and therefore the
report — is invariant under problem reordering, and the sweep can run on
the shared evaluation engine (:mod:`repro.eval.engine`) at any ``jobs``
setting with byte-identical output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..bench.problems import Problem
from ..checker import yosys_feedback
from ..core.mutation import Mutator
from ..llm.behavioral import BehavioralModel
from .verilog_eval import CellResult, GenerationReport, score_samples


@dataclass(frozen=True)
class BrokenCase:
    """One repair-benchmark input: broken file + tool feedback."""

    problem: Problem
    broken: str
    feedback: str

    @property
    def name(self) -> str:
        return self.problem.name


def case_seed(problem: Problem, seed: int = 0) -> int:
    """Content-derived mutation seed for one problem's broken case.

    Hashing the reference text (rather than the problem's index) makes
    the broken benchmark a pure function of ``(problem, seed)`` — stable
    under suite reordering and across engine workers.
    """
    digest = hashlib.sha256(
        f"{problem.name}::{problem.reference}::{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_broken_case(problem: Problem, seed: int = 0) -> BrokenCase:
    """Mutate the reference until the checker genuinely rejects it."""
    for attempt in range(12):
        mutator = Mutator(seed=seed * 131 + attempt,
                          rules=("word_missing", "additional_word",
                                 "width_error"))
        result = mutator.mutate(problem.reference,
                                count=1 + attempt % 3)
        if not result.changed:
            continue
        feedback = yosys_feedback(result.mutated,
                                  f"./{problem.name}.v")
        if feedback is not None:
            return BrokenCase(problem=problem, broken=result.mutated,
                              feedback=feedback)
    raise RuntimeError(f"could not build a broken case for "
                       f"{problem.name}")


def evaluate_repair_cell(model: BehavioralModel, case: BrokenCase,
                         n_samples: int = 5) -> CellResult:
    """One repair cell: n repair attempts → syntax count + best function."""
    attempts = model.repair_verilog(
        case.broken, case.feedback, case.problem.reference,
        case.problem.difficulty, n_samples=n_samples,
        problem_name=case.problem.name)
    return score_samples(list(attempts), case.problem, n_samples)


def evaluate_repair(models: list[BehavioralModel],
                    problems: list[Problem], seed: int = 0,
                    n_samples: int = 5, engine=None) -> GenerationReport:
    """Full Table-3 sweep over the RTLLM suite, on the shared engine."""
    from .engine import sweep
    cases = [make_broken_case(problem, seed=case_seed(problem, seed))
             for problem in problems]
    return GenerationReport(cells=sweep(
        "repair", models, cases, ("",), n_samples, CellResult.from_dict,
        engine))
