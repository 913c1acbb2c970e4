"""Evaluation harness: the shared engine, pass@k, suite evals, renderers."""

from .engine import (EVAL_CACHE_VERSION, EngineStats, EvalCache, EvalEngine,
                     EvalTask, engine_fingerprint, payload_digest,
                     profile_digest, run_eval_task, run_eval_task_traced)
from .passk import format_pct, pass_at_k, success_rate
from .repair_eval import (BrokenCase, case_seed, evaluate_repair,
                          evaluate_repair_cell, make_broken_case)
from .reporting import (render_table1, render_table3, render_table4,
                        render_table5)
from .script_eval import (IterationResult, ScriptReport, evaluate_scripts,
                          iterations_to_correct)
from .suite_api import (EVAL_SUITES, SUITES, Suite, SuiteResult,
                        render_suite, run_suite, suite_models,
                        suite_report)
from .verilog_eval import (CandidateResult, CellResult, GenerationReport,
                           clear_cache, evaluate_candidate, evaluate_cell,
                           evaluate_generation)

__all__ = [
    "EvalEngine", "EvalTask", "EvalCache", "EngineStats", "run_eval_task",
    "run_eval_task_traced",
    "engine_fingerprint", "payload_digest", "profile_digest",
    "EVAL_CACHE_VERSION",
    "SUITES", "EVAL_SUITES", "Suite", "SuiteResult", "run_suite",
    "suite_models", "suite_report", "render_suite",
    "pass_at_k", "success_rate", "format_pct",
    "evaluate_candidate", "evaluate_cell", "evaluate_generation",
    "CandidateResult", "CellResult", "GenerationReport", "clear_cache",
    "make_broken_case", "case_seed", "evaluate_repair",
    "evaluate_repair_cell", "BrokenCase",
    "iterations_to_correct", "evaluate_scripts", "IterationResult",
    "ScriptReport",
    "render_table1", "render_table3", "render_table4", "render_table5",
]
