"""Benchmark suites: Thakur-style (17×3), RTLLM-style (29), script-gen (5)."""

from .problems import PROMPT_LEVELS, Problem, spaced_difficulties
from .registry import GENERATION_SUITES, generation_suite
from .rtllm import TABLE5_NAMES, rtllm_suite, rtllm_table5_subset
from .scgen import TASK_ORDER, ScriptTask, scgen_suite
from .thakur import thakur_suite

__all__ = [
    "Problem", "PROMPT_LEVELS", "spaced_difficulties",
    "thakur_suite", "rtllm_suite", "rtllm_table5_subset", "TABLE5_NAMES",
    "scgen_suite", "ScriptTask", "TASK_ORDER",
    "GENERATION_SUITES", "generation_suite",
]
