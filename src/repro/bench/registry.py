"""The named Verilog-generation problem sets.

Each id here is one generation suite of
:data:`repro.eval.suite_api.SUITES`, the one table for everything that
wants an evaluation suite by id (``repro evaluate``, the job service,
the table drivers), so a new problem set becomes a suite everywhere by
adding one entry here.
"""

from __future__ import annotations

from collections.abc import Callable

from .problems import Problem
from .rtllm import rtllm_suite, rtllm_table5_subset
from .thakur import thakur_suite


def _generation_all() -> tuple[Problem, ...]:
    return tuple(thakur_suite()) + tuple(rtllm_table5_subset())


#: Generation (Table-5 style) suites addressable by name.
GENERATION_SUITES: dict[str, Callable[[], tuple[Problem, ...]]] = {
    "thakur": thakur_suite,               # 17 problems x 3 levels
    "rtllm": rtllm_table5_subset,         # the paper's 18-design subset
    "rtllm-full": rtllm_suite,            # all 29 RTLLM designs
    "generation": _generation_all,        # full Table-5 problem set
}


def generation_suite(name: str) -> tuple[Problem, ...]:
    """Resolve a generation suite by id."""
    try:
        factory = GENERATION_SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown generation suite '{name}'; available: "
            f"{', '.join(sorted(GENERATION_SUITES))}") from None
    return tuple(factory())
