"""Yosys-style syntax/semantic checker (the paper's `yosys-checker` box).

Use :func:`check_source` for the full diagnostic list (or
:func:`check_source_tree` for it and the parsed tree), or
:func:`yosys_feedback` for the single error line the repair dataset pairs
with broken Verilog (paper Fig. 6).
"""

from .lint import Checker, check_source, check_source_tree, yosys_feedback
from .messages import ERROR, WARNING, CheckResult, Diagnostic

__all__ = [
    "check_source", "check_source_tree", "yosys_feedback", "Checker",
    "CheckResult", "Diagnostic", "ERROR", "WARNING",
]
