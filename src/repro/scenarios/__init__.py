"""Declarative scenario registry + runner (see ISSUE: one gated zoo).

``from repro.scenarios import run_scenarios`` runs a selection and
returns a :class:`~repro.scenarios.runner.ScenarioReport`; importing
this package registers the built-in zoo (:mod:`repro.scenarios.builtin`).
"""

from .registry import (Scenario, all_scenarios, get_scenario, register,
                       select_scenarios, unregister)
from .runner import (ScenarioContext, ScenarioReport, ScenarioResult,
                     run_scenario, run_scenarios)
from . import builtin  # noqa: F401  — populates the registry

__all__ = [
    "Scenario", "ScenarioContext", "ScenarioReport", "ScenarioResult",
    "all_scenarios", "get_scenario", "register",
    "run_scenario", "run_scenarios", "select_scenarios", "unregister",
]
