"""Benchmark problem model shared by the Thakur-style and RTLLM suites.

A problem carries three prompt levels (the paper's low/middle/high prompt
detail), a reference implementation and a *self-checking* testbench that
prints ``PASS``/``FAIL`` vectors and ends with ``$finish``.  Difficulties
are evenly spaced within a tier so the behavioural models' solve rates
aggregate to the paper's success percentages (see
:mod:`repro.llm.behavioral`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PROMPT_LEVELS = ("low", "middle", "high")


@dataclass(frozen=True)
class Problem:
    """One benchmark entry."""

    name: str
    suite: str                    # 'thakur' | 'rtllm'
    tier: str                     # basic | intermediate | advanced | rtllm
    difficulty: float             # 0..1, evenly spaced within the tier
    prompts: dict[str, str] = field(default_factory=dict)
    reference: str = ""
    testbench: str = ""

    def prompt(self, level: str = "middle") -> str:
        if level not in PROMPT_LEVELS:
            raise KeyError(f"unknown prompt level '{level}'")
        return self.prompts.get(level) or self.prompts.get("middle", "")


def spaced_difficulties(count: int) -> list[float]:
    """Evenly spaced difficulties in (0, 1): (i + 0.5) / count."""
    return [(i + 0.5) / count for i in range(count)]


def attach_difficulties(problems: list[Problem]) -> list[Problem]:
    """Re-create problems with evenly spaced difficulties per tier."""
    by_tier: dict[str, list[Problem]] = {}
    for problem in problems:
        by_tier.setdefault(problem.tier, []).append(problem)
    out: list[Problem] = []
    for tier_problems in by_tier.values():
        difficulties = spaced_difficulties(len(tier_problems))
        for problem, difficulty in zip(tier_problems, difficulties):
            out.append(Problem(
                name=problem.name, suite=problem.suite, tier=problem.tier,
                difficulty=difficulty, prompts=problem.prompts,
                reference=problem.reference, testbench=problem.testbench))
    names = {p.name: p for p in out}
    return [names[p.name] for p in problems]
