"""Verilog-generation evaluation (drives Table 5).

For every (model, problem, prompt level) cell the harness draws five
samples, counts **syntax** failures with the yosys-style checker and takes
the best testbench **function** pass fraction — exactly the two numbers
each Table 5 cell reports.  Verdicts are produced only by the checker and
simulator; results are memoised per (problem, candidate) in a bounded
LRU since correct candidates repeat.

The full sweep is executed by the shared evaluation engine
(:mod:`repro.eval.engine`): every cell becomes an :class:`EvalTask` on a
work pool, so ``evaluate_generation`` parallelises across cells and can
serve warm re-runs from the engine's on-disk cache — with output
byte-identical to the serial path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..bench.problems import PROMPT_LEVELS, Problem
from ..checker import check_source_tree
from ..llm.behavioral import BehavioralModel
from ..scale.cache import LRUCache
from ..sim import run_testbench_batch
from ..verilog import ast
from .passk import pass_at_k


@dataclass(frozen=True)
class CandidateResult:
    syntax_ok: bool
    pass_fraction: float

    @property
    def passed(self) -> bool:
        return self.syntax_ok and self.pass_fraction >= 0.999


@dataclass
class CellResult:
    """One Table 5 cell: syntax-error count + best function rate."""

    syntax_errors: int
    function_rate: float
    samples: int
    passes: int         #: samples that fully passed the testbench

    @property
    def solved(self) -> bool:
        return self.function_rate >= 0.999

    def to_dict(self) -> dict:
        return {"syntax_errors": self.syntax_errors,
                "function_rate": self.function_rate,
                "samples": self.samples, "passes": self.passes}

    @staticmethod
    def from_dict(blob: dict) -> "CellResult":
        return CellResult(syntax_errors=blob["syntax_errors"],
                          function_rate=blob["function_rate"],
                          samples=blob["samples"], passes=blob["passes"])


@dataclass
class GenerationReport:
    """model → problem → level → CellResult.

    A repair report is one too, with the single level ``""``.
    """

    cells: dict[str, dict[str, dict[str, CellResult]]] = \
        field(default_factory=dict)

    def subset(self, models: list[str]) -> "GenerationReport":
        """The report of ``models`` alone, in that order."""
        return GenerationReport(
            cells={name: self.cells[name] for name in models})

    def cell(self, model: str, problem: str, level: str) -> CellResult:
        return self.cells[model][problem][level]

    def problem_solved(self, model: str, problem: str) -> bool:
        levels = self.cells[model][problem]
        return any(cell.solved for cell in levels.values())

    def success_rate(self, model: str,
                     problems: list[str] | None = None) -> float:
        names = problems if problems is not None \
            else list(self.cells[model])
        if not names:
            return 0.0
        solved = sum(self.problem_solved(model, name) for name in names)
        return solved / len(names)

    def pass_at_k(self, model: str, k: int = 1,
                  problems: list[str] | None = None,
                  levels: tuple[str, ...] | None = None) -> float:
        """Mean unbiased pass@k over every (problem, level) cell."""
        names = problems if problems is not None \
            else list(self.cells[model])
        cells = [cell
                 for name in names
                 for level, cell in self.cells[model][name].items()
                 if levels is None or level in levels]
        if not cells:
            return 0.0
        return sum(pass_at_k(c.samples, min(c.passes, c.samples), k)
                   for c in cells) / len(cells)


#: In-memory layer of candidate memoisation.  Bounded (LRU) so sweeps
#: over arbitrarily many candidates cannot grow without limit; the
#: persistent layer is the engine's on-disk cell cache.
_CANDIDATE_CACHE_SIZE = 4096
_CACHE: LRUCache[tuple[str, str], CandidateResult] = \
    LRUCache(maxsize=_CANDIDATE_CACHE_SIZE)


def _candidate_key(code: str, problem: Problem) -> tuple[str, str]:
    # The verdict depends on the candidate AND the problem's testbench —
    # hashing both keeps memoisation honest if a problem is edited
    # in-process under an unchanged name.
    return (problem.name,
            hashlib.sha256(f"{problem.testbench}\x1f{code}"
                           .encode()).hexdigest())


def _verdict_result(verdict) -> CandidateResult:
    if not verdict.ok:
        return CandidateResult(syntax_ok=True, pass_fraction=0.0)
    return CandidateResult(syntax_ok=True,
                           pass_fraction=verdict.pass_fraction)


def evaluate_candidate(code: str, problem: Problem) -> CandidateResult:
    """Syntax-check then simulate one candidate against the testbench."""
    return evaluate_candidates([code], problem)[0]


def evaluate_candidates(codes: list[str], problem: Problem
                        ) -> list[CandidateResult]:
    """Syntax-check then simulate candidates against one testbench.

    Results come back in input order.  Each distinct code in the batch
    is evaluated once, however often it repeats (a model that solves a
    problem returns its reference on most samples), and a code whose
    verdict is already in the in-memory cache is not evaluated at all.
    A candidate with no ``module`` (empty, blank or comment-only text)
    is a syntax error, as a testbench could not compile against it.
    Candidates that pass the checker go to
    :func:`repro.sim.run_testbench_batch` with the trees the checker
    parsed, so each is parsed once; the testbench is parsed once per
    process.
    """
    results: dict[str, CandidateResult] = {}
    to_sim: list[str] = []
    trees: list[ast.SourceFile] = []
    for code in dict.fromkeys(codes):
        key = _candidate_key(code, problem)
        cached = _CACHE.get(key)
        if cached is None:
            check, tree = check_source_tree(code, f"./{problem.name}.v")
            if check.ok and tree.modules:
                to_sim.append(code)
                trees.append(tree)
                continue
            cached = CandidateResult(syntax_ok=False, pass_fraction=0.0)
            _CACHE.put(key, cached)
        results[code] = cached
    if to_sim:
        verdicts = run_testbench_batch(to_sim, problem.testbench,
                                       trees=trees)
        for code, verdict in zip(to_sim, verdicts):
            result = _verdict_result(verdict)
            _CACHE.put(_candidate_key(code, problem), result)
            results[code] = result
    return [results[code] for code in codes]


def score_samples(samples: list[str], problem: Problem,
                  n_samples: int) -> CellResult:
    """One cell's verdict: syntax errors, full passes and the best
    function rate over a model's samples for ``problem``."""
    syntax_errors = 0
    passes = 0
    best = 0.0
    for outcome in evaluate_candidates(samples, problem):
        if not outcome.syntax_ok:
            syntax_errors += 1
        if outcome.passed:
            passes += 1
        best = max(best, outcome.pass_fraction)
    return CellResult(syntax_errors=syntax_errors, function_rate=best,
                      samples=n_samples, passes=passes)


def evaluate_cell(model: BehavioralModel, problem: Problem, level: str,
                  n_samples: int = 5) -> CellResult:
    """One benchmark cell: n samples → syntax count + best function."""
    samples = model.generate_verilog(
        problem.reference, problem.tier, problem.difficulty, level=level,
        n_samples=n_samples, problem_name=problem.name,
        prompt=problem.prompt(level))
    return score_samples(list(samples), problem, n_samples)


def evaluate_generation(models: list[BehavioralModel],
                        problems: list[Problem],
                        levels: tuple[str, ...] = PROMPT_LEVELS,
                        n_samples: int = 5,
                        engine=None) -> GenerationReport:
    """Full Table-5 style sweep through the shared evaluation engine.

    ``engine`` is an :class:`repro.eval.engine.EvalEngine` (defaults to a
    serial, uncached one).  The report is byte-identical regardless of
    the engine's ``jobs`` setting or cache state.
    """
    from .engine import sweep
    return GenerationReport(cells=sweep(
        "generation", models, problems, levels, n_samples,
        CellResult.from_dict, engine))


def clear_cache() -> None:
    """Test hook: drop the in-memory candidate verdict layer."""
    _CACHE.clear()
