"""The whole cold eval sweep, pinned, and the scorer's single path.

``tests/golden/eval_sweep.json`` holds the digests of the Table 5
generation sweep followed by the Table 3 repair sweep (every model,
5 samples, one serial engine) and the exact Table 3 repair rates.
Memoising candidates, corruptions or token spans must not move any of
them.
"""

import hashlib
import json
import os

import pytest

from repro.bench import rtllm_suite, thakur_suite
from repro.checker import check_source, check_source_tree
from repro.eval import (EvalEngine, case_seed, clear_cache,
                        evaluate_repair_cell, make_broken_case)
from repro.eval import verilog_eval
from repro.eval.verilog_eval import evaluate_candidates
from repro.eval.repair_eval import RepairCell
from repro.eval.suite_api import run_suite, suite_scores
from repro.llm import TABLE3_MODEL_ORDER, TABLE5_MODEL_ORDER, get_model
from repro.sim import run_testbench

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "eval_sweep.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_eval_sweep_matches_golden():
    clear_cache()
    engine = EvalEngine(jobs=1)
    generation = run_suite("generation", models=list(TABLE5_MODEL_ORDER),
                           samples=5, engine=engine)
    repair = run_suite("repair", models=list(TABLE3_MODEL_ORDER),
                       samples=5, seed=0, engine=engine)
    scores = {"generation": suite_scores(generation.suite,
                                         generation.report),
              "repair": suite_scores(repair.suite, repair.report)}
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert {model: round(100 * row["solve_rate"], 1)
            for model, row in scores["repair"].items()} \
        == golden["repair_rates"]
    assert _sha(json.dumps(scores, sort_keys=True)) \
        == golden["scores_sha256"]
    assert _sha(generation.rendered + "\x1f" + repair.rendered) \
        == golden["report_sha256"]


def test_duplicates_in_a_batch_are_evaluated_once(monkeypatch):
    problem = thakur_suite()[0]
    ref = problem.reference
    bad = "module broken (input a output y);"
    checked, simulated = [], []

    def counting_check(code, filename):
        checked.append(code)
        return check_source_tree(code, filename)

    def counting_batch(codes, testbench, trees=None):
        simulated.append(list(codes))
        return [run_testbench(code, testbench) for code in codes]

    monkeypatch.setattr(verilog_eval, "check_source_tree", counting_check)
    monkeypatch.setattr(verilog_eval, "run_testbench_batch",
                        counting_batch)
    clear_cache()
    results = evaluate_candidates([ref, ref, bad, ref, bad], problem)
    assert sorted(checked) == sorted([ref, bad])
    assert simulated == [[ref]]
    assert [r.syntax_ok for r in results] == [True, True, False, True,
                                              False]
    assert [r.passed for r in results] == [True, True, False, True,
                                           False]


def test_candidates_and_testbench_are_parsed_once(monkeypatch):
    from repro.checker import lint
    from repro.sim import clear_memo, testbench
    from repro.verilog import parse

    problem = thakur_suite()[0]
    ref = problem.reference
    other = ref + "\n// the same design, another text\n"
    parsed = []

    def counting_parse(text, filename="<input>"):
        parsed.append(text)
        return parse(text, filename)

    monkeypatch.setattr(lint, "parse", counting_parse)
    monkeypatch.setattr(testbench, "parse", counting_parse)
    clear_cache()
    clear_memo()
    try:
        first = evaluate_candidates([ref, ref], problem)
        second = evaluate_candidates([other], problem)
    finally:
        clear_memo()
    assert [r.passed for r in first + second] == [True, True, True]
    assert parsed.count(ref) == 1
    assert parsed.count(other) == 1
    assert parsed.count(problem.testbench) == 1
    assert len(parsed) == 3


def _per_candidate_repair_cell(model, case) -> RepairCell:
    """Table 3 scoring as one check + one simulation per attempt."""
    attempts = model.repair_verilog(
        case.broken, case.feedback, case.problem.reference,
        case.problem.difficulty, n_samples=5,
        problem_name=case.problem.name)
    syntax_errors = 0
    best = 0.0
    for code in attempts:
        if not check_source(code, f"./{case.problem.name}.v").ok:
            syntax_errors += 1
            continue
        verdict = run_testbench(code, case.problem.testbench)
        if verdict.ok:
            best = max(best, verdict.pass_fraction)
    return RepairCell(syntax_errors=syntax_errors, function_rate=best)


@pytest.mark.parametrize("model_name", TABLE3_MODEL_ORDER)
def test_repair_cell_matches_per_candidate_scoring(model_name):
    model = get_model(model_name)
    for problem in rtllm_suite():
        case = make_broken_case(problem, seed=case_seed(problem, 0))
        clear_cache()
        batched = evaluate_repair_cell(model, case, n_samples=5)
        expected = _per_candidate_repair_cell(model, case)
        assert batched.to_dict() == expected.to_dict(), problem.name
