"""Tests for the evaluation harness (pass@k, generation/repair/script)."""

import pytest

from repro.bench import rtllm_suite, scgen_suite, thakur_suite
from repro.eval import (evaluate_candidate, evaluate_cell,
                        evaluate_generation, evaluate_repair,
                        format_pct, iterations_to_correct,
                        make_broken_case, pass_at_k, render_table1,
                        render_table3, render_table4, render_table5,
                        evaluate_scripts)
from repro.eval.verilog_eval import evaluate_candidates
from repro.llm import get_model


class TestPassAtK:
    def test_bounds(self):
        assert pass_at_k(5, 0, 1) == 0.0
        assert pass_at_k(5, 5, 1) == 1.0

    def test_known_value(self):
        # n=2, c=1, k=1 → 0.5
        assert pass_at_k(2, 1, 1) == pytest.approx(0.5)

    def test_k_larger_than_n(self):
        assert pass_at_k(3, 1, 10) == 1.0
        assert pass_at_k(3, 0, 10) == 0.0

    def test_monotone_in_c(self):
        values = [pass_at_k(10, c, 3) for c in range(11)]
        assert values == sorted(values)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pass_at_k(3, 4, 1)
        with pytest.raises(ValueError):
            pass_at_k(3, 1, 0)

    def test_format_pct(self):
        assert format_pct(0.706) == "70.6%"


class TestCandidateEvaluation:
    def test_reference_passes(self):
        problem = thakur_suite()[0]
        outcome = evaluate_candidate(problem.reference, problem)
        assert outcome.syntax_ok
        assert outcome.pass_fraction == 1.0

    def test_broken_candidate_counted_as_syntax(self):
        problem = thakur_suite()[0]
        outcome = evaluate_candidate("module basic1 (input a output y);",
                                     problem)
        assert not outcome.syntax_ok
        assert outcome.pass_fraction == 0.0

    @pytest.mark.parametrize("text", ["", " \n\t\n",
                                      "// no design here\n/* none */\n"])
    def test_candidate_without_a_module_is_a_syntax_error(self, text):
        """A completion that says nothing is not a clean design: a
        testbench could not compile against it."""
        problem = thakur_suite()[0]
        outcome, control = evaluate_candidates([text, problem.reference],
                                               problem)
        assert not outcome.syntax_ok
        assert outcome.pass_fraction == 0.0
        assert control.syntax_ok and control.passed

    def test_functionally_wrong_candidate(self):
        problem = thakur_suite()[1]   # and gate
        wrong = problem.reference.replace("a & b", "a | b")
        outcome = evaluate_candidate(wrong, problem)
        assert outcome.syntax_ok
        assert outcome.pass_fraction < 1.0

    def test_cell_counts_syntax_errors(self):
        problem = thakur_suite()[5]
        cell = evaluate_cell(get_model("llama2-13b"), problem, "middle",
                             n_samples=5)
        assert 0 <= cell.syntax_errors <= 5
        assert 0.0 <= cell.function_rate <= 1.0


class TestGenerationReport:
    @pytest.fixture(scope="class")
    def report(self):
        models = [get_model("ours-13b"), get_model("llama2-13b")]
        return evaluate_generation(models, list(thakur_suite())[:6],
                                   levels=("middle",), n_samples=3)

    def test_success_rate_ordering(self, report):
        strong = report.success_rate("ours-13b")
        weak = report.success_rate("llama2-13b")
        assert strong >= weak

    def test_problem_solved_consistency(self, report):
        for name in list(report.cells["ours-13b"]):
            solved = report.problem_solved("ours-13b", name)
            cell = report.cell("ours-13b", name, "middle")
            assert solved == cell.solved

    def test_render_table5_contains_models(self, report):
        text = render_table5(report, [p.name for p in thakur_suite()[:6]],
                             [], levels=("middle",))
        assert "Ours-13B" in text
        assert "success rate" in text


class TestRepairEvaluation:
    def test_broken_case_is_really_broken(self):
        problem = rtllm_suite()[0]
        case = make_broken_case(problem, seed=3)
        assert case.feedback.startswith(f"./{problem.name}.v")
        from repro.checker import check_source
        assert not check_source(case.broken).ok

    def test_repair_report_and_rendering(self):
        problems = list(rtllm_suite())[:5]
        models = [get_model("ours-13b"), get_model("llama2-13b")]
        report = evaluate_repair(models, problems, n_samples=3)
        assert report.success_rate("ours-13b") >= \
            report.success_rate("llama2-13b")
        text = render_table3(report, [p.name for p in problems])
        assert "success rate" in text
        assert problems[0].name in text


class TestScriptEvaluation:
    def test_ours_one_iteration(self):
        task = scgen_suite()[0]
        result = iterations_to_correct(get_model("ours-13b"), task)
        assert result.syntax_iteration == 1
        assert result.function_iteration == 1

    def test_baseline_never_succeeds(self):
        task = scgen_suite()[0]
        result = iterations_to_correct(get_model("llama2-13b"), task)
        assert result.function_iteration is None

    def test_gpt35_matches_paper_basic(self):
        task = scgen_suite()[0]
        result = iterations_to_correct(get_model("gpt-3.5"), task)
        assert result.syntax_iteration == 8
        assert result.function_iteration == 9

    def test_render_table4(self):
        report = evaluate_scripts([get_model("ours-13b")],
                                  list(scgen_suite()))
        text = render_table4(report, [t.name for t in scgen_suite()])
        assert "Mixed" in text
        assert "avg pass@k" in text


class TestTable1:
    def test_render_table1(self):
        text = render_table1()
        assert "ChipNeMo" in text
        assert "Ours" in text
        assert "SiliconCompiler" in text
