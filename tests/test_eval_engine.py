"""The unified evaluation engine: determinism, cache, pass@k, dispatch."""

import dataclasses
import json

import pytest

from repro.bench import EVAL_SUITES, generation_suite, scgen_suite, thakur_suite
from repro.eval import (EvalEngine, EvalTask, clear_cache,
                        evaluate_generation, evaluate_repair,
                        evaluate_scripts, render_table4, render_table5,
                        run_eval_task)
from repro.experiments import EXPERIMENTS, run_selected
from repro.llm import get_model
from repro.scale import LRUCache

MODELS = ("ours-13b", "llama2-13b")


def _models():
    return [get_model(name) for name in MODELS]


def _problems(count=4):
    return list(thakur_suite())[:count]


def _rendered(engine=None, n_samples=3):
    problems = _problems()
    report = evaluate_generation(_models(), problems,
                                 levels=("low", "middle"),
                                 n_samples=n_samples, engine=engine)
    return render_table5(report, [p.name for p in problems], [],
                         levels=("low", "middle"))


class TestParallelDeterminism:
    def test_process_pool_report_byte_identical_to_serial(self):
        serial = _rendered(EvalEngine(jobs=1))
        parallel = _rendered(EvalEngine(jobs=4))
        assert parallel == serial

    def test_repair_and_scripts_parallel_parity(self):
        from repro.bench import rtllm_suite
        problems = list(rtllm_suite())[:4]
        serial = evaluate_repair(_models(), problems, n_samples=3,
                                 engine=EvalEngine(jobs=1))
        parallel = evaluate_repair(_models(), problems, n_samples=3,
                                   engine=EvalEngine(jobs=3))
        assert parallel.cells == serial.cells
        tasks = list(scgen_suite())
        s = evaluate_scripts(_models(), tasks, engine=EvalEngine(jobs=1))
        p = evaluate_scripts(_models(), tasks, engine=EvalEngine(jobs=3))
        assert render_table4(p, [t.name for t in tasks]) == \
            render_table4(s, [t.name for t in tasks])

    def test_repair_benchmark_is_order_invariant(self):
        """Broken cases derive from content, not suite position."""
        from repro.bench import rtllm_suite
        problems = list(rtllm_suite())[:4]
        forward = evaluate_repair(_models(), problems, n_samples=3)
        backward = evaluate_repair(_models(), problems[::-1], n_samples=3)
        for model in MODELS:
            assert backward.cells[model] == {
                name: forward.cells[model][name]
                for name in reversed(list(forward.cells[model]))}


class TestEvalCache:
    def test_warm_rerun_records_zero_misses(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = EvalEngine(jobs=2, cache_dir=cache)
        first = _rendered(cold)
        assert cold.stats.cache_misses == cold.stats.tasks > 0
        warm = EvalEngine(jobs=2, cache_dir=cache)
        second = _rendered(warm)
        assert second == first
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == warm.stats.tasks
        assert warm.stats.computed == 0
        manifest = json.loads((tmp_path / "cache" /
                               "manifest.json").read_text())
        assert manifest["last_run"] == {"hits": warm.stats.tasks,
                                        "misses": 0}

    def test_editing_one_problem_invalidates_only_its_cells(self,
                                                            tmp_path):
        cache = str(tmp_path / "cache")
        problems = _problems()
        levels = ("low", "middle")
        evaluate_generation(_models(), problems, levels=levels,
                            n_samples=3,
                            engine=EvalEngine(cache_dir=cache))
        victim = problems[1]
        edited = dataclasses.replace(
            victim, reference=victim.reference + "\n// touched\n")
        rerun = EvalEngine(cache_dir=cache)
        evaluate_generation(_models(),
                            [edited if p.name == victim.name else p
                             for p in problems],
                            levels=levels, n_samples=3, engine=rerun)
        per_problem = len(MODELS) * len(levels)
        assert rerun.stats.cache_misses == per_problem
        assert rerun.stats.cache_hits == \
            per_problem * (len(problems) - 1)

    def test_sample_budget_change_is_a_miss_not_a_stale_hit(self,
                                                            tmp_path):
        cache = str(tmp_path / "cache")
        problems = _problems(2)
        evaluate_generation(_models(), problems, levels=("middle",),
                            n_samples=3,
                            engine=EvalEngine(cache_dir=cache))
        rerun = EvalEngine(cache_dir=cache)
        report = evaluate_generation(_models(), problems,
                                     levels=("middle",), n_samples=5,
                                     engine=rerun)
        assert rerun.stats.cache_hits == 0
        cell = report.cell(MODELS[0], problems[0].name, "middle")
        assert cell.samples == 5

    def test_corrupt_cell_file_degrades_to_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        problems = _problems(2)
        evaluate_generation(_models(), problems, levels=("middle",),
                            n_samples=3,
                            engine=EvalEngine(cache_dir=cache))
        for cell_file in (tmp_path / "cache" / "cells").iterdir():
            cell_file.write_text("{not json")
        rerun = EvalEngine(cache_dir=cache)
        evaluate_generation(_models(), problems, levels=("middle",),
                            n_samples=3, engine=rerun)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.computed == rerun.stats.tasks

    def test_shared_cache_dir_across_suites_no_collisions(self, tmp_path):
        cache = str(tmp_path / "cache")
        from repro.bench import rtllm_suite
        problems = list(rtllm_suite())[:3]
        evaluate_repair(_models(), problems, n_samples=3,
                        engine=EvalEngine(cache_dir=cache))
        evaluate_scripts(_models(), list(scgen_suite()),
                         engine=EvalEngine(cache_dir=cache))
        warm_repair = EvalEngine(cache_dir=cache)
        evaluate_repair(_models(), problems, n_samples=3,
                        engine=warm_repair)
        warm_scripts = EvalEngine(cache_dir=cache)
        evaluate_scripts(_models(), list(scgen_suite()),
                         engine=warm_scripts)
        assert warm_repair.stats.cache_misses == 0
        assert warm_scripts.stats.cache_misses == 0


class TestInMemoryLayer:
    def test_lru_is_bounded(self):
        cache = LRUCache(maxsize=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert 9 in cache and 0 not in cache

    def test_lru_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)          # evicts "b", the least recent
        assert "a" in cache and "b" not in cache

    def test_clear_cache_hook_still_works(self):
        from repro.eval import verilog_eval
        problem = _problems(1)[0]
        from repro.eval import evaluate_candidate
        evaluate_candidate(problem.reference, problem)
        assert len(verilog_eval._CACHE) > 0
        clear_cache()
        assert len(verilog_eval._CACHE) == 0


class TestTaskKeys:
    def test_keys_are_computed_only_for_a_cache(self, monkeypatch,
                                                tmp_path):
        calls = []
        key = EvalTask.key

        def counting_key(task):
            calls.append(task)
            return key(task)

        monkeypatch.setattr(EvalTask, "key", counting_key)
        expected = _rendered(EvalEngine(jobs=1))
        assert calls == []
        clear_cache()
        cached = EvalEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        assert _rendered(cached) == expected
        assert len(calls) == cached.stats.tasks > 0


class TestPassAtK:
    @pytest.fixture(scope="class")
    def report(self):
        return evaluate_generation(_models(), _problems(6),
                                   levels=("middle",), n_samples=5)

    def test_cells_carry_pass_counts(self, report):
        for model in MODELS:
            for levels in report.cells[model].values():
                for cell in levels.values():
                    assert 0 <= cell.passes <= cell.samples

    def test_pass_at_k_bounds_and_monotonicity(self, report):
        for model in MODELS:
            p1 = report.pass_at_k(model, 1)
            p5 = report.pass_at_k(model, 5)
            assert 0.0 <= p1 <= p5 <= 1.0
        assert report.pass_at_k("ours-13b", 5) >= \
            report.pass_at_k("llama2-13b", 5)

    def test_render_table5_surfaces_pass_rows(self, report):
        names = [p.name for p in _problems(6)]
        text = render_table5(report, names, [], levels=("middle",))
        assert "pass@1" in text
        assert "pass@5" in text


class TestTaskAndRegistry:
    def test_run_eval_task_rejects_unknown_kind(self):
        task = EvalTask(kind="nonsense", model=_models()[0],
                        payload=_problems(1)[0])
        with pytest.raises(ValueError):
            run_eval_task(task)

    def test_generation_suite_by_name(self):
        assert len(generation_suite("thakur")) == 17
        assert len(generation_suite("rtllm")) == 18
        assert len(generation_suite("rtllm-full")) == 29
        assert len(generation_suite("generation")) == 35
        with pytest.raises(KeyError):
            generation_suite("nope")

    def test_cli_suite_choices_match_registry(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["evaluate", "--suite", "rtllm"])
        assert args.suite == "rtllm"
        for suite in EVAL_SUITES:
            parser.parse_args(["evaluate", "--suite", suite])
        with pytest.raises(SystemExit):
            parser.parse_args(["evaluate", "--suite", "bogus"])


class TestLazyDispatch:
    def test_only_requested_experiments_run(self, monkeypatch):
        def boom(**kwargs):
            raise AssertionError("table5 must not run for --only table1")
        monkeypatch.setitem(EXPERIMENTS, "table5", boom)
        results = run_selected(["table1"])
        assert list(results) == ["table1"]
        assert "ChipNeMo" in results["table1"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_selected(["table99"])

    def test_cli_tables_only_is_lazy(self, monkeypatch, capsys):
        from repro.cli import main
        def boom(**kwargs):
            raise AssertionError("table5 must not run for --only table1")
        monkeypatch.setitem(EXPERIMENTS, "table5", boom)
        assert main(["tables", "--only", "table1"]) == 0
        assert "TABLE1" in capsys.readouterr().out

    def test_cli_tables_unknown_id_errors(self, capsys):
        from repro.cli import main
        assert main(["tables", "--only", "tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCliEvaluate:
    def test_jobs_parity_and_warm_cache(self, tmp_path, capsys):
        from repro.cli import main
        cache = str(tmp_path / "cache")
        serial_out = str(tmp_path / "serial.txt")
        parallel_out = str(tmp_path / "parallel.txt")
        common = ["evaluate", "--suite", "thakur", "--models",
                  ",".join(MODELS), "--samples", "3",
                  "--levels", "middle"]
        assert main([*common, "--jobs", "1", "--out", serial_out]) == 0
        assert main([*common, "--jobs", "2", "--cache-dir", cache,
                     "--out", parallel_out]) == 0
        capsys.readouterr()
        assert (open(serial_out, "rb").read()
                == open(parallel_out, "rb").read())
        assert main([*common, "--jobs", "2", "--cache-dir", cache]) == 0
        assert "0 miss(es)" in capsys.readouterr().out

    def test_scripts_suite(self, capsys):
        from repro.cli import main
        assert main(["evaluate", "--suite", "scripts",
                     "--models", "ours-13b,llama2-13b"]) == 0
        out = capsys.readouterr().out
        assert ">10" in out
        assert "cell(s)" in out


class TestBackendStatsAggregation:
    """Fix: `--jobs > 1` used to silently undercount simulator
    counters (they lived in pool workers); the engine now aggregates
    each worker's per-task deltas back through its result stream."""

    def _sweep(self, engine):
        clear_cache()
        return evaluate_generation(_models(), _problems(2),
                                   levels=("low",), n_samples=2,
                                   engine=engine)

    def test_process_pool_stats_no_longer_undercount(self):
        from repro.sim import backend_stats
        engine = EvalEngine(jobs=3)
        before = backend_stats().copy()
        self._sweep(engine)
        main_delta = backend_stats().delta_since(before)
        # All simulation happened in forked workers: the calling
        # thread's own counters see none of it...
        assert main_delta.interp_runs == 0
        # ...but the engine's aggregate does.
        assert engine.sim_stats.interp_runs > 0

    def test_aggregated_stats_deterministic_across_pools(self):
        # BackendStats counts physical simulations per process, and the
        # candidate memo (verilog_eval._CACHE) is per worker: which
        # forked worker serves which cell decides how many simulations
        # a memo hit saves.  Run counts may therefore differ run to
        # run; the report may not.
        first = EvalEngine(jobs=3)
        first_report = self._sweep(first)
        second = EvalEngine(jobs=3)
        second_report = self._sweep(second)
        assert first_report == second_report
        assert first.sim_stats.interp_runs > 0
        assert second.sim_stats.interp_runs > 0

    def test_serial_stats_are_counted(self):
        serial = EvalEngine(jobs=1)
        self._sweep(serial)
        assert serial.sim_stats.interp_runs > 0

    def test_pool_workers_start_with_cold_memos(self):
        # One model, one level, distinct problems: no candidate is
        # shared between cells, so which worker serves which cell
        # cannot change how many simulations run.
        def sweep(engine):
            evaluate_generation([get_model("ours-13b")], _problems(4),
                                levels=("middle",), n_samples=3,
                                engine=engine)
            return engine.sim_stats

        clear_cache()
        cold = sweep(EvalEngine(jobs=1))
        assert cold.interp_runs > 0
        # The parent is now warm: its candidate memo holds every
        # verdict.  Forked workers must not inherit it.
        assert sweep(EvalEngine(jobs=3)) == cold

    def test_counters_are_thread_local(self):
        import threading
        from repro.sim import backend_stats
        main = backend_stats()
        seen = {}
        def bump():
            stats = backend_stats()
            stats.compiled_runs += 7
            seen["worker"] = stats.compiled_runs
        before = main.compiled_runs
        thread = threading.Thread(target=bump)
        thread.start()
        thread.join()
        assert seen["worker"] == 7
        assert main.compiled_runs == before

    def test_stats_copy_delta_add_arithmetic(self):
        from repro.sim import BackendStats
        stats = BackendStats(interp_runs=3, cache_hits=1)
        snap = stats.copy()
        stats.interp_runs += 2
        stats.cache_hits += 4
        delta = stats.delta_since(snap)
        assert delta.interp_runs == 2
        assert delta.cache_hits == 4
        assert delta.compiled_runs == 0
        total = BackendStats()
        total.add(snap)
        total.add(delta)
        assert total == stats
