"""Table renderers matching the paper's evaluation section layout."""

from __future__ import annotations

from ..bench.problems import PROMPT_LEVELS
from ..llm.registry import get_profile
from .passk import format_pct
from .script_eval import IterationResult, ScriptReport
from .verilog_eval import GenerationReport

#: Paper Table 1 (qualitative comparison), reproduced statically.
TABLE1_ROWS = [
    ("ChipNeMo", "Verilog Generation", "Llama 2", "Verilog",
     "Private", "no"),
    ("Thakur et al.", "Verilog Completion", "CodeGen", "Verilog",
     "Github etc.", "no"),
    ("ChatEDA", "EDA Script Generation", "Llama 2",
     "ChatEDA (Python DSL)", "Custom", "no"),
    ("Ours", "Verilog Gen/Repair, EDA Script", "Llama 2",
     "Verilog, SiliconCompiler (Python DSL)", "Github etc.", "yes"),
]


def render_table1() -> str:
    header = (f"{'Work':<14} {'Target Task':<30} {'Base Model':<10} "
              f"{'Target Language':<38} {'Data':<12} {'Auto Aug.':<9}")
    lines = [header, "-" * len(header)]
    for row in TABLE1_ROWS:
        lines.append(f"{row[0]:<14} {row[1]:<30} {row[2]:<10} "
                     f"{row[3]:<38} {row[4]:<12} {row[5]:<9}")
    return "\n".join(lines)


def _display(model: str) -> str:
    return get_profile(model).display


def render_table5(report: GenerationReport,
                  thakur_names: list[str], rtllm_names: list[str],
                  levels: tuple[str, ...] = PROMPT_LEVELS,
                  pass_k: int = 5) -> str:
    """Paper Table 5: Thakur rows (triple cells) + RTLLM rows + totals,
    plus overall pass@1 / pass@k rows."""
    models = list(report.cells)
    syn_w, fn_w = 9, 18
    col_w = syn_w + fn_w
    header = f"{'benchmark':<18}" + "".join(
        f"{_display(m):>{col_w}}" for m in models)
    sub = f"{'name':<18}" + "".join(
        f"{'syntax':>{syn_w}}{'function':>{fn_w}}" for _ in models)
    lines = [header, sub, "-" * len(sub)]
    for name in thakur_names:
        row = f"{name:<18}"
        for model in models:
            cells = [report.cell(model, name, level) for level in levels]
            syntax = "/".join(str(c.syntax_errors) for c in cells)
            func = "/".join(format_pct(c.function_rate, 0)
                            for c in cells)
            row += f"{syntax:>{syn_w}}{func:>{fn_w}}"
        lines.append(row)
    lines.append(f"{'success rate':<18}" + "".join(
        f"{'':>{syn_w}}"
        f"{format_pct(report.success_rate(m, thakur_names)):>{fn_w}}"
        for m in models))
    lines.append("-" * len(sub))
    for name in rtllm_names:
        row = f"{name:<18}"
        for model in models:
            level = levels[len(levels) // 2] if len(levels) > 1 \
                else levels[0]
            cell = report.cell(model, name, level)
            row += (f"{cell.syntax_errors:>{syn_w}}"
                    f"{format_pct(cell.function_rate, 0):>{fn_w}}")
        lines.append(row)
    lines.append(f"{'success rate':<18}" + "".join(
        f"{'':>{syn_w}}"
        f"{format_pct(report.success_rate(m, rtllm_names)):>{fn_w}}"
        for m in models))
    lines.append("-" * len(sub))
    all_names = thakur_names + rtllm_names
    lines.append(f"{'All success':<18}" + "".join(
        f"{'':>{syn_w}}"
        f"{format_pct(report.success_rate(m, all_names)):>{fn_w}}"
        for m in models))
    ks = [1] if pass_k <= 1 else [1, pass_k]
    for k in ks:
        lines.append(f"{f'pass@{k}':<18}" + "".join(
            f"{'':>{syn_w}}"
            f"{format_pct(report.pass_at_k(m, k, all_names)):>{fn_w}}"
            for m in models))
    return "\n".join(lines)


def render_table3(report: GenerationReport,
                  problem_names: list[str]) -> str:
    """Paper Table 3: per-design repair syntax/function + success rate
    (a repair report's one level is ``""``)."""
    models = list(report.cells)
    header = f"{'Benchmark':<18}" + "".join(
        f"{_display(m):>24}" for m in models)
    sub = f"{'':<18}" + "".join(
        f"{'syntax':>12}{'function':>12}" for _ in models)
    lines = [header, sub, "-" * len(sub)]
    for name in problem_names:
        row = f"{name:<18}"
        for model in models:
            cell = report.cell(model, name, "")
            row += (f"{cell.syntax_errors:>12}"
                    f"{format_pct(cell.function_rate, 0):>12}")
        lines.append(row)
    lines.append("-" * len(sub))
    lines.append(f"{'success rate':<18}" + "".join(
        f"{'':>12}{format_pct(report.success_rate(m)):>12}"
        for m in models))
    return "\n".join(lines)


def render_table4(report: ScriptReport, task_names: list[str]) -> str:
    """Paper Table 4: iterations to syntax-/function-correct scripts."""
    models = list(report.results)
    header = f"{'benchmark':<14}" + "".join(
        f"{_display(m):>22}" for m in models)
    sub = f"{'':<14}" + "".join(f"{'syn.':>11}{'func.':>11}"
                                for _ in models)
    lines = [header, sub, "-" * len(sub)]
    for task in task_names:
        row = f"{task:<14}"
        for model in models:
            result = report.results[model][task]
            row += (f"{IterationResult.render(result.syntax_iteration, report.max_attempts):>11}"
                    f"{IterationResult.render(result.function_iteration, report.max_attempts):>11}")
        lines.append(row)
    lines.append("-" * len(sub))
    avg_row = f"{'avg pass@k':<14}"
    for model in models:
        avg_syn, avg_func = report.average(model)
        avg_row += (
            f"{(f'{avg_syn:.1f}' if avg_syn is not None else f'>{report.max_attempts}'):>11}"
            f"{(f'{avg_func:.1f}' if avg_func is not None else f'>{report.max_attempts}'):>11}")
    lines.append(avg_row)
    return "\n".join(lines)
