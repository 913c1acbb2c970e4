"""How the Verilog toolchain reads declarations, pinned.

The lint checker, the elaborator and the synthesizer each read a
module's parameters, ports and range widths.  ``tests/golden/
frontend.json`` pins, over a fixed text set, what each of them makes of
every text:

* ``check``: the :func:`repro.checker.check_source` report;
* ``signals``: the elaborated signal table (name, kind, width, msb/lsb,
  array bounds) of the text's top module, or the error elaboration
  raised;
* ``netlist``: a digest of the synthesized netlist's ports, cell
  counts, area and critical path, or the synthesis error.  (Not of the
  netlist text: the order the synthesizer emits gates in varies with
  the process's string-hash seed.)

The text set: two designs of each corpus family, every thakur and
RTLLM reference and testbench (a testbench elaborates on top of its
reference), a syntax mutation and a functional corruption of each of
those designs, checker-only edge inputs whose ranges use arithmetic
the checker may or may not evaluate, and designs whose ranges or
parameters once crashed elaboration or synthesis.
"""

import hashlib
import json

from repro.bench import rtllm_suite, thakur_suite
from repro.checker import check_source
from repro.core.mutation import Mutator
from repro.corpus import family_names, generate_corpus
from repro.eda import SynthesisError, synthesize
from repro.llm.behavioral import corrupt_functionally
from repro.sim import elaborate, find_top
from repro.verilog import VerilogError, parse

#: Inputs only the checker reads: each one's report depends on how far
#: the checker evaluates a range bound.
CHECK_ONLY = {
    "edge/negative-msb": """module m (output [-1:0] y);
  assign y = 4'b1010;
endmodule
""",
    "edge/clog2-range": """module m #(parameter N = 8) (input [N-1:0] a,
    output [$clog2(N)-1:0] y);
  assign y = a;
endmodule
""",
    "edge/shift-range": """module m #(parameter W = 2) (input [7:0] a,
    output [(1 << W)-1:0] y);
  assign y = a;
endmodule
""",
    "edge/ternary-range": """module m #(parameter W = 3) (input [7:0] a,
    output [(W > 2 ? 4 : 2)-1:0] y);
  assign y = a;
endmodule
""",
    "edge/param-arith": """module m #(parameter W = 6, parameter H = W / 2)
    (input [W-1:0] a, output [H-1:0] y);
  wire [W*2-1:0] wide;
  assign wide = {a, a};
  assign y = wide;
endmodule
""",
    "edge/unevaluable-param": """module m #(parameter W = Q) (input [3:0] a,
    output [W-1:0] y);
  assign y = a;
endmodule
""",
}


#: Designs elaboration or synthesis once crashed on: a negative bound
#: read unsigned (a 2**32-bit signal), a range past the width limit, and
#: a parameter that is not constant.
DECLARATION_EDGES = {
    "decl/negative-msb": """module m (input [3:0] a, output [-1:0] y);
  assign y = a;
endmodule
""",
    "decl/oversized-range": """module m (input [70000:0] a, output y);
  assign y = a[0];
endmodule
""",
    "decl/unconstant-param": """module m #(parameter W = Q) (input [3:0] a,
    output [3:0] y);
  assign y = a;
endmodule
""",
}


def _designs() -> dict[str, str]:
    per_family = len(family_names())
    designs = {f"corpus/{i}": text for i, text in
               enumerate(generate_corpus(2 * per_family, seed=0))}
    for problem in list(thakur_suite()) + list(rtllm_suite()):
        designs[f"{problem.name}/ref"] = problem.reference
    return designs


def _signals(text: str) -> object:
    try:
        source = parse(text)
        design = elaborate(source, find_top(source))
    except VerilogError as exc:
        return f"error: {exc}"
    return [[s.name, s.kind, s.width, s.msb, s.lsb, s.array_lo, s.array_hi]
            for s in design.signals.values()]


def _netlist(text: str) -> str:
    try:
        result = synthesize(text)
    except (SynthesisError, VerilogError) as exc:
        return f"error: {exc}"
    summary = [result.netlist.inputs, result.netlist.outputs,
               sorted(result.cell_counts.items()),
               round(result.area_um2, 6), round(result.critical_path_ns, 6)]
    return hashlib.sha256(json.dumps(summary).encode()).hexdigest()[:16]


def _pins() -> dict:
    designs = _designs()
    full = {}
    for name, text in designs.items():
        full[name] = text
        full[f"{name}/mutated"] = Mutator(seed=len(full)).mutate(
            text).mutated
        full[f"{name}/corrupted"] = corrupt_functionally(text,
                                                         seed=len(full))
    full.update(DECLARATION_EDGES)
    pins = {}
    for name, text in full.items():
        pins[name] = {"check": check_source(text).report(),
                      "signals": _signals(text),
                      "netlist": _netlist(text)}
    for problem in list(thakur_suite()) + list(rtllm_suite()):
        name = f"{problem.name}/tb"
        pins[name] = {
            "check": check_source(problem.testbench).report(),
            "signals": _signals(problem.reference + "\n"
                                + problem.testbench)}
    for name, text in CHECK_ONLY.items():
        pins[name] = {"check": check_source(text).report()}
    return pins


def test_frontend_reading_is_pinned(golden):
    golden("frontend.json", _pins())
