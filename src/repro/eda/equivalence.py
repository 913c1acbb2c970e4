"""Simulation-based logical equivalence checking (RTL vs netlist).

Drives the original RTL and its own synthesized gate-level netlist with
the same (seeded) random vectors inside one generated testbench and
compares outputs cycle by cycle with ``!==``.  This is the repo's answer
to "how do we know the synthesizer is right": every synthesizable design
must be vector-equivalent to its netlist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sim import run_simulation
from ..sim.elaborate import eval_params, range_width
from ..verilog import ast, parse
from .netlist_writer import _net_name, netlist_to_verilog
from .synthesis import SynthesisError, Synthesizer

_RESET_NAMES = ("rst_n", "reset_n", "rst", "reset")


@dataclass
class EquivalenceResult:
    equivalent: bool
    vectors: int
    mismatches: int
    error: str | None = None


def _port_info(module: ast.Module) -> tuple[list[tuple[str, int]],
                                            list[tuple[str, int]]]:
    """(inputs, outputs) as (name, width) lists, header order."""
    params = eval_params(module)
    directions: dict[str, str] = {}
    widths: dict[str, int] = {}
    for decl in module.port_decls():
        width = range_width(decl.range, params)
        for port_name in decl.names:
            directions[port_name] = decl.direction
            widths[port_name] = width
    inputs = [(p.name, widths.get(p.name, 1)) for p in module.ports
              if directions.get(p.name) == "input"]
    outputs = [(p.name, widths.get(p.name, 1)) for p in module.ports
               if directions.get(p.name) == "output"]
    return inputs, outputs


def _gate_connections(name: str, width: int, target: str) -> list[str]:
    """Named netlist-port connections for one RTL port."""
    conns = []
    for bit in range(width):
        flat = _net_name(f"{name}[{bit}]")
        source = f"{target}[{bit}]" if width > 1 else target
        conns.append(f".{flat}({source})")
    return conns


def check_equivalence(rtl_text: str, top: str | None = None,
                      vectors: int = 24, seed: int = 0
                      ) -> EquivalenceResult:
    """Random-vector equivalence of a design and its synthesized netlist."""
    source = parse(rtl_text)
    module = source.module(top) if top else source.modules[0]
    try:
        netlist = Synthesizer(module).run()
    except SynthesisError as exc:
        return EquivalenceResult(equivalent=False, vectors=0,
                                 mismatches=0, error=str(exc))
    gate_text = netlist_to_verilog(netlist)
    inputs, outputs = _port_info(module)
    clock = netlist.clock
    reset = next((name for name, _ in inputs if name in _RESET_NAMES),
                 None)
    rng = random.Random(seed)

    drive_inputs = [(name, width) for name, width in inputs
                    if name != clock]
    decls = []
    for name, width in inputs:
        rng_txt = f" [{width - 1}:0]" if width > 1 else ""
        decls.append(f"  reg{rng_txt} {name};")
    for name, width in outputs:
        rng_txt = f" [{width - 1}:0]" if width > 1 else ""
        decls.append(f"  wire{rng_txt} {name}_rtl;")
        for bit in range(width):
            decls.append(f"  wire {_net_name(name + f'[{bit}]')}_g;")

    rtl_conns = [f".{name}({name})" for name, _ in inputs]
    rtl_conns += [f".{name}({name}_rtl)" for name, _ in outputs]
    gate_conns = []
    for name, width in inputs:
        gate_conns.extend(_gate_connections(name, width, name))
    for name, width in outputs:
        for bit in range(width):
            flat = _net_name(f"{name}[{bit}]")
            gate_conns.append(f".{flat}({flat}_g)")

    compare_lines = []
    for name, width in outputs:
        gate_bits = ", ".join(
            f"{_net_name(name + f'[{bit}]')}_g"
            for bit in reversed(range(width)))
        compare_lines.append(
            f"    if ({name}_rtl !== {{{gate_bits}}}) "
            f"$display(\"MISMATCH {name} vector %0d\", vec); "
            f"else $display(\"MATCH {name}\");")

    stimulus = []
    for vec in range(vectors):
        for name, width in drive_inputs:
            if name == reset:
                continue
            value = rng.randrange(1 << width)
            stimulus.append(f"    {name} = {width}'d{value};")
        if clock is not None:
            stimulus.append("    #1;")
            stimulus.append(f"    {clock} = 1; #1; {clock} = 0; #1;")
        else:
            stimulus.append("    #1;")
        stimulus.append(f"    vec = {vec};")
        stimulus.extend(compare_lines)

    reset_block = ""
    if reset is not None:
        active = "1'b0" if reset.endswith("_n") else "1'b1"
        inactive = "1'b1" if reset.endswith("_n") else "1'b0"
        pulse = (f"    {reset} = {active};\n")
        if clock is not None:
            pulse += (f"    #1; {clock} = 1; #1; {clock} = 0; #1;\n"
                      f"    {clock} = 1; #1; {clock} = 0; #1;\n")
        else:
            pulse += "    #2;\n"
        pulse += f"    {reset} = {inactive};\n"
        reset_block = pulse

    clk_init = f"    {clock} = 0;\n" if clock is not None else ""
    zero_inputs = "\n".join(f"    {name} = 0;"
                            for name, _ in drive_inputs)
    testbench = f"""module eq_tb;
{chr(10).join(decls)}
  integer vec;
  {module.name} dut_rtl ({', '.join(rtl_conns)});
  {netlist.module}_gates dut_gate ({', '.join(gate_conns)});
  initial begin
{clk_init}{zero_inputs}
{reset_block}{chr(10).join(stimulus)}
    $finish;
  end
endmodule
"""
    sim = run_simulation(rtl_text + "\n" + gate_text + "\n" + testbench,
                         top="eq_tb")
    if not sim.ok:
        return EquivalenceResult(equivalent=False, vectors=vectors,
                                 mismatches=0, error=sim.error)
    mismatches = sum(1 for line in sim.display
                     if line.startswith("MISMATCH"))
    return EquivalenceResult(equivalent=mismatches == 0,
                             vectors=vectors, mismatches=mismatches)
