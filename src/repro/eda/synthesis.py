"""Logic synthesis: Verilog AST → gate-level netlist (yosys stand-in).

Bit-blasts a synthesisable subset of the RTL our corpus and benchmark
scripts use: continuous assigns, combinational ``always @(*)`` and clocked
``always @(posedge …)`` processes with if/case/non-blocking assignments.
Word-level operators are decomposed into a standard-cell netlist (INV /
AND2 / OR2 / XOR2 / MUX2 / DFF …) whose area and timing the flow stages
then analyse.

Unsupported constructs raise :class:`SynthesisError` — the same behaviour
an RTL-to-GDS flow shows when handed non-synthesisable code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.elaborate import (ElaborationError, const_eval, eval_params,
                             range_bounds, range_width)
from ..sim.values import from_literal
from ..verilog import VerilogError, ast, parse
from .pdk import PDK, SKY130

ZERO = "$zero"
ONE = "$one"


class SynthesisError(Exception):
    """Raised when the design uses constructs synthesis does not support."""


@dataclass
class Gate:
    kind: str
    inputs: list[str]
    output: str


@dataclass
class Netlist:
    """Flat gate-level netlist with bit-granular ports."""

    module: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    clock: str | None = None

    @property
    def flops(self) -> list[Gate]:
        return [g for g in self.gates if g.kind == "DFF"]

    @property
    def combinational(self) -> list[Gate]:
        return [g for g in self.gates if g.kind != "DFF"]

    def cell_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gate in self.gates:
            counts[gate.kind] = counts.get(gate.kind, 0) + 1
        return counts

    def area_um2(self, pdk: PDK = SKY130) -> float:
        return sum(pdk.cell(g.kind).area_um2 for g in self.gates)

    def longest_path_ns(self, pdk: PDK = SKY130) -> float:
        """Topological longest path through gate delays (wire-free STA)."""
        arrival: dict[str, float] = {net: 0.0 for net in self.inputs}
        arrival[ZERO] = arrival[ONE] = 0.0
        # Flop outputs are path starts.
        for flop in self.flops:
            arrival[flop.output] = pdk.cell("DFF").delay_ns
        remaining = list(self.combinational)
        worst = 0.0
        for _ in range(len(remaining) + 1):
            progressed = False
            still: list[Gate] = []
            for gate in remaining:
                if all(net in arrival for net in gate.inputs):
                    time = (max((arrival[n] for n in gate.inputs),
                                default=0.0)
                            + pdk.cell(gate.kind).delay_ns)
                    arrival[gate.output] = time
                    worst = max(worst, time)
                    progressed = True
                else:
                    still.append(gate)
            remaining = still
            if not remaining:
                break
            if not progressed:
                raise SynthesisError("combinational loop in netlist")
        # Paths ending at flop D inputs contribute setup paths too.
        for flop in self.flops:
            d_net = flop.inputs[0]
            worst = max(worst, arrival.get(d_net, 0.0)
                        + pdk.cell("DFF").delay_ns)
        return worst


@dataclass
class SynthResult:
    netlist: Netlist
    area_um2: float
    cell_counts: dict[str, int]
    critical_path_ns: float

    @property
    def num_cells(self) -> int:
        return sum(self.cell_counts.values())

    @property
    def fmax_mhz(self) -> float:
        if self.critical_path_ns <= 0:
            return 10_000.0
        return 1000.0 / self.critical_path_ns


class Synthesizer:
    """Bit-blasting synthesizer for one module."""

    def __init__(self, module: ast.Module, pdk: PDK = SKY130):
        self.module = module
        self.pdk = pdk
        self.netlist = Netlist(module=module.name)
        self.params: dict = {}          # evaluated by run()
        self.signals: dict[str, list[str]] = {}   # name -> bit nets (LSB..)
        self.widths: dict[str, int] = {}
        self._net_id = 0

    # -- helpers -----------------------------------------------------------

    def _fresh(self) -> str:
        self._net_id += 1
        return f"n{self._net_id}"

    def _gate(self, kind: str, inputs: list[str]) -> str:
        out = self._fresh()
        self.netlist.gates.append(Gate(kind=kind, inputs=inputs,
                                       output=out))
        return out

    # -- elaboration of signals ------------------------------------------

    def _declare(self) -> None:
        directions: dict[str, str] = {}
        port_widths: dict[str, int] = {}
        for decl in self.module.port_decls():
            width = range_width(decl.range, self.params)
            for name in decl.names:
                directions[name] = decl.direction
                port_widths[name] = width
        for item in self.module.items_of_type(ast.Decl):
            if item.kind != "genvar":
                width = range_width(item.range, self.params)
                if item.kind == "integer":
                    width = 32
                for decl in item.declarators:
                    if decl.array is not None:
                        raise SynthesisError(
                            f"memory '{decl.name}' is not synthesisable "
                            f"here")
                    self.widths[decl.name] = width
        self.widths.update(port_widths)
        for port in self.module.ports:
            if port.name not in self.widths:
                self.widths[port.name] = 1
                directions.setdefault(port.name, "input")
        # Allocate bit nets.
        for name, width in self.widths.items():
            bits = [f"{name}[{i}]" for i in range(width)]
            self.signals[name] = bits
            if directions.get(name) == "input":
                self.netlist.inputs.extend(bits)
            elif directions.get(name) == "output":
                self.netlist.outputs.extend(bits)

    # -- expression bit-blasting -------------------------------------------

    def bits(self, expr: ast.Expr, width: int | None = None) -> list[str]:
        nets = self._bits(expr)
        if width is None:
            return nets
        if len(nets) >= width:
            return nets[:width]
        return nets + [ZERO] * (width - len(nets))

    def _bits(self, expr: ast.Expr) -> list[str]:
        if isinstance(expr, ast.Identifier):
            if expr.name in self.signals:
                return list(self.signals[expr.name])
            if expr.name in self.params:
                value = self.params[expr.name]
                return [ONE if (value.val >> i) & 1 else ZERO
                        for i in range(max(value.width, 1))]
            raise SynthesisError(f"unknown identifier '{expr.name}'")
        if isinstance(expr, ast.Number):
            value = from_literal(expr.text)
            return [ONE if (value.val >> i) & 1 else ZERO
                    for i in range(max(value.width, 1))]
        if isinstance(expr, ast.Unary):
            return self._unary_bits(expr)
        if isinstance(expr, ast.Binary):
            return self._binary_bits(expr)
        if isinstance(expr, ast.Ternary):
            cond = self._reduce_or(self._bits(expr.cond))
            then_bits = self._bits(expr.if_true)
            else_bits = self._bits(expr.if_false)
            width = max(len(then_bits), len(else_bits))
            then_bits += [ZERO] * (width - len(then_bits))
            else_bits += [ZERO] * (width - len(else_bits))
            return [self._gate("MUX2", [else_bits[i], then_bits[i], cond])
                    for i in range(width)]
        if isinstance(expr, ast.Concat):
            out: list[str] = []
            for part in reversed(expr.parts):     # LSB-first storage
                out.extend(self._bits(part))
            return out
        if isinstance(expr, ast.Repl):
            count = const_eval(expr.count, self.params).to_int()
            chunk: list[str] = []
            for part in reversed(expr.parts):
                chunk.extend(self._bits(part))
            return chunk * count
        if isinstance(expr, ast.Index):
            return [self._select_bit(expr)]
        if isinstance(expr, ast.PartSelect):
            return self._part_select_bits(expr)
        raise SynthesisError(
            f"cannot synthesize expression {type(expr).__name__}")

    def _signal_offset(self, name: str, index: int) -> int:
        # Declared ranges are normalised at declaration; assume [msb:0]
        # style (our corpus and benchmark designs use descending ranges).
        return index

    def _select_bit(self, expr: ast.Index) -> str:
        if not isinstance(expr.base, ast.Identifier):
            raise SynthesisError("complex bit-select base")
        base_bits = self._bits(expr.base)
        try:
            index = const_eval(expr.index, self.params).to_int()
        except ElaborationError:
            # variable index → mux tree
            sel_bits = self._bits(expr.index)
            return self._mux_tree(base_bits, sel_bits)
        offset = self._signal_offset(expr.base.name, index)
        if 0 <= offset < len(base_bits):
            return base_bits[offset]
        return ZERO

    def _mux_tree(self, data: list[str], select: list[str]) -> str:
        current = list(data)
        for level, sel in enumerate(select):
            nxt = []
            for i in range(0, len(current), 2):
                a = current[i]
                b = current[i + 1] if i + 1 < len(current) else ZERO
                nxt.append(self._gate("MUX2", [a, b, sel]))
            current = nxt or [ZERO]
            if len(current) == 1:
                break
        return current[0]

    def _part_select_bits(self, expr: ast.PartSelect) -> list[str]:
        if not isinstance(expr.base, ast.Identifier):
            raise SynthesisError("complex part-select base")
        base_bits = self._bits(expr.base)
        if expr.mode == ":":
            msb, lsb, _ = range_bounds(expr, self.params)
        else:
            start = const_eval(expr.msb, self.params).to_int()
            width = const_eval(expr.lsb, self.params).to_int()
            if expr.mode == "+:":
                lsb, msb = start, start + width - 1
            else:
                msb, lsb = start, start - width + 1
        lo, hi = min(msb, lsb), max(msb, lsb)
        out = []
        for i in range(lo, hi + 1):
            out.append(base_bits[i] if 0 <= i < len(base_bits) else ZERO)
        return out

    def _unary_bits(self, expr: ast.Unary) -> list[str]:
        operand = self._bits(expr.operand)
        if expr.op == "~":
            return [self._inv(bit) for bit in operand]
        if expr.op == "!":
            return [self._inv(self._reduce_or(operand))]
        if expr.op == "-":
            inverted = [self._inv(bit) for bit in operand]
            total, _ = self._adder(
                inverted, [ZERO] * len(operand), ONE)
            return total
        if expr.op == "+":
            return operand
        if expr.op in ("&", "~&"):
            out = self._tree("AND2", operand)
            return [self._inv(out) if expr.op == "~&" else out]
        if expr.op in ("|", "~|"):
            out = self._reduce_or(operand)
            return [self._inv(out) if expr.op == "~|" else out]
        if expr.op in ("^", "~^", "^~"):
            out = self._tree("XOR2", operand)
            return [self._inv(out) if expr.op != "^" else out]
        raise SynthesisError(f"unsupported unary operator '{expr.op}'")

    def _binary_bits(self, expr: ast.Binary) -> list[str]:
        op = expr.op
        if op in ("&", "|", "^", "~^", "^~"):
            left = self._bits(expr.left)
            right = self._bits(expr.right)
            width = max(len(left), len(right))
            left += [ZERO] * (width - len(left))
            right += [ZERO] * (width - len(right))
            kind = {"&": "AND2", "|": "OR2", "^": "XOR2",
                    "~^": "XNOR2", "^~": "XNOR2"}[op]
            return [self._gate(kind, [left[i], right[i]])
                    for i in range(width)]
        if op in ("&&", "||"):
            a = self._reduce_or(self._bits(expr.left))
            b = self._reduce_or(self._bits(expr.right))
            return [self._gate("AND2" if op == "&&" else "OR2", [a, b])]
        if op in ("+", "-"):
            left = self._bits(expr.left)
            right = self._bits(expr.right)
            width = max(len(left), len(right))
            left += [ZERO] * (width - len(left))
            right += [ZERO] * (width - len(right))
            if op == "-":
                right = [self._inv(bit) for bit in right]
                total, _ = self._adder(left, right, ONE)
            else:
                total, _ = self._adder(left, right, ZERO)
            return total
        if op == "*":
            return self._multiplier(expr)
        if op in ("==", "!="):
            left = self._bits(expr.left)
            right = self._bits(expr.right)
            width = max(len(left), len(right))
            left += [ZERO] * (width - len(left))
            right += [ZERO] * (width - len(right))
            eq_bits = [self._gate("XNOR2", [left[i], right[i]])
                       for i in range(width)]
            out = self._tree("AND2", eq_bits)
            return [self._inv(out) if op == "!=" else out]
        if op in ("<", "<=", ">", ">="):
            return [self._compare(expr)]
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._shift(expr)
        raise SynthesisError(f"unsupported binary operator '{op}'")

    def _compare(self, expr: ast.Binary) -> str:
        left = self._bits(expr.left)
        right = self._bits(expr.right)
        width = max(len(left), len(right))
        left += [ZERO] * (width - len(left))
        right += [ZERO] * (width - len(right))
        # a - b: carry out == 1  ⟺  a >= b (unsigned)
        inverted = [self._inv(bit) for bit in right]
        _, carry = self._adder(left, inverted, ONE)
        ge = carry
        if expr.op == ">=":
            return ge
        if expr.op == "<":
            return self._inv(ge)
        # strict greater / less-equal need equality too
        eq_bits = [self._gate("XNOR2", [left[i], right[i]])
                   for i in range(width)]
        eq = self._tree("AND2", eq_bits)
        if expr.op == ">":
            return self._gate("AND2", [ge, self._inv(eq)])
        return self._gate("OR2", [self._inv(ge), eq])   # <=

    def _shift(self, expr: ast.Binary) -> list[str]:
        left = self._bits(expr.left)
        width = len(left)
        fill = left[-1] if expr.op == ">>>" else ZERO
        try:
            amount = const_eval(expr.right, self.params).to_int()
        except ElaborationError:
            return self._barrel_shift(expr.op, left, fill,
                                      self._bits(expr.right))
        if expr.op in ("<<", "<<<"):
            return ([ZERO] * min(amount, width)
                    + left)[:width]
        shifted = left[amount:]
        return shifted + [fill] * (width - len(shifted))

    def _barrel_shift(self, op: str, data: list[str], fill: str,
                      amount_bits: list[str]) -> list[str]:
        """Variable shift as a logarithmic barrel of MUX2 layers."""
        width = len(data)
        stages = max((width - 1).bit_length(), 1)
        current = list(data)
        for k in range(min(stages, len(amount_bits))):
            select = amount_bits[k]
            step = 1 << k
            if op in ("<<", "<<<"):
                shifted = ([ZERO] * min(step, width)
                           + current[:max(width - step, 0)])[:width]
            else:
                shifted = (current[step:]
                           + [fill] * min(step, width))[:width]
            current = [self._gate("MUX2",
                                  [current[i], shifted[i], select])
                       for i in range(width)]
        # Amount bits beyond the barrel range shift everything out.
        extra = amount_bits[stages:]
        if extra:
            any_high = self._tree("OR2", list(extra))
            overflow = fill if op == ">>>" else ZERO
            current = [self._gate("MUX2",
                                  [current[i], overflow, any_high])
                       for i in range(width)]
        return current

    def _multiplier(self, expr: ast.Binary) -> list[str]:
        left = self._bits(expr.left)
        right = self._bits(expr.right)
        width = max(len(left), len(right))
        if width > 16:
            raise SynthesisError("multiplier wider than 16 bits")
        left += [ZERO] * (width - len(left))
        right += [ZERO] * (width - len(right))
        acc = [ZERO] * width
        for i, select in enumerate(right):
            partial = [ZERO] * i
            partial += [self._gate("AND2", [bit, select])
                        for bit in left[:width - i]]
            acc, _ = self._adder(acc, partial[:width], ZERO)
        return acc

    # -- gate primitives ---------------------------------------------------

    def _inv(self, net: str) -> str:
        if net == ZERO:
            return ONE
        if net == ONE:
            return ZERO
        return self._gate("INV", [net])

    def _tree(self, kind: str, nets: list[str]) -> str:
        if not nets:
            return ZERO
        current = list(nets)
        while len(current) > 1:
            nxt = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(self._gate(kind, [current[i], current[i + 1]]))
            if len(current) % 2:
                nxt.append(current[-1])
            current = nxt
        return current[0]

    def _reduce_or(self, nets: list[str]) -> str:
        return self._tree("OR2", nets)

    def _adder(self, a: list[str], b: list[str],
               cin: str) -> tuple[list[str], str]:
        out = []
        carry = cin
        for bit_a, bit_b in zip(a, b):
            axb = self._gate("XOR2", [bit_a, bit_b])
            out.append(self._gate("XOR2", [axb, carry]))
            gen = self._gate("AND2", [bit_a, bit_b])
            prop = self._gate("AND2", [axb, carry])
            carry = self._gate("OR2", [gen, prop])
        return out, carry

    # -- statement conversion (always blocks) ------------------------------

    def _stmt_updates(self, stmt: ast.Stmt | None,
                      env: dict[str, list[str]]) -> dict[str, list[str]]:
        """Functional update map target → next-value bits."""
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return env
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Stmt):
                    env = self._stmt_updates(child, env)
            return env
        if isinstance(stmt, (ast.NonBlockingAssign, ast.BlockingAssign)):
            return self._assign_update(stmt.lhs, stmt.rhs, env)
        if isinstance(stmt, ast.IfStmt):
            cond = self._reduce_or(self.bits(stmt.cond))
            then_env = self._stmt_updates(stmt.then_stmt, dict(env))
            else_env = self._stmt_updates(stmt.else_stmt, dict(env)) \
                if stmt.else_stmt else env
            return self._merge_env(cond, then_env, else_env)
        if isinstance(stmt, ast.CaseStmt):
            default_env = env
            branches: list[tuple[str, dict[str, list[str]]]] = []
            for item in stmt.items:
                if not item.exprs:
                    default_env = self._stmt_updates(item.stmt, dict(env))
                    continue
                conditions = []
                for label in item.exprs:
                    eq = ast.Binary(op="==", left=stmt.expr, right=label)
                    conditions.append(self._reduce_or(self.bits(eq)))
                cond = self._tree("OR2", conditions)
                branches.append(
                    (cond, self._stmt_updates(item.stmt, dict(env))))
            merged = default_env
            for cond, branch_env in reversed(branches):
                merged = self._merge_env(cond, branch_env, merged)
            return merged
        raise SynthesisError(
            f"cannot synthesize statement {type(stmt).__name__}")

    def _assign_update(self, lhs: ast.Expr, rhs: ast.Expr,
                       env: dict[str, list[str]]) -> dict[str, list[str]]:
        env = dict(env)
        if isinstance(lhs, ast.Identifier):
            width = self.widths.get(lhs.name)
            if width is None:
                raise SynthesisError(f"unknown target '{lhs.name}'")
            env[lhs.name] = self.bits(rhs, width)
            return env
        if isinstance(lhs, ast.Concat):
            total = 0
            part_widths = []
            for part in lhs.parts:
                if not isinstance(part, ast.Identifier):
                    raise SynthesisError("complex concat lvalue")
                part_widths.append(self.widths[part.name])
                total += part_widths[-1]
            rhs_bits = self.bits(rhs, total)
            offset = total
            for part, width in zip(lhs.parts, part_widths):
                offset -= width
                env[part.name] = rhs_bits[offset:offset + width]  # type: ignore[union-attr]
            return env
        if isinstance(lhs, (ast.Index, ast.PartSelect)) and \
                isinstance(lhs.base, ast.Identifier):
            name = lhs.base.name
            current = env.get(name, list(self.signals[name]))
            current = list(current)
            if isinstance(lhs, ast.Index):
                index = const_eval(lhs.index, self.params).to_int()
                current[index] = self.bits(rhs, 1)[0]
            else:
                msb, lsb, width = range_bounds(lhs, self.params)
                lo = min(msb, lsb)
                current[lo:lo + width] = self.bits(rhs, width)
            env[name] = current
            return env
        raise SynthesisError("unsupported assignment target")

    def _merge_env(self, cond: str, then_env: dict[str, list[str]],
                   else_env: dict[str, list[str]]) -> dict[str, list[str]]:
        merged: dict[str, list[str]] = {}
        for name in set(then_env) | set(else_env):
            then_bits = then_env.get(name, list(self.signals[name]))
            else_bits = else_env.get(name, list(self.signals[name]))
            if then_bits == else_bits:
                merged[name] = then_bits
            else:
                merged[name] = [
                    self._gate("MUX2", [else_bits[i], then_bits[i], cond])
                    for i in range(len(then_bits))]
        return merged

    # -- top level ------------------------------------------------------

    def run(self) -> Netlist:
        """Bit-blast the module.  A parameter, range or select that is
        not constant where synthesis needs one raises
        :class:`SynthesisError` with the elaborator's message."""
        try:
            self.params = eval_params(self.module)
            self._declare()
            driven: dict[str, list[str]] = {}
            for item in self.module.items:
                if isinstance(item, ast.ContinuousAssign):
                    for lhs, rhs in item.assignments:
                        driven.update(self._assign_update(lhs, rhs, {}))
                elif isinstance(item, ast.Always):
                    self._synthesize_always(item, driven)
                elif isinstance(item, ast.Instantiation):
                    raise SynthesisError(
                        "hierarchical synthesis not supported; flatten "
                        "first")
        except ElaborationError as exc:
            raise SynthesisError(str(exc)) from exc
        # Rebind driven signals: replace placeholder nets with driver nets.
        self._rebind(driven)
        return self.netlist

    def _synthesize_always(self, item: ast.Always,
                           driven: dict[str, list[str]]) -> None:
        sens = item.senslist
        clock = None
        if sens is not None and not sens.is_star:
            for sens_item in sens.items:
                if sens_item.edge == "posedge" and \
                        isinstance(sens_item.signal, ast.Identifier):
                    name = sens_item.signal.name
                    if "clk" in name.lower() or clock is None:
                        clock = name
        if clock is not None:
            self.netlist.clock = self.netlist.clock or clock
            env = self._stmt_updates(item.body, {})
            clock_net = self.signals[clock][0]
            for target, next_bits in env.items():
                q_bits = []
                for bit in next_bits:
                    q_bits.append(self._gate_dff(bit, clock_net))
                driven[target] = q_bits
        else:
            env = self._stmt_updates(item.body, {})
            driven.update(env)

    def _gate_dff(self, d_net: str, clock_net: str) -> str:
        out = self._fresh()
        self.netlist.gates.append(Gate(kind="DFF",
                                       inputs=[d_net, clock_net],
                                       output=out))
        return out

    def _rebind(self, driven: dict[str, list[str]]) -> None:
        """Replace references to driven signal bits with the driver nets."""
        mapping: dict[str, str] = {}
        for name, bits in driven.items():
            for i, net in enumerate(bits):
                placeholder = f"{name}[{i}]"
                if net != placeholder:
                    mapping[placeholder] = net
        # Resolve chains (a -> b -> c).
        def resolve(net: str) -> str:
            seen = set()
            while net in mapping and net not in seen:
                seen.add(net)
                net = mapping[net]
            return net
        for gate in self.netlist.gates:
            gate.inputs = [resolve(net) for net in gate.inputs]
        # Outputs: tie output bit names to their drivers via buffers.
        new_outputs = []
        for out_bit in self.netlist.outputs:
            driver = resolve(out_bit)
            if driver != out_bit:
                self.netlist.gates.append(Gate(kind="BUF",
                                               inputs=[driver],
                                               output=out_bit))
            new_outputs.append(out_bit)
        self.netlist.outputs = new_outputs


def synthesize(source_text: str, top: str | None = None,
               pdk: PDK = SKY130) -> SynthResult:
    """Synthesize one module from source text to a gate-level netlist."""
    try:
        source = parse(source_text)
    except VerilogError as exc:
        raise SynthesisError(f"parse failed: {exc}") from exc
    if not source.modules:
        raise SynthesisError("no modules in source")
    module = source.modules[0]
    if top is not None:
        module = source.module(top)
    netlist = Synthesizer(module, pdk).run()
    return SynthResult(netlist=netlist,
                       area_um2=netlist.area_um2(pdk),
                       cell_counts=netlist.cell_counts(),
                       critical_path_ns=netlist.longest_path_ns(pdk))
