"""Event-driven simulation engine (the repo's VCS stand-in).

Scheduling model (IEEE 1364 stratified event queue, simplified to the two
regions that matter for RTL):

* **active** — process resumptions and continuous-assign re-evaluations at
  the current time; executing them may trigger more active events (delta
  cycles);
* **NBA** — non-blocking assignment updates, applied only once the active
  region is empty.

Processes (``always`` / ``initial`` bodies) are Python generators that yield
``("delay", ticks)`` or ``("wait", senslist)`` requests to the scheduler, so
arbitrary mixes of delays and event controls work exactly like in a real
simulator.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from ..verilog import ast
from . import values as V
from .elaborate import Design, Proc, Signal, range_width
from .format import edge_fired, parse_template, render_spec, scope_name


class SimulationError(Exception):
    """Design could not be simulated (unsupported construct, bad index…)."""


class SimulationTimeout(SimulationError):
    """Delta-cycle oscillation or step budget exhausted.

    Carries the offending ``process`` label and the ``delta`` count at
    the point of failure so harnesses can report *where* a design hung,
    not just that it did.
    """

    def __init__(self, message: str, process: str | None = None,
                 delta: int | None = None):
        detail = message
        if process is not None:
            detail += f" [process: {process}]"
        if delta is not None:
            detail += f" [delta cycles: {delta}]"
        super().__init__(detail)
        self.process = process
        self.delta = delta


class _Finish(Exception):
    """Internal: raised by $finish/$stop to unwind the current process."""


@dataclass
class _Waiter:
    """A process parked on an event control."""

    state: "_ProcState"
    items: list[tuple[str | None, ast.Expr]]   # (edge, expr)
    prev: list[V.Value]
    ctx: "_Ctx"
    done: bool = False


@dataclass
class _ProcState:
    proc: Proc
    gen: object = None


@dataclass
class _Ctx:
    """Execution context: scope prefix + module (for functions) + locals."""

    prefix: str
    module: ast.Module
    locals: dict[str, V.Value] | None = None
    local_widths: dict[str, int] = field(default_factory=dict)


class Simulator:
    """Simulate an elaborated :class:`Design`."""

    def __init__(self, design: Design, max_delta: int = 50_000,
                 step_budget: int = 5_000_000):
        self.design = design
        self.time = 0
        self.finished = False
        self.display_lines: list[str] = []
        self._steps = 0
        self._step_budget = step_budget
        self._max_delta = max_delta
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._active: deque = deque()
        self._nba: list[tuple[ast.Expr, V.Value, _Ctx]] = []
        # Values are insertion-ordered index "sets" (dict keys), so
        # notify order is deterministic.
        self._assign_deps: dict[str, dict[int, None]] = {}
        self._assign_pending: set[int] = set()
        self._current_label: str | None = None
        self._delta = 0
        self._waiters: dict[str, list[_Waiter]] = {}
        self._rand_state = 0x2545F491
        self._assign_procs: list[Proc] = []
        self.tracer = None             # set by enable_tracing()
        self._build()

    def enable_tracing(self, filename: str = "dump.vcd"):
        """Attach a VCD tracer recording every signal change."""
        from .vcd import Tracer
        if self.tracer is None:
            self.tracer = Tracer(design=self.design, filename=filename)
            self.tracer.snapshot_initial(self.time)
        else:
            self.tracer.filename = filename
        return self.tracer

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for proc in self.design.procs:
            if proc.kind == "assign":
                proc.index = len(self._assign_procs)
                self._assign_procs.append(proc)
                ctx = _Ctx(proc.rhs_prefix, proc.module)
                for name in self._expr_deps(proc.rhs, ctx):
                    self._assign_deps.setdefault(name, {})[proc.index] \
                        = None
                self._assign_pending.add(proc.index)
                self._active.append(("assign", proc.index, None))
            else:
                state = _ProcState(proc)
                state.gen = self._run_proc(proc)
                self._active.append(("resume", state, None))

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _resolve(self, name: str, ctx: _Ctx) -> Signal | None:
        return self.design.signals.get(ctx.prefix + name)

    def _lookup_value(self, name: str, ctx: _Ctx) -> V.Value:
        if ctx.locals is not None and name in ctx.locals:
            return ctx.locals[name]
        signal = self._resolve(name, ctx)
        if signal is not None:
            if signal.is_array:
                raise SimulationError(
                    f"memory '{name}' used without an index")
            return signal.value
        params = self.design.params.get(ctx.prefix, {})
        if name in params:
            return params[name]
        raise SimulationError(f"identifier '{name}' is not declared")

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def eval(self, expr: ast.Expr, ctx: _Ctx) -> V.Value:
        self._steps += 1
        if self._steps > self._step_budget:
            raise SimulationTimeout("simulation step budget exhausted",
                                    process=self._current_label,
                                    delta=self._delta)
        if isinstance(expr, ast.Number):
            return V.from_literal(expr.text)
        if isinstance(expr, ast.Identifier):
            return self._lookup_value(expr.name, ctx)
        if isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            signal = self.design.signals.get(ctx.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                raise SimulationError(f"unknown hierarchical name '{name}'")
            return signal.value
        if isinstance(expr, ast.StringLiteral):
            data = expr.value.encode()
            width = max(8 * len(data), 8)
            return V.Value.of(int.from_bytes(data, "big") if data else 0,
                              width)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx)
        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond, ctx)
            if cond.is_true:
                return self.eval(expr.if_true, ctx)
            if cond.has_unknown:
                # x ? a : b — merge: bits equal in both stay, others x.
                a = self.eval(expr.if_true, ctx)
                b = self.eval(expr.if_false, ctx)
                width = max(a.width, b.width)
                a, b = a.resized(width), b.resized(width)
                same = ~(a.val ^ b.val) & ~(a.xz | b.xz)
                return V.Value(width=width, val=a.val & same,
                               xz=((1 << width) - 1) & ~same)
            return self.eval(expr.if_false, ctx)
        if isinstance(expr, ast.Concat):
            return V.concat([self.eval(p, ctx) for p in expr.parts])
        if isinstance(expr, ast.Repl):
            count = self.eval(expr.count, ctx)
            if count.has_unknown:
                raise SimulationError("replication count is x")
            return V.replicate(count.to_int(),
                               V.concat([self.eval(p, ctx)
                                         for p in expr.parts]))
        if isinstance(expr, ast.Index):
            return self._eval_index(expr, ctx)
        if isinstance(expr, ast.PartSelect):
            return self._eval_part_select(expr, ctx)
        if isinstance(expr, ast.FunctionCall):
            return self._eval_call(expr, ctx)
        raise SimulationError(
            f"cannot evaluate expression {type(expr).__name__}")

    def _eval_unary(self, expr: ast.Unary, ctx: _Ctx) -> V.Value:
        operand = self.eval(expr.operand, ctx)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            return V.sub(V.Value.of(0, operand.width), operand)
        if expr.op == "~":
            return V.bit_not(operand)
        if expr.op == "!":
            return V.logic_not(operand)
        return V.reduce_op(expr.op, operand)

    _BINOPS = {
        "+": V.add, "-": V.sub, "*": V.mul, "/": V.div, "%": V.mod,
        "**": V.power,
        "&": V.bit_and, "|": V.bit_or, "^": V.bit_xor,
        "^~": V.bit_xnor, "~^": V.bit_xnor,
        "&&": V.logic_and, "||": V.logic_or,
    }

    def _eval_binary(self, expr: ast.Binary, ctx: _Ctx) -> V.Value:
        op = expr.op
        handler = self._BINOPS.get(op)
        if handler is not None:
            return handler(self.eval(expr.left, ctx),
                           self.eval(expr.right, ctx))
        left = self.eval(expr.left, ctx)
        right = self.eval(expr.right, ctx)
        if op in ("<<", "<<<"):
            return V.shift_left(left, right)
        if op == ">>":
            return V.shift_right(left, right)
        if op == ">>>":
            signed = self._is_signed(expr.left, ctx)
            return V.shift_right(left, right, arithmetic=True, signed=signed)
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            signed = (self._is_signed(expr.left, ctx)
                      and self._is_signed(expr.right, ctx))
            return V.compare(op, left, right, signed=signed)
        raise SimulationError(f"unsupported binary operator '{op}'")

    def _is_signed(self, expr: ast.Expr, ctx: _Ctx) -> bool:
        if isinstance(expr, ast.Number):
            return "'" not in expr.text or expr.signed
        if isinstance(expr, ast.Identifier):
            signal = self._resolve(expr.name, ctx)
            if signal is not None:
                return signal.signed or signal.kind == "integer"
            return True  # parameters: treat as signed integers
        if isinstance(expr, ast.Unary) and expr.op in ("+", "-"):
            return self._is_signed(expr.operand, ctx)
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*", "/",
                                                        "%"):
            return (self._is_signed(expr.left, ctx)
                    and self._is_signed(expr.right, ctx))
        if isinstance(expr, ast.FunctionCall) and expr.name == "$signed":
            return True
        return False

    def _eval_index(self, expr: ast.Index, ctx: _Ctx) -> V.Value:
        if isinstance(expr.base, ast.Identifier):
            signal = self._resolve(expr.base.name, ctx)
            if signal is not None and signal.is_array:
                index = self.eval(expr.index, ctx)
                if index.has_unknown:
                    return V.Value.unknown(signal.width)
                return signal.element(index.to_int())
            if signal is not None:
                index = self.eval(expr.index, ctx)
                if index.has_unknown:
                    return V.Value.unknown(1)
                return signal.value.select_bit(
                    signal.bit_offset(index.to_int()))
        base = self.eval(expr.base, ctx)
        index = self.eval(expr.index, ctx)
        return base.select_bit(index)

    def _eval_part_select(self, expr: ast.PartSelect, ctx: _Ctx) -> V.Value:
        base_signal = None
        if isinstance(expr.base, ast.Identifier):
            base_signal = self._resolve(expr.base.name, ctx)
        if expr.mode == ":":
            msb = self.eval(expr.msb, ctx).to_int()
            lsb = self.eval(expr.lsb, ctx).to_int()
            if base_signal is not None and not base_signal.is_array:
                return base_signal.value.select_range(
                    base_signal.bit_offset(msb), base_signal.bit_offset(lsb))
            base = self.eval(expr.base, ctx)
            return base.select_range(msb, lsb)
        # Indexed part select: base[i +: w] / base[i -: w]
        start = self.eval(expr.msb, ctx)
        width = self.eval(expr.lsb, ctx).to_int()
        if start.has_unknown:
            return V.Value.unknown(width)
        start_idx = start.to_int()
        if expr.mode == "+:":
            lo, hi = start_idx, start_idx + width - 1
        else:
            lo, hi = start_idx - width + 1, start_idx
        if base_signal is not None and not base_signal.is_array:
            return base_signal.value.select_range(base_signal.bit_offset(hi),
                                                  base_signal.bit_offset(lo))
        base = self.eval(expr.base, ctx)
        return base.select_range(hi, lo)

    # -- function calls ----------------------------------------------------

    def _eval_call(self, expr: ast.FunctionCall, ctx: _Ctx) -> V.Value:
        if expr.is_system:
            return self._eval_system_call(expr, ctx)
        functions = self.design.functions.get(ctx.prefix, {})
        fn = functions.get(expr.name)
        if fn is None:
            raise SimulationError(f"unknown function '{expr.name}'")
        return self._call_function(fn, expr.args, ctx)

    def _eval_system_call(self, expr: ast.FunctionCall,
                          ctx: _Ctx) -> V.Value:
        name = expr.name
        if name == "$time":
            return V.Value.of(self.time, 64)
        if name == "$random":
            self._rand_state = (self._rand_state * 1103515245 + 12345) \
                & 0xFFFFFFFF
            return V.Value.of(self._rand_state, 32)
        if name in ("$signed", "$unsigned"):
            return self.eval(expr.args[0], ctx)
        if name == "$clog2":
            arg = self.eval(expr.args[0], ctx)
            if arg.has_unknown:
                return V.Value.unknown(32)
            return V.Value.of(max(arg.to_int() - 1, 0).bit_length(), 32)
        raise SimulationError(f"unsupported system function '{name}'")

    def _call_function(self, fn: ast.FunctionDecl, args: list[ast.Expr],
                       ctx: _Ctx) -> V.Value:
        locals_: dict[str, V.Value] = {}
        widths: dict[str, int] = {}
        params = self.design.params.get(ctx.prefix, {})
        ret_width = range_width(fn.range, params)
        locals_[fn.name] = V.Value.unknown(ret_width)
        widths[fn.name] = ret_width
        arg_pos = 0
        for item in fn.items:
            if isinstance(item, ast.PortDecl) and item.direction == "input":
                width = range_width(item.range, params)
                for name in item.names:
                    if arg_pos < len(args):
                        value = self.eval(args[arg_pos], ctx).resized(width)
                    else:
                        value = V.Value.unknown(width)
                    locals_[name] = value
                    widths[name] = width
                    arg_pos += 1
            elif isinstance(item, ast.Decl):
                width = 32 if item.kind == "integer" and item.range is None \
                    else range_width(item.range, params)
                for decl in item.declarators:
                    locals_[decl.name] = V.Value.unknown(width)
                    widths[decl.name] = width
        fn_ctx = _Ctx(ctx.prefix, ctx.module, locals=locals_,
                      local_widths=widths)
        self._exec_sync(fn.body, fn_ctx)
        return locals_[fn.name]

    def _exec_sync(self, stmt: ast.Stmt, ctx: _Ctx) -> None:
        """Execute delay-free statements (function bodies) synchronously."""
        for request in self._exec(stmt, ctx):
            raise SimulationError(
                "delay or event control inside a function")

    # ------------------------------------------------------------------
    # Lvalue writing
    # ------------------------------------------------------------------

    def _lvalue_width(self, expr: ast.Expr, ctx: _Ctx) -> int:
        if isinstance(expr, ast.Identifier):
            if ctx.locals is not None and expr.name in ctx.locals:
                return ctx.local_widths.get(expr.name,
                                            ctx.locals[expr.name].width)
            signal = self._resolve(expr.name, ctx)
            if signal is None:
                raise SimulationError(
                    f"identifier '{expr.name}' is not declared")
            return signal.width
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Identifier):
                signal = self._resolve(expr.base.name, ctx)
                if signal is not None and signal.is_array:
                    return signal.width
            return 1
        if isinstance(expr, ast.PartSelect):
            if expr.mode == ":":
                msb = self.eval(expr.msb, ctx).to_int()
                lsb = self.eval(expr.lsb, ctx).to_int()
                return abs(msb - lsb) + 1
            return self.eval(expr.lsb, ctx).to_int()
        if isinstance(expr, ast.Concat):
            return sum(self._lvalue_width(p, ctx) for p in expr.parts)
        raise SimulationError(
            f"invalid assignment target {type(expr).__name__}")

    def write_lvalue(self, lhs: ast.Expr, value: V.Value, ctx: _Ctx) -> None:
        if isinstance(lhs, ast.Concat):
            total = self._lvalue_width(lhs, ctx)
            value = value.resized(total)
            offset = total
            for part in lhs.parts:
                part_width = self._lvalue_width(part, ctx)
                offset -= part_width
                self.write_lvalue(
                    part, value.select_range(offset + part_width - 1, offset),
                    ctx)
            return
        if isinstance(lhs, ast.Identifier):
            if ctx.locals is not None and lhs.name in ctx.locals:
                width = ctx.local_widths.get(lhs.name,
                                             ctx.locals[lhs.name].width)
                ctx.locals[lhs.name] = value.resized(width)
                return
            signal = self._resolve(lhs.name, ctx)
            if signal is None:
                raise SimulationError(
                    f"identifier '{lhs.name}' is not declared")
            self._set_signal(signal, value.resized(signal.width))
            return
        if isinstance(lhs, ast.HierarchicalId):
            name = ".".join(lhs.parts)
            signal = self.design.signals.get(ctx.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                raise SimulationError(
                    f"unknown hierarchical name '{name}'")
            self._set_signal(signal, value.resized(signal.width))
            return
        if isinstance(lhs, ast.Index):
            if not isinstance(lhs.base, ast.Identifier):
                raise SimulationError("unsupported nested lvalue index")
            signal = self._resolve(lhs.base.name, ctx)
            if signal is None:
                raise SimulationError(
                    f"identifier '{lhs.base.name}' is not declared")
            index = self.eval(lhs.index, ctx)
            if index.has_unknown:
                return  # write to x index is lost
            if signal.is_array:
                self._set_element(signal, index.to_int(),
                                  value.resized(signal.width))
            else:
                offset = signal.bit_offset(index.to_int())
                if 0 <= offset < signal.width:
                    self._set_signal(
                        signal,
                        signal.value.with_bits(offset, offset, value))
            return
        if isinstance(lhs, ast.PartSelect):
            if not isinstance(lhs.base, ast.Identifier):
                raise SimulationError("unsupported nested lvalue select")
            signal = self._resolve(lhs.base.name, ctx)
            if signal is None:
                raise SimulationError(
                    f"identifier '{lhs.base.name}' is not declared")
            if lhs.mode == ":":
                msb = self.eval(lhs.msb, ctx).to_int()
                lsb = self.eval(lhs.lsb, ctx).to_int()
            else:
                start = self.eval(lhs.msb, ctx).to_int()
                width = self.eval(lhs.lsb, ctx).to_int()
                if lhs.mode == "+:":
                    lsb, msb = start, start + width - 1
                else:
                    msb, lsb = start, start - width + 1
            off_hi = signal.bit_offset(msb)
            off_lo = signal.bit_offset(lsb)
            self._set_signal(signal, signal.value.with_bits(
                max(off_hi, off_lo), min(off_hi, off_lo), value))
            return
        raise SimulationError(
            f"invalid assignment target {type(lhs).__name__}")

    # ------------------------------------------------------------------
    # Signal updates & notification
    # ------------------------------------------------------------------

    def _set_signal(self, signal: Signal, value: V.Value) -> None:
        if signal.value == value:
            return
        signal.value = value
        if self.tracer is not None:
            self.tracer.record(signal.name, self.time, value)
        self._notify(signal.name)

    def _set_element(self, signal: Signal, index: int,
                     value: V.Value) -> None:
        if signal.element(index) == value:
            return
        signal.array[index] = value
        self._notify(signal.name)

    def _notify(self, name: str) -> None:
        for proc_index in self._assign_deps.get(name, ()):
            if proc_index not in self._assign_pending:
                self._assign_pending.add(proc_index)
                self._active.append(("assign", proc_index, None))
        waiters = self._waiters.get(name)
        if not waiters:
            return
        still: list[_Waiter] = []
        for waiter in waiters:
            if waiter.done:
                continue
            if self._check_trigger(waiter):
                waiter.done = True
                self._active.append(("resume", waiter.state, None))
            else:
                still.append(waiter)
        self._waiters[name] = still

    #: Posedge/negedge rule, including x transitions (sim.format).
    _edge_fired = staticmethod(edge_fired)

    def _check_trigger(self, waiter: _Waiter) -> bool:
        fired = False
        for pos, (edge, expr) in enumerate(waiter.items):
            new = self.eval(expr, waiter.ctx)
            if self._edge_fired(edge, waiter.prev[pos], new):
                fired = True
            waiter.prev[pos] = new
        return fired

    # ------------------------------------------------------------------
    # Dependency analysis
    # ------------------------------------------------------------------

    def _expr_deps(self, expr: ast.Expr, ctx: _Ctx,
                   acc: set[str] | None = None) -> set[str]:
        if acc is None:
            acc = set()
        if isinstance(expr, ast.Identifier):
            if self._resolve(expr.name, ctx) is not None:
                acc.add(ctx.prefix + expr.name)
        elif isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            if ctx.prefix + name in self.design.signals:
                acc.add(ctx.prefix + name)
            elif name in self.design.signals:
                acc.add(name)
        elif isinstance(expr, ast.Unary):
            self._expr_deps(expr.operand, ctx, acc)
        elif isinstance(expr, ast.Binary):
            self._expr_deps(expr.left, ctx, acc)
            self._expr_deps(expr.right, ctx, acc)
        elif isinstance(expr, ast.Ternary):
            self._expr_deps(expr.cond, ctx, acc)
            self._expr_deps(expr.if_true, ctx, acc)
            self._expr_deps(expr.if_false, ctx, acc)
        elif isinstance(expr, (ast.Concat,)):
            for part in expr.parts:
                self._expr_deps(part, ctx, acc)
        elif isinstance(expr, ast.Repl):
            self._expr_deps(expr.count, ctx, acc)
            for part in expr.parts:
                self._expr_deps(part, ctx, acc)
        elif isinstance(expr, ast.Index):
            self._expr_deps(expr.base, ctx, acc)
            self._expr_deps(expr.index, ctx, acc)
        elif isinstance(expr, ast.PartSelect):
            self._expr_deps(expr.base, ctx, acc)
            self._expr_deps(expr.msb, ctx, acc)
            self._expr_deps(expr.lsb, ctx, acc)
        elif isinstance(expr, ast.FunctionCall):
            for arg in expr.args:
                self._expr_deps(arg, ctx, acc)
            if not expr.is_system:
                fn = self.design.functions.get(ctx.prefix, {}) \
                    .get(expr.name)
                if fn is not None and fn.body is not None:
                    self._stmt_reads(fn.body, ctx, acc)
        return acc

    def _stmt_reads(self, stmt: ast.Stmt, ctx: _Ctx,
                    acc: set[str]) -> None:
        """All signals read anywhere in ``stmt`` (for @(*) sensitivity)."""
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Stmt):
                    self._stmt_reads(child, ctx, acc)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._expr_deps(stmt.rhs, ctx, acc)
            # index expressions on the LHS are reads too
            lhs = stmt.lhs
            if isinstance(lhs, ast.Index):
                self._expr_deps(lhs.index, ctx, acc)
            elif isinstance(lhs, ast.PartSelect):
                self._expr_deps(lhs.msb, ctx, acc)
                self._expr_deps(lhs.lsb, ctx, acc)
        elif isinstance(stmt, ast.IfStmt):
            self._expr_deps(stmt.cond, ctx, acc)
            if stmt.then_stmt:
                self._stmt_reads(stmt.then_stmt, ctx, acc)
            if stmt.else_stmt:
                self._stmt_reads(stmt.else_stmt, ctx, acc)
        elif isinstance(stmt, ast.CaseStmt):
            self._expr_deps(stmt.expr, ctx, acc)
            for item in stmt.items:
                for expr in item.exprs:
                    self._expr_deps(expr, ctx, acc)
                if item.stmt:
                    self._stmt_reads(item.stmt, ctx, acc)
        elif isinstance(stmt, ast.ForStmt):
            self._expr_deps(stmt.cond, ctx, acc)
            self._stmt_reads(stmt.init, ctx, acc)
            self._stmt_reads(stmt.step, ctx, acc)
            self._stmt_reads(stmt.body, ctx, acc)
        elif isinstance(stmt, (ast.WhileStmt,)):
            self._expr_deps(stmt.cond, ctx, acc)
            self._stmt_reads(stmt.body, ctx, acc)
        elif isinstance(stmt, (ast.RepeatStmt,)):
            self._expr_deps(stmt.count, ctx, acc)
            self._stmt_reads(stmt.body, ctx, acc)
        elif isinstance(stmt, ast.ForeverStmt):
            self._stmt_reads(stmt.body, ctx, acc)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                               ast.WaitStmt)):
            if stmt.stmt:
                self._stmt_reads(stmt.stmt, ctx, acc)
        elif isinstance(stmt, ast.SysTaskCall):
            for arg in stmt.args:
                if not isinstance(arg, ast.StringLiteral):
                    self._expr_deps(arg, ctx, acc)

    # ------------------------------------------------------------------
    # Statement execution (generator)
    # ------------------------------------------------------------------

    def _run_proc(self, proc: Proc):
        ctx = _Ctx(proc.prefix, proc.module)
        try:
            if proc.kind == "initial":
                yield from self._exec(proc.body, ctx)
            else:
                while True:
                    yield from self._exec(proc.body, ctx)
                    self._steps += 50  # charge loop overhead
                    if self._steps > self._step_budget:
                        raise SimulationTimeout(
                            "always block without delay or event control",
                            process=proc.label, delta=self._delta)
        except _Finish:
            pass

    def _exec(self, stmt: ast.Stmt | None, ctx: _Ctx):
        self._steps += 1
        if self._steps > self._step_budget:
            raise SimulationTimeout("simulation step budget exhausted",
                                    process=self._current_label,
                                    delta=self._delta)
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Decl):
                    continue  # hoisted at elaboration
                yield from self._exec(child, ctx)
            return
        if isinstance(stmt, ast.BlockingAssign):
            value = self.eval(stmt.rhs, ctx)
            if stmt.delay is not None:
                ticks = self.eval(stmt.delay, ctx).to_int()
                if ticks:
                    yield ("delay", ticks)
            self.write_lvalue(stmt.lhs, value, ctx)
            return
        if isinstance(stmt, ast.NonBlockingAssign):
            value = self.eval(stmt.rhs, ctx)
            if stmt.delay is not None:
                ticks = self.eval(stmt.delay, ctx).to_int()
                self._schedule(ticks, ("nba_future", (stmt.lhs, value, ctx)))
            else:
                self._nba.append((stmt.lhs, value, ctx))
            return
        if isinstance(stmt, ast.IfStmt):
            cond = self.eval(stmt.cond, ctx)
            if cond.is_true:
                yield from self._exec(stmt.then_stmt, ctx)
            elif stmt.else_stmt is not None:
                yield from self._exec(stmt.else_stmt, ctx)
            return
        if isinstance(stmt, ast.CaseStmt):
            yield from self._exec_case(stmt, ctx)
            return
        if isinstance(stmt, ast.ForStmt):
            yield from self._exec(stmt.init, ctx)
            while self.eval(stmt.cond, ctx).is_true:
                yield from self._exec(stmt.body, ctx)
                yield from self._exec(stmt.step, ctx)
            return
        if isinstance(stmt, ast.WhileStmt):
            while self.eval(stmt.cond, ctx).is_true:
                yield from self._exec(stmt.body, ctx)
            return
        if isinstance(stmt, ast.RepeatStmt):
            count = self.eval(stmt.count, ctx)
            for _ in range(max(count.to_int(), 0)):
                yield from self._exec(stmt.body, ctx)
            return
        if isinstance(stmt, ast.ForeverStmt):
            while True:
                yield from self._exec(stmt.body, ctx)
                self._steps += 50
                if self._steps > self._step_budget:
                    raise SimulationTimeout("forever loop without delay",
                                            process=self._current_label,
                                            delta=self._delta)
            return
        if isinstance(stmt, ast.DelayStmt):
            ticks = self.eval(stmt.delay, ctx).to_int()
            yield ("delay", ticks)
            yield from self._exec(stmt.stmt, ctx)
            return
        if isinstance(stmt, ast.EventControlStmt):
            yield ("wait", self._sens_items(stmt.senslist, ctx), ctx)
            yield from self._exec(stmt.stmt, ctx)
            return
        if isinstance(stmt, ast.WaitStmt):
            while not self.eval(stmt.cond, ctx).is_true:
                items = [(None, dep_expr) for dep_expr in
                         self._dep_exprs(stmt.cond, ctx)]
                if not items:
                    raise SimulationError("wait() on constant expression")
                yield ("wait", items, ctx)
            yield from self._exec(stmt.stmt, ctx)
            return
        if isinstance(stmt, ast.SysTaskCall):
            self._exec_systask(stmt, ctx)
            return
        if isinstance(stmt, ast.DisableStmt):
            return  # treated as a no-op fence
        if isinstance(stmt, ast.TaskCall):
            raise SimulationError(
                f"user task '{stmt.name}' is not supported")
        raise SimulationError(
            f"cannot execute statement {type(stmt).__name__}")

    def _dep_exprs(self, expr: ast.Expr, ctx: _Ctx) -> list[ast.Expr]:
        names = self._expr_deps(expr, ctx)
        out = []
        for name in names:
            local = name[len(ctx.prefix):] if name.startswith(ctx.prefix) \
                else name
            out.append(ast.Identifier(name=local))
        return out

    def _sens_items(self, senslist: ast.SensList,
                    ctx: _Ctx) -> list[tuple[str | None, ast.Expr]]:
        if senslist.is_star:
            raise SimulationError("@(*) must be expanded at process setup")
        return [(item.edge, item.signal) for item in senslist.items]

    def _exec_case(self, stmt: ast.CaseStmt, ctx: _Ctx):
        selector = self.eval(stmt.expr, ctx)
        default_item = None
        for item in stmt.items:
            if not item.exprs:
                default_item = item
                continue
            for label_expr in item.exprs:
                label = self.eval(label_expr, ctx)
                if self._case_match(stmt.kind, selector, label):
                    yield from self._exec(item.stmt, ctx)
                    return
        if default_item is not None:
            yield from self._exec(default_item.stmt, ctx)

    @staticmethod
    def _case_match(kind: str, selector: V.Value, label: V.Value) -> bool:
        width = max(selector.width, label.width)
        sel = selector.resized(width)
        lab = label.resized(width)
        if kind == "case":
            return sel.val == lab.val and sel.xz == lab.xz
        if kind == "casez":
            care = ~lab.xz            # label x/z/? bits are don't-care
        else:  # casex
            care = ~(lab.xz | sel.xz)
        mask = (1 << width) - 1
        care &= mask
        if kind == "casez" and (sel.xz & care):
            return False              # selector x on a cared-for bit
        return (sel.val & care) == (lab.val & care)

    # -- system tasks --------------------------------------------------------

    def _exec_systask(self, stmt: ast.SysTaskCall, ctx: _Ctx) -> None:
        name = stmt.name
        if name in ("$display", "$write", "$strobe", "$monitor", "$error",
                    "$warning", "$info"):
            text = self._format_args(stmt.args, ctx)
            if name == "$error":
                text = "ERROR: " + text
            self.display_lines.append(text)
            return
        if name in ("$finish", "$stop", "$fatal"):
            self.finished = True
            raise _Finish()
        if name == "$dumpfile":
            filename = "dump.vcd"
            if stmt.args and isinstance(stmt.args[0], ast.StringLiteral):
                filename = stmt.args[0].value
            self.enable_tracing(filename)
            self.tracer.enabled = False   # armed by $dumpvars
            return
        if name == "$dumpvars":
            tracer = self.enable_tracing(
                self.tracer.filename if self.tracer else "dump.vcd")
            tracer.enabled = True
            tracer.snapshot_initial(self.time)
            return
        if name == "$dumpon":
            if self.tracer is not None:
                self.tracer.enabled = True
            return
        if name == "$dumpoff":
            if self.tracer is not None:
                self.tracer.enabled = False
            return
        if name in ("$timeformat", "$readmemh", "$readmemb"):
            return  # accepted and ignored
        raise SimulationError(f"unsupported system task '{name}'")

    def _format_args(self, args: list[ast.Expr], ctx: _Ctx) -> str:
        if not args:
            return ""
        first = args[0]
        if isinstance(first, ast.StringLiteral):
            return self._format_string(first.value, args[1:], ctx)
        rendered = []
        for arg in args:
            if isinstance(arg, ast.StringLiteral):
                rendered.append(arg.value)
            else:
                rendered.append(V.format_value(self.eval(arg, ctx), "d"))
        return " ".join(rendered)

    def _format_string(self, template: str, args: list[ast.Expr],
                       ctx: _Ctx) -> str:
        out: list[str] = []
        arg_iter = iter(args)
        for segment in parse_template(template):
            kind = segment[0]
            if kind == "lit":
                out.append(segment[1])
            elif kind == "pct":
                out.append("%")
            elif kind == "mod":
                out.append(scope_name(ctx.prefix, self.design.top))
            else:
                spec = segment[1]
                try:
                    arg = next(arg_iter)
                except StopIteration:
                    out.append("%" + spec)
                    continue
                if spec == "s" and isinstance(arg, ast.StringLiteral):
                    out.append(arg.value)
                    continue
                out.append(render_spec(spec, self.eval(arg, ctx)))
        return "".join(out)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def _schedule(self, delay: int, action) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.time + max(delay, 0), self._seq,
                                    action))

    def _resume(self, state: _ProcState, ctx_hint) -> None:
        try:
            request = next(state.gen)
        except StopIteration:
            return
        except _Finish:
            return
        self._handle_request(state, request)

    def _handle_request(self, state: _ProcState, request) -> None:
        kind = request[0]
        if kind == "delay":
            self._schedule(request[1], ("resume", state, None))
            return
        if kind == "wait":
            items, ctx = request[1], request[2]
            expanded = self._expand_star(items, state, ctx)
            waiter = _Waiter(
                state=state,
                items=expanded,
                prev=[self.eval(expr, ctx) for _, expr in expanded],
                ctx=ctx)
            deps: set[str] = set()
            for _, expr in expanded:
                self._expr_deps(expr, ctx, deps)
            if not deps:
                raise SimulationError("event control with no signals")
            for name in deps:
                self._waiters.setdefault(name, []).append(waiter)
            return
        raise SimulationError(f"unknown scheduler request {kind!r}")

    def _expand_star(self, items, state: _ProcState, ctx: _Ctx):
        # items comes from _sens_items which rejects stars; stars are
        # expanded here from the process body instead.
        return items

    def _run_assign(self, index: int) -> None:
        proc = self._assign_procs[index]
        rhs_ctx = _Ctx(proc.rhs_prefix, proc.module)
        lhs_ctx = _Ctx(proc.lhs_prefix, proc.module)
        value = self.eval(proc.rhs, rhs_ctx)
        self.write_lvalue(proc.lhs, value, lhs_ctx)

    def run(self, max_time: int = 1_000_000) -> None:
        """Run until $finish, event exhaustion, or ``max_time``."""
        self._prepare_star_processes()
        while True:
            delta = 0
            while self._active or self._nba:
                while self._active:
                    delta += 1
                    self._delta = delta
                    if delta > self._max_delta:
                        raise SimulationTimeout(
                            f"delta overflow at time {self.time}",
                            process=self._current_label, delta=delta)
                    kind, payload, extra = self._active.popleft()
                    if self.finished:
                        return
                    if kind == "resume":
                        self._current_label = payload.proc.label
                        self._resume(payload, extra)
                    elif kind == "assign":
                        self._current_label = \
                            self._assign_procs[payload].label
                        self._assign_pending.discard(payload)
                        self._run_assign(payload)
                if self.finished:
                    return
                if self._nba:
                    updates, self._nba = self._nba, []
                    for lhs, value, ctx in updates:
                        self.write_lvalue(lhs, value, ctx)
            if self.finished or not self._heap:
                return
            next_time = self._heap[0][0]
            if next_time > max_time:
                return
            self.time = next_time
            while self._heap and self._heap[0][0] == next_time:
                _, _, action = heapq.heappop(self._heap)
                if action[0] == "nba_future":
                    self._nba.append(action[1])
                else:
                    self._active.append(action)

    def _prepare_star_processes(self) -> None:
        """Expand @(*) sensitivity into explicit signal lists up-front."""
        for proc in self.design.procs:
            if proc.kind != "always" or proc.body is None:
                continue
            body = proc.body
            if isinstance(body, ast.EventControlStmt) and \
                    body.senslist.is_star:
                ctx = _Ctx(proc.prefix, proc.module)
                reads: set[str] = set()
                if body.stmt is not None:
                    self._stmt_reads(body.stmt, ctx, reads)
                items = []
                for name in sorted(reads):
                    local = name[len(proc.prefix):] \
                        if name.startswith(proc.prefix) else name
                    items.append(ast.SensItem(
                        edge=None, signal=ast.Identifier(name=local)))
                if not items:
                    items.append(ast.SensItem(
                        edge=None, signal=ast.Identifier(name="__never__")))
                    continue
                body.senslist = ast.SensList(items=items)

    # -- introspection -----------------------------------------------------

    def value_of(self, name: str) -> V.Value:
        """Current value of a (hierarchical) signal name."""
        return self.design.signal(name).value
