"""Compiling simulation backend: lower a Design once, run it many times.

The interpreter (:mod:`repro.sim.engine`) re-resolves names and re-walks
expression trees on every delta cycle.  This module lowers an elaborated
:class:`~repro.sim.elaborate.Design` **once** into plain Python closures:

* **expressions** become nested closures over a flat signal store
  (``rt.store[slot]``) — no per-cycle name resolution, no isinstance
  dispatch, literals pre-parsed into :class:`~repro.sim.values.Value`
  constants and constant subtrees folded at lowering time;
* **processes** are lowered with statically precomputed sensitivity and
  edge sets.  The common RTL shape — ``always @(edges) <delay-free
  body>`` — becomes a *reactive* process: a single compiled function
  re-armed on static ``(slot, edge)`` watch entries, with no generator
  machinery at all.  Testbench-style processes (delays, waits,
  mid-body event controls) compile to coroutines that yield the same
  scheduler requests the interpreter uses;
* **scheduler state** is kept in per-slot arrays (``list`` indexed by
  signal slot) instead of the interpreter's name-keyed dicts of
  ``_Waiter`` objects that re-evaluate sensitivity expressions.

Semantics are mirrored branch-for-branch from the interpreter — the
differential fuzz harness (``tests/test_sim_differential.py``) and the
golden-trace suite assert that final signal states, ``$display``
transcripts and VCD dumps are identical.  Anything the lowerer cannot
prove it handles raises :class:`CompileUnsupported`, and the caller
(:func:`repro.sim.run_simulation`) falls back to the interpreter; the
fallback is counted in :func:`backend_stats`.  This is the simulator's
only fast backend: the interpreter stays as reference oracle and
fallback.

Compiled designs are cached in a content-keyed
:class:`CompiledDesignCache` (key = source digest +
:data:`SIM_COMPILE_VERSION`).  Closures cannot be persisted, so the
cache is two-layered: an in-memory LRU holds the compiled artefacts,
while an optional :class:`~repro.scale.cache.ManifestCache`-backed layer
persists *unsupported* verdicts (+ fallback reason) so warm worker
processes skip doomed compile attempts without re-parsing.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
import heapq
import json
import sys
import threading

from ..scale.cache import LRUCache, ManifestCache
from ..verilog import ast
from ..verilog.errors import VerilogError
from . import values as V
from .elaborate import Design, ElaborationError, Proc, Signal, const_eval
from .engine import SimulationError, SimulationTimeout, Simulator, _Finish
from .format import parse_template, render_spec, scope_name

#: Bump when lowering rules or runtime semantics change; invalidates
#: every cached compile verdict and in-memory artefact.
SIM_COMPILE_VERSION = 1

_case_match = Simulator._case_match


class CompileUnsupported(Exception):
    """The lowerer met a construct it cannot compile faithfully.

    Raised at lowering time only — the simulation then falls back to the
    interpreter, which either supports the construct or reports the same
    :class:`SimulationError` the interpreter always did.
    """


# --------------------------------------------------------------------------
# Backend accounting (fallbacks are counted and reported)
# --------------------------------------------------------------------------

@dataclass
class BackendStats:
    """Per-thread accounting of backend selection.

    Counters are kept *per thread* (and therefore per process) so
    concurrent pool workers never race on them; callers that fan work
    out aggregate the per-item :meth:`delta_since` snapshots back
    through their result stream (see ``repro.eval.engine``), which is
    exact regardless of pool type.

    The counters are *physical*: they count simulations, compiles and
    cache hits that actually happened in the counting process.  Work a
    per-process memo answers (e.g. ``repro.eval.verilog_eval``'s
    candidate cache) never reaches the simulator and is not counted,
    so aggregated totals depend on which worker served which item.
    Verdicts do not.
    """

    #: Keep the per-reason dict bounded — reasons can embed design
    #: details, and a long sweep must not grow it without limit.
    MAX_REASONS = 64

    _COUNTERS = ("compiled_runs", "interp_runs", "fallbacks",
                 "compiles", "cache_hits", "codegen_hits",
                 "codegen_misses")

    compiled_runs: int = 0        #: simulations served by the compiled backend
    interp_runs: int = 0          #: simulations explicitly run interpreted
    fallbacks: int = 0            #: compiled requests that fell back
    compiles: int = 0             #: actual lowering passes executed
    cache_hits: int = 0           #: compiled-design cache hits (in-memory)
    #: No backend increments these two; they stay 0 so ``/api/health``
    #: and bench readers keep their schema.
    codegen_hits: int = 0
    codegen_misses: int = 0
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    def record_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        if reason not in self.fallback_reasons and \
                len(self.fallback_reasons) >= self.MAX_REASONS:
            reason = "other"
        self.fallback_reasons[reason] = \
            self.fallback_reasons.get(reason, 0) + 1

    def copy(self) -> "BackendStats":
        """A detached snapshot of the current counters."""
        return BackendStats(
            **{name: getattr(self, name) for name in self._COUNTERS},
            fallback_reasons=dict(self.fallback_reasons))

    def delta_since(self, before: "BackendStats") -> "BackendStats":
        """Counter increments since a :meth:`copy` snapshot."""
        delta = BackendStats(
            **{name: getattr(self, name) - getattr(before, name)
               for name in self._COUNTERS})
        for reason, count in self.fallback_reasons.items():
            diff = count - before.fallback_reasons.get(reason, 0)
            if diff:
                delta.fallback_reasons[reason] = diff
        return delta

    def add(self, other: "BackendStats") -> None:
        """Accumulate another stats object (e.g. a worker delta)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for reason, count in sorted(other.fallback_reasons.items()):
            if reason not in self.fallback_reasons and \
                    len(self.fallback_reasons) >= self.MAX_REASONS:
                reason = "other"
            self.fallback_reasons[reason] = \
                self.fallback_reasons.get(reason, 0) + count

    @property
    def total_runs(self) -> int:
        return self.compiled_runs + self.interp_runs

    def summary(self) -> str:
        return (f"sim backend: {self.compiled_runs} compiled / "
                f"{self.interp_runs} interpreted / "
                f"{self.fallbacks} fallback(s), "
                f"{self.compiles} compile(s), "
                f"{self.cache_hits} cache hit(s)")


_STATS_LOCAL = threading.local()


def backend_stats() -> BackendStats:
    """The live backend counters of the *calling thread*."""
    stats = getattr(_STATS_LOCAL, "stats", None)
    if stats is None:
        stats = _STATS_LOCAL.stats = BackendStats()
    return stats


def reset_backend_stats() -> None:
    """Test hook: zero the calling thread's backend counters."""
    _STATS_LOCAL.stats = BackendStats()


# --------------------------------------------------------------------------
# Lowering: scopes and name resolution (compile-time only)
# --------------------------------------------------------------------------

class _Scope:
    """Compile-time name resolution: module scope + optional fn locals."""

    __slots__ = ("low", "prefix", "module", "locals", "local_widths")

    def __init__(self, low: "_Lower", prefix: str, module: ast.Module,
                 locals_map: dict[str, int] | None = None,
                 local_widths: dict[str, int] | None = None):
        self.low = low
        self.prefix = prefix
        self.module = module
        self.locals = locals_map
        self.local_widths = local_widths

    def resolve(self, name: str) -> tuple[int, Signal] | None:
        signal = self.low.design.signals.get(self.prefix + name)
        if signal is None:
            return None
        return self.low.slots[signal.name], signal

    def params(self) -> dict[str, V.Value]:
        return self.low.design.params.get(self.prefix, {})

    def fn_scope(self, locals_map, local_widths) -> "_Scope":
        return _Scope(self.low, self.prefix, self.module,
                      locals_map, local_widths)


def _raiser(exc_type, message):
    """A closure that raises lazily — mirrors the interpreter, which
    only errors when the offending construct is actually evaluated."""
    def run(rt, fr, *_ignored):
        raise exc_type(message)
    return run


def _const_closure(value: V.Value):
    def run(rt, fr, _v=value):
        return _v
    return run


class _Lower:
    """One lowering pass over a Design; produces a CompiledDesign."""

    def __init__(self, design: Design):
        self.design = design
        self.names: list[str] = list(design.signals)
        self.slots: dict[str, int] = {n: i for i, n in
                                      enumerate(self.names)}
        self.signals: list[Signal] = [design.signals[n]
                                      for n in self.names]
        self._functions: dict[tuple[str, str], list] = {}
        self._fn_costs: dict[tuple[str, str], int] = {}
        self.stats = {"signals": len(self.names), "procs": 0,
                      "reactive": 0, "coroutines": 0, "assigns": 0,
                      "functions": 0}

    # -- expressions -----------------------------------------------------

    def compile_expr(self, expr: ast.Expr, scope: _Scope):
        closure, _const = self._expr(expr, scope)
        return closure

    def _expr(self, expr: ast.Expr, scope: _Scope):
        """Returns (closure, is_const); const subtrees are folded."""
        closure, is_const = self._expr_raw(expr, scope)
        if is_const:
            try:
                value = closure(None, None)
            except SimulationError:
                return closure, False    # raises lazily, mirror runtime
            return _const_closure(value), True
        return closure, False

    def _expr_raw(self, expr: ast.Expr, scope: _Scope):
        if isinstance(expr, ast.Number):
            return _const_closure(V.from_literal(expr.text)), True
        if isinstance(expr, ast.Identifier):
            return self._identifier(expr.name, scope)
        if isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            signal = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                return _raiser(SimulationError,
                               f"unknown hierarchical name '{name}'"), False
            slot = self.slots[signal.name]

            def run(rt, fr, _s=slot):
                return rt.store[_s]
            return run, False
        if isinstance(expr, ast.StringLiteral):
            data = expr.value.encode()
            width = max(8 * len(data), 8)
            return _const_closure(
                V.Value.of(int.from_bytes(data, "big") if data else 0,
                           width)), True
        if isinstance(expr, ast.Unary):
            return self._unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, scope)
        if isinstance(expr, ast.Ternary):
            return self._ternary(expr, scope)
        if isinstance(expr, ast.Concat):
            parts = [self._expr(p, scope) for p in expr.parts]
            closures = [c for c, _ in parts]

            def run(rt, fr, _p=closures):
                return V.concat([c(rt, fr) for c in _p])
            return run, all(c for _, c in parts)
        if isinstance(expr, ast.Repl):
            count, count_const = self._expr(expr.count, scope)
            parts = [self._expr(p, scope) for p in expr.parts]
            closures = [c for c, _ in parts]

            def run(rt, fr, _n=count, _p=closures):
                n = _n(rt, fr)
                if n.has_unknown:
                    raise SimulationError("replication count is x")
                return V.replicate(n.to_int(),
                                   V.concat([c(rt, fr) for c in _p]))
            return run, count_const and all(c for _, c in parts)
        if isinstance(expr, ast.Index):
            return self._index(expr, scope)
        if isinstance(expr, ast.PartSelect):
            return self._part_select(expr, scope)
        if isinstance(expr, ast.FunctionCall):
            return self._call(expr, scope)
        return _raiser(SimulationError,
                       f"cannot evaluate expression "
                       f"{type(expr).__name__}"), False

    def _identifier(self, name: str, scope: _Scope):
        if scope.locals is not None and name in scope.locals:
            idx = scope.locals[name]

            def run(rt, fr, _i=idx):
                return fr[_i]
            return run, False
        resolved = scope.resolve(name)
        if resolved is not None:
            slot, signal = resolved
            if signal.is_array:
                return _raiser(SimulationError,
                               f"memory '{name}' used without "
                               f"an index"), False

            def run(rt, fr, _s=slot):
                return rt.store[_s]
            return run, False
        params = scope.params()
        if name in params:
            return _const_closure(params[name]), True
        return _raiser(SimulationError,
                       f"identifier '{name}' is not declared"), False

    def _unary(self, expr: ast.Unary, scope: _Scope):
        operand, const = self._expr(expr.operand, scope)
        op = expr.op
        if op == "+":
            return operand, const
        if op == "-":
            def run(rt, fr, _o=operand):
                value = _o(rt, fr)
                return V.sub(V.Value.of(0, value.width), value)
            return run, const
        if op == "~":
            def run(rt, fr, _o=operand):
                return V.bit_not(_o(rt, fr))
            return run, const
        if op == "!":
            def run(rt, fr, _o=operand):
                return V.logic_not(_o(rt, fr))
            return run, const

        def run(rt, fr, _o=operand, _op=op):
            return V.reduce_op(_op, _o(rt, fr))
        return run, const

    def _binary(self, expr: ast.Binary, scope: _Scope):
        op = expr.op
        left, lconst = self._expr(expr.left, scope)
        right, rconst = self._expr(expr.right, scope)
        const = lconst and rconst
        handler = Simulator._BINOPS.get(op)
        if handler is not None:
            def run(rt, fr, _l=left, _r=right, _h=handler):
                return _h(_l(rt, fr), _r(rt, fr))
            return run, const
        if op in ("<<", "<<<"):
            def run(rt, fr, _l=left, _r=right):
                return V.shift_left(_l(rt, fr), _r(rt, fr))
            return run, const
        if op == ">>":
            def run(rt, fr, _l=left, _r=right):
                return V.shift_right(_l(rt, fr), _r(rt, fr))
            return run, const
        if op == ">>>":
            signed = self._is_signed(expr.left, scope)

            def run(rt, fr, _l=left, _r=right, _s=signed):
                return V.shift_right(_l(rt, fr), _r(rt, fr),
                                     arithmetic=True, signed=_s)
            return run, const
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            signed = (self._is_signed(expr.left, scope)
                      and self._is_signed(expr.right, scope))

            def run(rt, fr, _l=left, _r=right, _op=op, _s=signed):
                return V.compare(_op, _l(rt, fr), _r(rt, fr), signed=_s)
            return run, const
        return _raiser(SimulationError,
                       f"unsupported binary operator '{op}'"), False

    def _ternary(self, expr: ast.Ternary, scope: _Scope):
        cond, cconst = self._expr(expr.cond, scope)
        if_true, tconst = self._expr(expr.if_true, scope)
        if_false, fconst = self._expr(expr.if_false, scope)

        def run(rt, fr, _c=cond, _t=if_true, _f=if_false):
            c = _c(rt, fr)
            if c.is_true:
                return _t(rt, fr)
            if c.has_unknown:
                a = _t(rt, fr)
                b = _f(rt, fr)
                width = max(a.width, b.width)
                a, b = a.resized(width), b.resized(width)
                same = ~(a.val ^ b.val) & ~(a.xz | b.xz)
                return V.Value(width=width, val=a.val & same,
                               xz=((1 << width) - 1) & ~same)
            return _f(rt, fr)
        return run, cconst and tconst and fconst

    def _index(self, expr: ast.Index, scope: _Scope):
        index, iconst = self._expr(expr.index, scope)
        # Like the interpreter, the base resolves against module signals
        # even where a function local shadows the name.
        if isinstance(expr.base, ast.Identifier):
            resolved = scope.resolve(expr.base.name)
            if resolved is not None:
                slot, signal = resolved
                if signal.is_array:
                    width = signal.width

                    def run(rt, fr, _s=slot, _i=index, _w=width):
                        i = _i(rt, fr)
                        if i.has_unknown:
                            return V.Value.unknown(_w)
                        return rt.arrays[_s].get(i.to_int(),
                                                 V.Value.unknown(_w))
                    return run, False
                descending = signal.msb >= signal.lsb
                base_bit = signal.lsb

                def run(rt, fr, _s=slot, _i=index, _d=descending,
                        _b=base_bit):
                    i = _i(rt, fr)
                    if i.has_unknown:
                        return V.Value.unknown(1)
                    offset = (i.to_int() - _b) if _d else (_b - i.to_int())
                    return rt.store[_s].select_bit(offset)
                return run, False
        base, bconst = self._expr(expr.base, scope)

        def run(rt, fr, _b=base, _i=index):
            return _b(rt, fr).select_bit(_i(rt, fr))
        return run, bconst and iconst

    def _part_select(self, expr: ast.PartSelect, scope: _Scope):
        base_info = None           # (slot, signal) for plain signals
        if isinstance(expr.base, ast.Identifier):
            resolved = scope.resolve(expr.base.name)
            if resolved is not None and not resolved[1].is_array:
                base_info = resolved
        msb, mconst = self._expr(expr.msb, scope)
        lsb, lconst = self._expr(expr.lsb, scope)
        if expr.mode == ":":
            if base_info is not None:
                slot, signal = base_info
                descending = signal.msb >= signal.lsb
                base_bit = signal.lsb

                def run(rt, fr, _s=slot, _m=msb, _l=lsb, _d=descending,
                        _b=base_bit):
                    hi = _m(rt, fr).to_int()
                    lo = _l(rt, fr).to_int()
                    off_hi = (hi - _b) if _d else (_b - hi)
                    off_lo = (lo - _b) if _d else (_b - lo)
                    return rt.store[_s].select_range(off_hi, off_lo)
                return run, False
            base, bconst = self._expr(expr.base, scope)

            def run(rt, fr, _base=base, _m=msb, _l=lsb):
                hi = _m(rt, fr).to_int()
                lo = _l(rt, fr).to_int()
                return _base(rt, fr).select_range(hi, lo)
            return run, bconst and mconst and lconst
        # Indexed part select: base[i +: w] / base[i -: w]
        plus = expr.mode == "+:"
        if base_info is not None:
            slot, signal = base_info
            descending = signal.msb >= signal.lsb
            base_bit = signal.lsb

            def run(rt, fr, _s=slot, _m=msb, _l=lsb, _p=plus,
                    _d=descending, _b=base_bit):
                start = _m(rt, fr)
                width = _l(rt, fr).to_int()
                if start.has_unknown:
                    return V.Value.unknown(width)
                start_idx = start.to_int()
                if _p:
                    lo, hi = start_idx, start_idx + width - 1
                else:
                    lo, hi = start_idx - width + 1, start_idx
                off_hi = (hi - _b) if _d else (_b - hi)
                off_lo = (lo - _b) if _d else (_b - lo)
                return rt.store[_s].select_range(off_hi, off_lo)
            return run, False
        base, bconst = self._expr(expr.base, scope)

        def run(rt, fr, _base=base, _m=msb, _l=lsb, _p=plus):
            start = _m(rt, fr)
            width = _l(rt, fr).to_int()
            if start.has_unknown:
                return V.Value.unknown(width)
            start_idx = start.to_int()
            if _p:
                lo, hi = start_idx, start_idx + width - 1
            else:
                lo, hi = start_idx - width + 1, start_idx
            return _base(rt, fr).select_range(hi, lo)
        return run, bconst and mconst and lconst

    # -- signedness (static twin of Simulator._is_signed) ----------------

    def _is_signed(self, expr: ast.Expr, scope: _Scope) -> bool:
        if isinstance(expr, ast.Number):
            return "'" not in expr.text or expr.signed
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if resolved is not None:
                signal = resolved[1]
                return signal.signed or signal.kind == "integer"
            return True   # parameters: treat as signed integers
        if isinstance(expr, ast.Unary) and expr.op in ("+", "-"):
            return self._is_signed(expr.operand, scope)
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*",
                                                        "/", "%"):
            return (self._is_signed(expr.left, scope)
                    and self._is_signed(expr.right, scope))
        if isinstance(expr, ast.FunctionCall) and expr.name == "$signed":
            return True
        return False

    # -- function calls --------------------------------------------------

    def _call(self, expr: ast.FunctionCall, scope: _Scope):
        if expr.is_system:
            return self._system_call(expr, scope)
        fn = self.design.functions.get(scope.prefix, {}).get(expr.name)
        if fn is None:
            return _raiser(SimulationError,
                           f"unknown function '{expr.name}'"), False
        plan = self._function_plan(fn, scope)
        ret_width, arg_widths, decl_inits, body_cell, frame_size = plan
        arg_closures = [self.compile_expr(a, scope) for a in expr.args]

        def run(rt, fr, _rw=ret_width, _aw=arg_widths, _di=decl_inits,
                _body=body_cell, _n=frame_size, _args=arg_closures):
            frame = [None] * _n
            frame[0] = V.Value.unknown(_rw)
            for pos, width in enumerate(_aw):
                if pos < len(_args):
                    frame[pos + 1] = _args[pos](rt, fr).resized(width)
                else:
                    frame[pos + 1] = V.Value.unknown(width)
            for idx, width in _di:
                frame[idx] = V.Value.unknown(width)
            _body[0](rt, frame)
            return frame[0]
        return run, False

    def _function_plan(self, fn: ast.FunctionDecl, scope: _Scope):
        key = (scope.prefix, fn.name)
        cached = self._functions.get(key)
        if cached is not None:
            return cached
        params = scope.params()
        ret_width = 1
        if fn.range is not None:
            msb = const_eval(fn.range.msb, params).to_int()
            lsb = const_eval(fn.range.lsb, params).to_int()
            ret_width = abs(msb - lsb) + 1
        locals_map: dict[str, int] = {fn.name: 0}
        local_widths: dict[str, int] = {fn.name: ret_width}
        arg_widths: list[int] = []
        decl_inits: list[tuple[int, int]] = []
        for item in fn.items:
            if isinstance(item, ast.PortDecl) and item.direction == "input":
                for name in item.names:
                    width = 1
                    if item.range is not None:
                        msb = const_eval(item.range.msb, params).to_int()
                        lsb = const_eval(item.range.lsb, params).to_int()
                        width = abs(msb - lsb) + 1
                    locals_map[name] = len(locals_map)
                    local_widths[name] = width
                    arg_widths.append(width)
            elif isinstance(item, ast.Decl):
                for decl in item.declarators:
                    width = 32 if item.kind == "integer" else 1
                    if item.range is not None:
                        msb = const_eval(item.range.msb, params).to_int()
                        lsb = const_eval(item.range.lsb, params).to_int()
                        width = abs(msb - lsb) + 1
                    locals_map[decl.name] = len(locals_map)
                    local_widths[decl.name] = width
                    decl_inits.append((locals_map[decl.name], width))
        body_cell: list = [None]
        plan = (ret_width, arg_widths, decl_inits, body_cell,
                len(locals_map))
        # Register before compiling the body so recursive calls resolve.
        self._functions[key] = plan
        fn_scope = scope.fn_scope(locals_map, local_widths)
        if fn.body is not None and _needs_coroutine(fn.body):
            raise CompileUnsupported(
                "delay or event control inside a function")
        body = self.compile_sync(fn.body, fn_scope) if fn.body is not None \
            else None
        body_cell[0] = body if body is not None else (lambda rt, fr: None)
        self.stats["functions"] += 1
        return plan

    def _system_call(self, expr: ast.FunctionCall, scope: _Scope):
        name = expr.name
        if name == "$time":
            def run(rt, fr):
                return V.Value.of(rt.time, 64)
            return run, False
        if name == "$random":
            def run(rt, fr):
                rt._rand_state = (rt._rand_state * 1103515245 + 12345) \
                    & 0xFFFFFFFF
                return V.Value.of(rt._rand_state, 32)
            return run, False
        if name in ("$signed", "$unsigned"):
            return self._expr(expr.args[0], scope)
        if name == "$clog2":
            arg, const = self._expr(expr.args[0], scope)

            def run(rt, fr, _a=arg):
                value = _a(rt, fr)
                if value.has_unknown:
                    return V.Value.unknown(32)
                return V.Value.of(max(value.to_int() - 1, 0).bit_length(),
                                  32)
            return run, const
        return _raiser(SimulationError,
                       f"unsupported system function '{name}'"), False

    # -- lvalues ---------------------------------------------------------

    def compile_writer(self, lhs: ast.Expr, scope: _Scope):
        """Compile an assignment target to ``writer(rt, fr, value)``."""
        if isinstance(lhs, ast.Concat):
            return self._concat_writer(lhs, scope)
        if isinstance(lhs, ast.Identifier):
            if scope.locals is not None and lhs.name in scope.locals:
                idx = scope.locals[lhs.name]
                width = scope.local_widths[lhs.name]

                def write(rt, fr, value, _i=idx, _w=width):
                    fr[_i] = value.resized(_w)
                return write
            resolved = scope.resolve(lhs.name)
            if resolved is None:
                return _raiser(SimulationError,
                               f"identifier '{lhs.name}' is not declared")
            slot, signal = resolved
            width = signal.width

            def write(rt, fr, value, _s=slot, _w=width):
                rt.set_slot(_s, value.resized(_w))
            return write
        if isinstance(lhs, ast.HierarchicalId):
            name = ".".join(lhs.parts)
            signal = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                return _raiser(SimulationError,
                               f"unknown hierarchical name '{name}'")
            slot = self.slots[signal.name]
            width = signal.width

            def write(rt, fr, value, _s=slot, _w=width):
                rt.set_slot(_s, value.resized(_w))
            return write
        if isinstance(lhs, ast.Index):
            return self._index_writer(lhs, scope)
        if isinstance(lhs, ast.PartSelect):
            return self._select_writer(lhs, scope)
        return _raiser(SimulationError,
                       f"invalid assignment target {type(lhs).__name__}")

    def _index_writer(self, lhs: ast.Index, scope: _Scope):
        if not isinstance(lhs.base, ast.Identifier):
            return _raiser(SimulationError,
                           "unsupported nested lvalue index")
        resolved = scope.resolve(lhs.base.name)
        if resolved is None:
            return _raiser(SimulationError,
                           f"identifier '{lhs.base.name}' is not declared")
        slot, signal = resolved
        index = self.compile_expr(lhs.index, scope)
        if signal.is_array:
            width = signal.width

            def write(rt, fr, value, _s=slot, _i=index, _w=width):
                i = _i(rt, fr)
                if i.has_unknown:
                    return        # write to x index is lost
                rt.set_element(_s, i.to_int(), value.resized(_w))
            return write
        descending = signal.msb >= signal.lsb
        base_bit = signal.lsb
        width = signal.width

        def write(rt, fr, value, _s=slot, _i=index, _d=descending,
                  _b=base_bit, _w=width):
            i = _i(rt, fr)
            if i.has_unknown:
                return            # write to x index is lost
            offset = (i.to_int() - _b) if _d else (_b - i.to_int())
            if 0 <= offset < _w:
                rt.set_slot(_s,
                            rt.store[_s].with_bits(offset, offset, value))
        return write

    def _select_writer(self, lhs: ast.PartSelect, scope: _Scope):
        if not isinstance(lhs.base, ast.Identifier):
            return _raiser(SimulationError,
                           "unsupported nested lvalue select")
        resolved = scope.resolve(lhs.base.name)
        if resolved is None:
            return _raiser(SimulationError,
                           f"identifier '{lhs.base.name}' is not declared")
        slot, signal = resolved
        descending = signal.msb >= signal.lsb
        base_bit = signal.lsb
        msb = self.compile_expr(lhs.msb, scope)
        lsb = self.compile_expr(lhs.lsb, scope)
        ranged = lhs.mode == ":"
        plus = lhs.mode == "+:"

        def write(rt, fr, value, _s=slot, _m=msb, _l=lsb, _r=ranged,
                  _p=plus, _d=descending, _b=base_bit):
            if _r:
                hi = _m(rt, fr).to_int()
                lo = _l(rt, fr).to_int()
            else:
                start = _m(rt, fr).to_int()
                width = _l(rt, fr).to_int()
                if _p:
                    lo, hi = start, start + width - 1
                else:
                    hi, lo = start, start - width + 1
            off_hi = (hi - _b) if _d else (_b - hi)
            off_lo = (lo - _b) if _d else (_b - lo)
            rt.set_slot(_s, rt.store[_s].with_bits(
                max(off_hi, off_lo), min(off_hi, off_lo), value))
        return write

    def _concat_writer(self, lhs: ast.Concat, scope: _Scope):
        parts = [(self._lvalue_width(p, scope),
                  self.compile_writer(p, scope)) for p in lhs.parts]
        if all(w is not None for w, _ in parts):
            total = sum(w for w, _ in parts)

            def write(rt, fr, value, _parts=parts, _t=total):
                value = value.resized(_t)
                offset = _t
                for width, writer in _parts:
                    offset -= width
                    writer(rt, fr,
                           value.select_range(offset + width - 1, offset))
            return write
        raise CompileUnsupported(
            "concatenation lvalue with non-static part widths")

    def _lvalue_width(self, expr: ast.Expr, scope: _Scope) -> int | None:
        """Static width of an assignment target part, or None."""
        if isinstance(expr, ast.Identifier):
            if scope.locals is not None and expr.name in scope.locals:
                return scope.local_widths[expr.name]
            resolved = scope.resolve(expr.name)
            return resolved[1].width if resolved is not None else None
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Identifier):
                resolved = scope.resolve(expr.base.name)
                if resolved is not None and resolved[1].is_array:
                    return resolved[1].width
            return 1
        if isinstance(expr, ast.PartSelect):
            params = scope.params()
            try:
                if expr.mode == ":":
                    msb = const_eval(expr.msb, params).to_int()
                    lsb = const_eval(expr.lsb, params).to_int()
                    return abs(msb - lsb) + 1
                return const_eval(expr.lsb, params).to_int()
            except (ElaborationError, VerilogError):
                return None
        if isinstance(expr, ast.Concat):
            widths = [self._lvalue_width(p, scope) for p in expr.parts]
            if any(w is None for w in widths):
                return None
            return sum(widths)
        return None

    # -- statements: sync (no suspension anywhere in the subtree) --------

    def compile_sync(self, stmt: ast.Stmt | None, scope: _Scope):
        """Compile a delay-free statement to ``fn(rt, fr)`` (or None)."""
        if stmt is None or isinstance(stmt, (ast.NullStmt, ast.Decl,
                                             ast.DisableStmt)):
            return None
        if isinstance(stmt, ast.Block):
            closures = tuple(c for c in
                             (self.compile_sync(child, scope)
                              for child in stmt.stmts
                              if not isinstance(child, ast.Decl))
                             if c is not None)
            if not closures:
                return None
            if len(closures) == 1:
                return closures[0]

            def run(rt, fr, _c=closures):
                for closure in _c:
                    closure(rt, fr)
            return run
        if isinstance(stmt, ast.BlockingAssign):
            rhs = self.compile_expr(stmt.rhs, scope)
            writer = self.compile_writer(stmt.lhs, scope)
            if stmt.delay is None:
                def run(rt, fr, _r=rhs, _w=writer):
                    _w(rt, fr, _r(rt, fr))
                return run
            # Only reachable inside functions (processes route delayed
            # blocking assigns through the coroutine path): a nonzero
            # delay is the interpreter's "delay inside a function" error.
            delay = self.compile_expr(stmt.delay, scope)

            def run(rt, fr, _r=rhs, _w=writer, _d=delay):
                value = _r(rt, fr)
                if _d(rt, fr).to_int():
                    raise SimulationError(
                        "delay or event control inside a function")
                _w(rt, fr, value)
            return run
        if isinstance(stmt, ast.NonBlockingAssign):
            rhs = self.compile_expr(stmt.rhs, scope)
            writer = self.compile_writer(stmt.lhs, scope)
            if stmt.delay is not None:
                delay = self.compile_expr(stmt.delay, scope)

                def run(rt, fr, _r=rhs, _w=writer, _d=delay):
                    value = _r(rt, fr)
                    rt.schedule_nba(_d(rt, fr).to_int(), _w, value, fr)
                return run

            def run(rt, fr, _r=rhs, _w=writer):
                rt._nba.append((_w, _r(rt, fr), fr))
            return run
        if isinstance(stmt, ast.IfStmt):
            cond = self.compile_expr(stmt.cond, scope)
            then = self.compile_sync(stmt.then_stmt, scope)
            has_else = stmt.else_stmt is not None
            other = self.compile_sync(stmt.else_stmt, scope)

            def run(rt, fr, _c=cond, _t=then, _e=other, _h=has_else):
                if _c(rt, fr).is_true:
                    if _t is not None:
                        _t(rt, fr)
                elif _h and _e is not None:
                    _e(rt, fr)
            return run
        if isinstance(stmt, ast.CaseStmt):
            selector, plans, default = self._case_plan(
                stmt, scope, self.compile_sync)

            def run(rt, fr, _s=selector, _p=plans, _d=default,
                    _k=stmt.kind):
                sel = _s(rt, fr)
                for labels, branch in _p:
                    for label in labels:
                        if _case_match(_k, sel, label(rt, fr)):
                            if branch is not None:
                                branch(rt, fr)
                            return
                if _d is not None:
                    _d(rt, fr)
            return run
        if isinstance(stmt, ast.ForStmt):
            init = self.compile_sync(stmt.init, scope)
            cond = self.compile_expr(stmt.cond, scope)
            step = self.compile_sync(stmt.step, scope)
            body = self.compile_sync(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def run(rt, fr, _i=init, _c=cond, _s=step, _b=body, _k=cost):
                if _i is not None:
                    _i(rt, fr)
                while _c(rt, fr).is_true:
                    rt.charge(_k)
                    if _b is not None:
                        _b(rt, fr)
                    if _s is not None:
                        _s(rt, fr)
            return run
        if isinstance(stmt, ast.WhileStmt):
            cond = self.compile_expr(stmt.cond, scope)
            body = self.compile_sync(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def run(rt, fr, _c=cond, _b=body, _k=cost):
                while _c(rt, fr).is_true:
                    rt.charge(_k)
                    if _b is not None:
                        _b(rt, fr)
            return run
        if isinstance(stmt, ast.RepeatStmt):
            count = self.compile_expr(stmt.count, scope)
            body = self.compile_sync(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def run(rt, fr, _n=count, _b=body, _k=cost):
                for _ in range(max(_n(rt, fr).to_int(), 0)):
                    rt.charge(_k)
                    if _b is not None:
                        _b(rt, fr)
            return run
        if isinstance(stmt, ast.ForeverStmt):
            body = self.compile_sync(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def run(rt, fr, _b=body, _k=cost):
                while True:
                    rt.charge(_k)
                    if _b is not None:
                        _b(rt, fr)
            return run
        if isinstance(stmt, ast.SysTaskCall):
            return self._systask(stmt, scope)
        if isinstance(stmt, ast.TaskCall):
            return _raiser(SimulationError,
                           f"user task '{stmt.name}' is not supported")
        if isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                             ast.WaitStmt)):
            # Reachable only inside function bodies (processes take the
            # coroutine path) — mirrors the interpreter's runtime error.
            return _raiser(SimulationError,
                           "delay or event control inside a function")
        return _raiser(SimulationError,
                       f"cannot execute statement {type(stmt).__name__}")

    def _case_plan(self, stmt: ast.CaseStmt, scope: _Scope, compile_fn):
        selector = self.compile_expr(stmt.expr, scope)
        plans = []
        default = None
        for item in stmt.items:
            branch = compile_fn(item.stmt, scope)
            if not item.exprs:
                default = branch       # later defaults win, like the
                continue               # interpreter's scan
            labels = tuple(self.compile_expr(e, scope)
                           for e in item.exprs)
            plans.append((labels, branch))
        return selector, tuple(plans), default

    # -- $display and friends --------------------------------------------

    _DISPLAY = ("$display", "$write", "$strobe", "$monitor", "$error",
                "$warning", "$info")

    def _systask(self, stmt: ast.SysTaskCall, scope: _Scope):
        name = stmt.name
        if name in self._DISPLAY:
            render = self._display_plan(stmt.args, scope)
            prefix = "ERROR: " if name == "$error" else ""

            def run(rt, fr, _r=render, _p=prefix):
                rt.display_lines.append(_p + _r(rt, fr))
            return run
        if name in ("$finish", "$stop", "$fatal"):
            def run(rt, fr):
                rt.finished = True
                raise _Finish()
            return run
        if name == "$dumpfile":
            filename = "dump.vcd"
            if stmt.args and isinstance(stmt.args[0], ast.StringLiteral):
                filename = stmt.args[0].value

            def run(rt, fr, _f=filename):
                rt.enable_tracing(_f)
                rt.tracer.enabled = False   # armed by $dumpvars
            return run
        if name == "$dumpvars":
            def run(rt, fr):
                tracer = rt.enable_tracing(
                    rt.tracer.filename if rt.tracer else "dump.vcd")
                tracer.enabled = True
                rt.snapshot_tracer()
            return run
        if name == "$dumpon":
            def run(rt, fr):
                if rt.tracer is not None:
                    rt.tracer.enabled = True
            return run
        if name == "$dumpoff":
            def run(rt, fr):
                if rt.tracer is not None:
                    rt.tracer.enabled = False
            return run
        if name in ("$timeformat", "$readmemh", "$readmemb"):
            return None   # accepted and ignored
        return _raiser(SimulationError,
                       f"unsupported system task '{name}'")

    def _display_plan(self, args: list[ast.Expr], scope: _Scope):
        """Compile $display arguments to ``fn(rt, fr) -> str``."""
        if not args:
            return lambda rt, fr: ""
        first = args[0]
        if not isinstance(first, ast.StringLiteral):
            pieces = []
            for arg in args:
                if isinstance(arg, ast.StringLiteral):
                    pieces.append(arg.value)
                else:
                    closure = self.compile_expr(arg, scope)
                    pieces.append(closure)

            def run(rt, fr, _p=pieces):
                return " ".join(
                    piece if isinstance(piece, str)
                    else V.format_value(piece(rt, fr), "d")
                    for piece in _p)
            return run
        # Leading format string: precompile the render plan.  Each plan
        # entry is either literal text or a (spec, closure|None) pair.
        rest = args[1:]
        arg_iter = iter(rest)
        mod_text = scope_name(scope.prefix, self.design.top)
        plan: list = []
        for segment in parse_template(first.value):
            kind = segment[0]
            if kind == "lit":
                plan.append(segment[1])
            elif kind == "pct":
                plan.append("%")
            elif kind == "mod":
                plan.append(mod_text)
            else:
                spec = segment[1]
                try:
                    arg = next(arg_iter)
                except StopIteration:
                    plan.append("%" + spec)
                    continue
                if spec == "s" and isinstance(arg, ast.StringLiteral):
                    plan.append(arg.value)
                    continue
                plan.append((spec, self.compile_expr(arg, scope)))
        plan_t = tuple(plan)

        def run(rt, fr, _p=plan_t):
            return "".join(
                piece if isinstance(piece, str)
                else render_spec(piece[0], piece[1](rt, fr))
                for piece in _p)
        return run

    # -- statements: coroutines (suspension somewhere in the subtree) ----

    def compile_coro(self, stmt: ast.Stmt, scope: _Scope):
        """Compile to a generator function ``g(rt)`` yielding scheduler
        requests ``("delay", ticks)`` / ``("wait", entries)``."""
        if isinstance(stmt, ast.Block):
            steps = []
            for child in stmt.stmts:
                if isinstance(child, ast.Decl):
                    continue
                if _needs_coroutine(child):
                    steps.append((True, self.compile_coro(child, scope)))
                else:
                    closure = self.compile_sync(child, scope)
                    if closure is not None:
                        steps.append((False, closure))
            steps_t = tuple(steps)

            def gen(rt, _s=steps_t):
                for is_coro, closure in _s:
                    if is_coro:
                        yield from closure(rt)
                    else:
                        closure(rt, None)
            return gen
        if isinstance(stmt, ast.DelayStmt):
            delay = self.compile_expr(stmt.delay, scope)
            inner_coro = stmt.stmt is not None and \
                _needs_coroutine(stmt.stmt)
            inner = (self.compile_coro(stmt.stmt, scope) if inner_coro
                     else self.compile_sync(stmt.stmt, scope))

            def gen(rt, _d=delay, _i=inner, _c=inner_coro):
                yield ("delay", _d(rt, None).to_int())
                if _i is not None:
                    if _c:
                        yield from _i(rt)
                    else:
                        _i(rt, None)
            return gen
        if isinstance(stmt, ast.EventControlStmt):
            entries = self._sens_entries(stmt.senslist, scope)
            inner_coro = stmt.stmt is not None and \
                _needs_coroutine(stmt.stmt)
            inner = (self.compile_coro(stmt.stmt, scope) if inner_coro
                     else self.compile_sync(stmt.stmt, scope))

            def gen(rt, _e=entries, _i=inner, _c=inner_coro):
                yield ("wait", _e)
                if _i is not None:
                    if _c:
                        yield from _i(rt)
                    else:
                        _i(rt, None)
            return gen
        if isinstance(stmt, ast.WaitStmt):
            cond = self.compile_expr(stmt.cond, scope)
            entries = tuple((slot, None) for slot in
                            self._expr_dep_slots(stmt.cond, scope))
            spec = _WatchSpec(entries, self.names, self.signals)
            inner_coro = stmt.stmt is not None and \
                _needs_coroutine(stmt.stmt)
            inner = (self.compile_coro(stmt.stmt, scope) if inner_coro
                     else self.compile_sync(stmt.stmt, scope))

            def gen(rt, _cond=cond, _e=spec, _i=inner, _c=inner_coro):
                while not _cond(rt, None).is_true:
                    if not _e.slots:
                        raise SimulationError(
                            "wait() on constant expression")
                    yield ("wait", _e)
                if _i is not None:
                    if _c:
                        yield from _i(rt)
                    else:
                        _i(rt, None)
            return gen
        if isinstance(stmt, ast.BlockingAssign):    # with delay
            rhs = self.compile_expr(stmt.rhs, scope)
            writer = self.compile_writer(stmt.lhs, scope)
            delay = self.compile_expr(stmt.delay, scope)

            def gen(rt, _r=rhs, _w=writer, _d=delay):
                value = _r(rt, None)
                ticks = _d(rt, None).to_int()
                if ticks:
                    yield ("delay", ticks)
                _w(rt, None, value)
            return gen
        if isinstance(stmt, ast.IfStmt):
            cond = self.compile_expr(stmt.cond, scope)
            then = self._branch(stmt.then_stmt, scope)
            has_else = stmt.else_stmt is not None
            other = self._branch(stmt.else_stmt, scope)

            def gen(rt, _c=cond, _t=then, _e=other, _h=has_else):
                if _c(rt, None).is_true:
                    yield from _run_branch(rt, _t)
                elif _h:
                    yield from _run_branch(rt, _e)
            return gen
        if isinstance(stmt, ast.CaseStmt):
            selector, plans, default = self._case_plan(
                stmt, scope, lambda s, sc: self._branch(s, sc))

            def gen(rt, _s=selector, _p=plans, _d=default, _k=stmt.kind):
                sel = _s(rt, None)
                for labels, branch in _p:
                    for label in labels:
                        if _case_match(_k, sel, label(rt, None)):
                            yield from _run_branch(rt, branch)
                            return
                if _d is not None:
                    yield from _run_branch(rt, _d)
            return gen
        if isinstance(stmt, ast.ForStmt):
            init = self.compile_sync(stmt.init, scope)
            cond = self.compile_expr(stmt.cond, scope)
            step = self.compile_sync(stmt.step, scope)
            body = self.compile_coro(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def gen(rt, _i=init, _c=cond, _s=step, _b=body, _k=cost):
                if _i is not None:
                    _i(rt, None)
                while _c(rt, None).is_true:
                    rt.charge(_k)
                    yield from _b(rt)
                    if _s is not None:
                        _s(rt, None)
            return gen
        if isinstance(stmt, ast.WhileStmt):
            cond = self.compile_expr(stmt.cond, scope)
            body = self.compile_coro(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def gen(rt, _c=cond, _b=body, _k=cost):
                while _c(rt, None).is_true:
                    rt.charge(_k)
                    yield from _b(rt)
            return gen
        if isinstance(stmt, ast.RepeatStmt):
            count = self.compile_expr(stmt.count, scope)
            body = self.compile_coro(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def gen(rt, _n=count, _b=body, _k=cost):
                for _ in range(max(_n(rt, None).to_int(), 0)):
                    rt.charge(_k)
                    yield from _b(rt)
            return gen
        if isinstance(stmt, ast.ForeverStmt):
            body = self.compile_coro(stmt.body, scope)
            cost = self._loop_cost(stmt, scope)

            def gen(rt, _b=body, _k=cost):
                while True:
                    rt.charge(_k)
                    yield from _b(rt)
            return gen
        # A statement that cannot actually suspend reached the coroutine
        # path (defensive): run its sync form.
        closure = self.compile_sync(stmt, scope)

        def gen(rt, _c=closure):
            if _c is not None:
                _c(rt, None)
            return
            yield   # pragma: no cover — marks this as a generator
        return gen

    def _branch(self, stmt: ast.Stmt | None, scope: _Scope):
        """Compile an if/case arm to (is_coro, closure|None)."""
        if stmt is None:
            return (False, None)
        if _needs_coroutine(stmt):
            return (True, self.compile_coro(stmt, scope))
        return (False, self.compile_sync(stmt, scope))

    # -- step-budget cost model -------------------------------------------

    # The interpreter charges one step per eval() node and per _exec()
    # statement; the compiled runtime walks no trees, so loops and
    # activations charge these statically computed costs instead.  The
    # costs are designed to be >= the interpreter's charge for one pass
    # (branch costs take the max arm, label lists the full sum), so a
    # design near the budget times out on the compiled backend no later
    # than on the interpreter — and a compiled-side timeout falls back
    # to the interpreter for the authoritative verdict.

    _RECURSIVE_FN_COST = 25

    def _fn_cost(self, name: str, scope: _Scope) -> int:
        key = (scope.prefix, name)
        cached = self._fn_costs.get(key)
        if cached is not None:
            return cached if cached > 0 else self._RECURSIVE_FN_COST
        fn = self.design.functions.get(scope.prefix, {}).get(name)
        if fn is None or fn.body is None:
            return 1
        self._fn_costs[key] = -1          # in-progress marker
        cost = 1 + self._stmt_cost(fn.body, scope)
        self._fn_costs[key] = cost
        return cost

    def _expr_cost(self, expr: ast.Expr | None, scope: _Scope) -> int:
        if expr is None:
            return 0
        cost = 1
        if isinstance(expr, ast.Unary):
            cost += self._expr_cost(expr.operand, scope)
        elif isinstance(expr, ast.Binary):
            cost += self._expr_cost(expr.left, scope) + \
                self._expr_cost(expr.right, scope)
        elif isinstance(expr, ast.Ternary):
            cost += self._expr_cost(expr.cond, scope) + \
                max(self._expr_cost(expr.if_true, scope),
                    self._expr_cost(expr.if_false, scope))
        elif isinstance(expr, (ast.Concat,)):
            cost += sum(self._expr_cost(p, scope) for p in expr.parts)
        elif isinstance(expr, ast.Repl):
            cost += self._expr_cost(expr.count, scope) + \
                sum(self._expr_cost(p, scope) for p in expr.parts)
        elif isinstance(expr, ast.Index):
            cost += self._expr_cost(expr.base, scope) + \
                self._expr_cost(expr.index, scope)
        elif isinstance(expr, ast.PartSelect):
            cost += self._expr_cost(expr.base, scope) + \
                self._expr_cost(expr.msb, scope) + \
                self._expr_cost(expr.lsb, scope)
        elif isinstance(expr, ast.FunctionCall):
            cost += sum(self._expr_cost(a, scope) for a in expr.args)
            if not expr.is_system:
                cost += self._fn_cost(expr.name, scope)
        return cost

    def _stmt_cost(self, stmt: ast.Stmt | None, scope: _Scope) -> int:
        """Steps the interpreter charges for one straight-line pass.

        Nested loops contribute only their entry cost — their bodies
        self-charge per iteration at runtime.
        """
        if stmt is None or not isinstance(stmt, ast.Stmt):
            return 1
        cost = 1
        if isinstance(stmt, ast.Block):
            cost += sum(self._stmt_cost(c, scope) for c in stmt.stmts
                        if isinstance(c, ast.Stmt))
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            cost += self._expr_cost(stmt.rhs, scope) + \
                self._expr_cost(stmt.delay, scope)
            lhs = stmt.lhs
            if isinstance(lhs, ast.Index):
                cost += self._expr_cost(lhs.index, scope)
            elif isinstance(lhs, ast.PartSelect):
                cost += self._expr_cost(lhs.msb, scope) + \
                    self._expr_cost(lhs.lsb, scope)
        elif isinstance(stmt, ast.IfStmt):
            cost += self._expr_cost(stmt.cond, scope) + \
                max(self._stmt_cost(stmt.then_stmt, scope),
                    self._stmt_cost(stmt.else_stmt, scope))
        elif isinstance(stmt, ast.CaseStmt):
            cost += self._expr_cost(stmt.expr, scope)
            cost += sum(self._expr_cost(e, scope)
                        for item in stmt.items for e in item.exprs)
            if stmt.items:
                cost += max(self._stmt_cost(item.stmt, scope)
                            for item in stmt.items)
        elif isinstance(stmt, ast.ForStmt):
            cost += self._stmt_cost(stmt.init, scope) + \
                self._expr_cost(stmt.cond, scope)
        elif isinstance(stmt, ast.WhileStmt):
            cost += self._expr_cost(stmt.cond, scope)
        elif isinstance(stmt, ast.RepeatStmt):
            cost += self._expr_cost(stmt.count, scope)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt)):
            cost += self._stmt_cost(stmt.stmt, scope) if stmt.stmt \
                else 0
            if isinstance(stmt, ast.DelayStmt):
                cost += self._expr_cost(stmt.delay, scope)
        elif isinstance(stmt, ast.WaitStmt):
            cost += self._expr_cost(stmt.cond, scope) + \
                (self._stmt_cost(stmt.stmt, scope) if stmt.stmt else 0)
        elif isinstance(stmt, ast.SysTaskCall):
            cost += sum(self._expr_cost(a, scope) for a in stmt.args
                        if not isinstance(a, ast.StringLiteral))
        return cost

    def _loop_cost(self, stmt, scope: _Scope) -> int:
        """Per-iteration charge for a loop statement."""
        if isinstance(stmt, ast.ForStmt):
            return (self._expr_cost(stmt.cond, scope)
                    + self._stmt_cost(stmt.body, scope)
                    + self._stmt_cost(stmt.step, scope))
        if isinstance(stmt, ast.WhileStmt):
            return (self._expr_cost(stmt.cond, scope)
                    + self._stmt_cost(stmt.body, scope))
        if isinstance(stmt, ast.RepeatStmt):
            return self._stmt_cost(stmt.body, scope)
        # forever: the interpreter adds a flat 50 on top of the body.
        return self._stmt_cost(stmt.body, scope) + 50

    # -- sensitivity / dependency analysis --------------------------------

    def _sens_entries(self, senslist: ast.SensList, scope: _Scope):
        """Static (slot, edge) watch entries for an explicit senslist."""
        if senslist.is_star:
            # @(*) below the top level of an always body: the interpreter
            # reports this at runtime; we cannot know the reads here.
            raise CompileUnsupported("@(*) below process top level")
        entries = []
        for item in senslist.items:
            signal_expr = item.signal
            if isinstance(signal_expr, ast.Identifier):
                resolved = scope.resolve(signal_expr.name)
                if resolved is None:
                    raise CompileUnsupported(
                        f"sensitivity on undeclared identifier "
                        f"'{signal_expr.name}'")
                slot, signal = resolved
            elif isinstance(signal_expr, ast.HierarchicalId):
                name = ".".join(signal_expr.parts)
                sig = self.design.signals.get(scope.prefix + name) or \
                    self.design.signals.get(name)
                if sig is None:
                    raise CompileUnsupported(
                        f"sensitivity on unknown hierarchical name "
                        f"'{name}'")
                slot, signal = self.slots[sig.name], sig
            else:
                raise CompileUnsupported(
                    "non-identifier sensitivity expression")
            if signal.is_array:
                raise CompileUnsupported(
                    f"sensitivity on memory '{signal.name}'")
            entries.append((slot, item.edge))
        if not entries:
            raise CompileUnsupported("event control with no signals")
        return _WatchSpec(entries, self.names, self.signals)

    def _expr_dep_slots(self, expr: ast.Expr, scope: _Scope,
                        acc: dict[int, None] | None = None) -> tuple:
        """Slots an expression reads — static twin of the interpreter's
        ``_expr_deps`` (including reads inside called function bodies)."""
        top = acc is None
        if acc is None:
            acc = {}
        if isinstance(expr, ast.Identifier):
            if scope.locals is not None and expr.name in scope.locals:
                pass
            else:
                resolved = scope.resolve(expr.name)
                if resolved is not None:
                    acc[resolved[0]] = None
        elif isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            sig = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if sig is not None:
                acc[self.slots[sig.name]] = None
        elif isinstance(expr, ast.Unary):
            self._expr_dep_slots(expr.operand, scope, acc)
        elif isinstance(expr, ast.Binary):
            self._expr_dep_slots(expr.left, scope, acc)
            self._expr_dep_slots(expr.right, scope, acc)
        elif isinstance(expr, ast.Ternary):
            self._expr_dep_slots(expr.cond, scope, acc)
            self._expr_dep_slots(expr.if_true, scope, acc)
            self._expr_dep_slots(expr.if_false, scope, acc)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._expr_dep_slots(part, scope, acc)
        elif isinstance(expr, ast.Repl):
            self._expr_dep_slots(expr.count, scope, acc)
            for part in expr.parts:
                self._expr_dep_slots(part, scope, acc)
        elif isinstance(expr, ast.Index):
            self._expr_dep_slots(expr.base, scope, acc)
            self._expr_dep_slots(expr.index, scope, acc)
        elif isinstance(expr, ast.PartSelect):
            self._expr_dep_slots(expr.base, scope, acc)
            self._expr_dep_slots(expr.msb, scope, acc)
            self._expr_dep_slots(expr.lsb, scope, acc)
        elif isinstance(expr, ast.FunctionCall):
            for arg in expr.args:
                self._expr_dep_slots(arg, scope, acc)
            if not expr.is_system:
                fn = self.design.functions.get(scope.prefix, {}) \
                    .get(expr.name)
                if fn is not None and fn.body is not None:
                    self._stmt_read_slots(fn.body, scope, acc)
        if top:
            return tuple(acc)
        return ()

    def _stmt_read_slots(self, stmt: ast.Stmt, scope: _Scope,
                         acc: dict[int, None]) -> None:
        """Static twin of the interpreter's ``_stmt_reads``."""
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Stmt):
                    self._stmt_read_slots(child, scope, acc)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._expr_dep_slots(stmt.rhs, scope, acc)
            lhs = stmt.lhs
            if isinstance(lhs, ast.Index):
                self._expr_dep_slots(lhs.index, scope, acc)
            elif isinstance(lhs, ast.PartSelect):
                self._expr_dep_slots(lhs.msb, scope, acc)
                self._expr_dep_slots(lhs.lsb, scope, acc)
        elif isinstance(stmt, ast.IfStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            if stmt.then_stmt:
                self._stmt_read_slots(stmt.then_stmt, scope, acc)
            if stmt.else_stmt:
                self._stmt_read_slots(stmt.else_stmt, scope, acc)
        elif isinstance(stmt, ast.CaseStmt):
            self._expr_dep_slots(stmt.expr, scope, acc)
            for item in stmt.items:
                for expr in item.exprs:
                    self._expr_dep_slots(expr, scope, acc)
                if item.stmt:
                    self._stmt_read_slots(item.stmt, scope, acc)
        elif isinstance(stmt, ast.ForStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            self._stmt_read_slots(stmt.init, scope, acc)
            self._stmt_read_slots(stmt.step, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.WhileStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.RepeatStmt):
            self._expr_dep_slots(stmt.count, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.ForeverStmt):
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                               ast.WaitStmt)):
            if stmt.stmt:
                self._stmt_read_slots(stmt.stmt, scope, acc)
        elif isinstance(stmt, ast.SysTaskCall):
            for arg in stmt.args:
                if not isinstance(arg, ast.StringLiteral):
                    self._expr_dep_slots(arg, scope, acc)

    # -- processes --------------------------------------------------------

    def lower_proc(self, proc: Proc):
        self.stats["procs"] += 1
        if proc.kind == "assign":
            rhs_scope = _Scope(self, proc.rhs_prefix, proc.module)
            lhs_scope = _Scope(self, proc.lhs_prefix, proc.module)
            rhs = self.compile_expr(proc.rhs, rhs_scope)
            writer = self.compile_writer(proc.lhs, lhs_scope)
            deps = self._expr_dep_slots(proc.rhs, rhs_scope)
            self.stats["assigns"] += 1
            return _CAssign(rhs=rhs, writer=writer, deps=deps,
                            label=proc.label,
                            cost=1 + self._expr_cost(proc.rhs,
                                                     rhs_scope))
        scope = _Scope(self, proc.prefix, proc.module)
        if proc.kind == "initial":
            runner = self._branch(proc.body, scope)
            self.stats["coroutines"] += 1
            return _CCoroutine(genfunc=_proc_genfunc(runner, once=True),
                               label=proc.label)
        # always process
        body = proc.body
        if isinstance(body, ast.EventControlStmt):
            senslist = body.senslist
            if senslist.is_star:
                entries = self._star_entries(body, scope)
            else:
                entries = self._sens_entries(senslist, scope)
            body_cost = self._stmt_cost(body.stmt, scope) \
                if body.stmt is not None else 1
            if body.stmt is None or not _needs_coroutine(body.stmt):
                inner = self.compile_sync(body.stmt, scope)
                self.stats["reactive"] += 1
                return _CReactive(body=inner, entries=entries,
                                  label=proc.label, cost=1 + body_cost)
            inner = self.compile_coro(body.stmt, scope)

            def gen(rt, _e=entries, _b=inner, _k=50 + body_cost):
                while True:
                    yield ("wait", _e)
                    yield from _b(rt)
                    rt.charge(_k)
            self.stats["coroutines"] += 1
            return _CCoroutine(genfunc=_wrap_finish(gen),
                               label=proc.label)
        # always without an event control at the top: loop the body.
        runner = self._branch(body, scope)
        loop_cost = 50 + self._stmt_cost(body, scope)
        self.stats["coroutines"] += 1
        return _CCoroutine(genfunc=_proc_genfunc(runner, once=False,
                                                 loop_cost=loop_cost),
                           label=proc.label)

    def _star_entries(self, body: ast.EventControlStmt, scope: _Scope):
        """Expand @(*) into level entries over every signal the body
        reads — the static twin of ``_prepare_star_processes``."""
        reads: dict[int, None] = {}
        if body.stmt is not None:
            self._stmt_read_slots(body.stmt, scope, reads)
        if not reads:
            raise CompileUnsupported("@(*) with an empty read set")
        names = sorted(self.names[slot] for slot in reads)
        entries = []
        for name in names:
            signal = self.design.signals[name]
            if signal.is_array:
                raise CompileUnsupported(
                    f"sensitivity on memory '{name}'")
            entries.append((self.slots[name], None))
        return _WatchSpec(entries, self.names, self.signals)


def _run_branch(rt, branch):
    is_coro, closure = branch
    if closure is None:
        return
    if is_coro:
        yield from closure(rt)
    else:
        closure(rt, None)


def _proc_genfunc(runner, once: bool, loop_cost: int = 51):
    """Wrap a compiled (is_coro, closure) body as a process generator."""
    is_coro, closure = runner

    def gen(rt):
        try:
            if once:
                if closure is not None:
                    if is_coro:
                        yield from closure(rt)
                    else:
                        closure(rt, None)
            else:
                while True:
                    if closure is not None:
                        if is_coro:
                            yield from closure(rt)
                        else:
                            closure(rt, None)
                    rt.charge_always(loop_cost)
        except _Finish:
            pass
    return gen


def _wrap_finish(genfunc):
    def gen(rt):
        try:
            yield from genfunc(rt)
        except _Finish:
            pass
    return gen


def _needs_coroutine(stmt: ast.Stmt | None) -> bool:
    """True when executing ``stmt`` may suspend the process."""
    if stmt is None:
        return False
    if isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                         ast.WaitStmt)):
        return True
    if isinstance(stmt, ast.BlockingAssign):
        return stmt.delay is not None
    if isinstance(stmt, ast.Block):
        return any(_needs_coroutine(c) for c in stmt.stmts
                   if isinstance(c, ast.Stmt))
    if isinstance(stmt, ast.IfStmt):
        return _needs_coroutine(stmt.then_stmt) or \
            _needs_coroutine(stmt.else_stmt)
    if isinstance(stmt, ast.CaseStmt):
        return any(_needs_coroutine(item.stmt) for item in stmt.items)
    if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.RepeatStmt,
                         ast.ForeverStmt)):
        return _needs_coroutine(stmt.body)
    return False


# --------------------------------------------------------------------------
# Compiled artefacts
# --------------------------------------------------------------------------

class _CAssign:
    __slots__ = ("rhs", "writer", "deps", "label", "index", "cost")

    def __init__(self, rhs, writer, deps, label, cost=1):
        self.rhs = rhs
        self.writer = writer
        self.deps = deps
        self.label = label
        self.index = -1
        self.cost = cost


class _CReactive:
    __slots__ = ("body", "entries", "label", "cost")

    def __init__(self, body, entries, label, cost=1):
        self.body = body
        self.entries = entries
        self.label = label
        self.cost = cost


class _CCoroutine:
    __slots__ = ("genfunc", "label")

    def __init__(self, genfunc, label):
        self.genfunc = genfunc
        self.label = label


class _CState:
    """A live coroutine process in one simulation run."""

    __slots__ = ("gen", "label")

    def __init__(self, gen, label):
        self.gen = gen
        self.label = label


class _CWaiter:
    """A parked process: static per-slot edge sets, fired flag."""

    __slots__ = ("event", "edges", "fired")

    def __init__(self, event, edges):
        self.event = event           # ("resume", state) | ("react", proc)
        self.edges = edges           # slot -> tuple of edges
        self.fired = False


class _WatchSpec:
    """Statically precomputed sensitivity: per-slot edge sets.

    Built once at lowering time so parking a process allocates only the
    :class:`_CWaiter` itself — no per-cycle dict building.
    ``array_name`` marks a dependency on a memory, which the interpreter
    reports when it evaluates the sensitivity item; parking raises the
    same error.
    """

    __slots__ = ("edges", "slots", "array_name")

    def __init__(self, entries, names, signals):
        edges: dict[int, list] = {}
        self.array_name = None
        for slot, edge in entries:
            if signals[slot].is_array and self.array_name is None:
                self.array_name = names[slot]
            edges.setdefault(slot, []).append(edge)
        self.edges = {slot: tuple(items) for slot, items in edges.items()}
        self.slots = tuple(self.edges)


@dataclass
class CompiledDesign:
    """A Design lowered to closures; reusable across simulation runs."""

    design: Design
    top: str
    names: list[str]
    slots: dict[str, int]
    init_store: list[V.Value]
    array_slots: tuple[int, ...]
    procs: list
    stats: dict

    def simulator(self, max_delta: int = 50_000,
                  step_budget: int = 5_000_000) -> "CompiledSimulator":
        return CompiledSimulator(self, max_delta=max_delta,
                                 step_budget=step_budget)


def compile_design(design: Design) -> CompiledDesign:
    """Lower ``design`` once into a reusable :class:`CompiledDesign`.

    Raises :class:`CompileUnsupported` when any construct cannot be
    lowered faithfully; the caller is expected to fall back to the
    interpreter.
    """
    lower = _Lower(design)
    procs = []
    n_assigns = 0
    for proc in design.procs:
        lowered = lower.lower_proc(proc)
        if isinstance(lowered, _CAssign):
            lowered.index = n_assigns
            n_assigns += 1
        procs.append(lowered)
    init_store = [signal.value for signal in lower.signals]
    array_slots = tuple(i for i, signal in enumerate(lower.signals)
                        if signal.is_array)
    backend_stats().compiles += 1
    return CompiledDesign(design=design, top=design.top,
                          names=lower.names, slots=lower.slots,
                          init_store=init_store,
                          array_slots=array_slots, procs=procs,
                          stats=dict(lower.stats))


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------

class CompiledSimulator:
    """Execute a :class:`CompiledDesign` with interpreter-identical
    scheduling (stratified active/NBA regions, delta limits)."""

    def __init__(self, compiled: CompiledDesign, max_delta: int = 50_000,
                 step_budget: int = 5_000_000):
        self.compiled = compiled
        self.design = compiled.design
        self.time = 0
        self.finished = False
        self.display_lines: list[str] = []
        self.tracer = None
        self._steps = 0
        self._step_budget = step_budget
        self._max_delta = max_delta
        self._delta = 0
        self._current_label: str | None = None
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._active: deque = deque()
        self._nba: list = []
        self._rand_state = 0x2545F491
        self.store: list[V.Value] = list(compiled.init_store)
        self.arrays: dict[int, dict[int, V.Value]] = {
            slot: {} for slot in compiled.array_slots}
        n = len(self.store)
        self._assign_watchers: list[list] = [[] for _ in range(n)]
        self._slot_waiters: list[list] = [[] for _ in range(n)]
        self._assigns: list[_CAssign] = []
        self._assign_pending: set[int] = set()
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        for proc in self.compiled.procs:
            if isinstance(proc, _CAssign):
                self._assigns.append(proc)
                for slot in proc.deps:
                    self._assign_watchers[slot].append(proc.index)
                self._assign_pending.add(proc.index)
                self._active.append(("assign", proc.index))
            elif isinstance(proc, _CReactive):
                # Arm through the event queue so processes scheduled
                # before this one can fire events it must not yet see —
                # exactly like the interpreter's first generator resume.
                self._active.append(("arm", proc))
            else:
                state = _CState(proc.genfunc(self), proc.label)
                self._active.append(("resume", state))
        # Interned per-assign event tuples: set_slot re-queues these on
        # every dependency change instead of allocating fresh 2-tuples.
        self._assign_events = [("assign", proc.index)
                               for proc in self._assigns]

    # -- budget ----------------------------------------------------------

    def charge(self, n: int = 1) -> None:
        self._steps += n
        if self._steps > self._step_budget:
            raise SimulationTimeout("simulation step budget exhausted",
                                    process=self._current_label,
                                    delta=self._delta)

    def charge_always(self, cost: int = 51) -> None:
        self._steps += cost
        if self._steps > self._step_budget:
            raise SimulationTimeout(
                "always block without delay or event control",
                process=self._current_label, delta=self._delta)

    # -- signal store ----------------------------------------------------

    def set_slot(self, slot: int, value: V.Value) -> None:
        old = self.store[slot]
        # Inlined Value.__eq__ — this is the hottest comparison in the
        # runtime (every write of every signal).
        if old.val == value.val and old.xz == value.xz \
                and old.width == value.width:
            return
        self.store[slot] = value
        if self.tracer is not None:
            self.tracer.record(self.compiled.names[slot], self.time,
                               value)
        # Notify logic inlined (formerly _notify): this runs on nearly
        # every slot write, and the call overhead alone was measurable.
        watchers = self._assign_watchers[slot]
        if watchers:
            pending = self._assign_pending
            active = self._active
            events = self._assign_events
            for index in watchers:
                if index not in pending:
                    pending.add(index)
                    active.append(events[index])
        waiters = self._slot_waiters[slot]
        if not waiters:
            return
        # Inlined edge detection over the canonical (val, xz) encoding:
        # bit0 is '1' iff val&1 (xz bits of val are zeroed), 'x' iff
        # xz&1.  Semantics identical to format.edge_fired, which the
        # differential harness pins.
        prev1 = old.val & 1
        prevx = old.xz & 1
        new1 = value.val & 1
        newx = value.xz & 1
        still = []
        active = self._active
        for waiter in waiters:
            if waiter.fired:
                continue
            fired = False
            for edge in waiter.edges[slot]:
                if edge is None:
                    fired = True          # any change (old != new here)
                    break
                if edge == "posedge":
                    if (new1 and not prev1) or \
                            (newx and not prev1 and not prevx):
                        fired = True
                        break
                elif (not new1 and not newx and (prev1 or prevx)) or \
                        (newx and prev1):
                    fired = True          # negedge
                    break
            if fired:
                waiter.fired = True
                active.append(waiter.event)
            else:
                still.append(waiter)
        self._slot_waiters[slot] = still

    def set_element(self, slot: int, index: int, value: V.Value) -> None:
        array = self.arrays[slot]
        signal = self.design.signals[self.compiled.names[slot]]
        if array.get(index, V.Value.unknown(signal.width)) == value:
            return
        array[index] = value
        self._notify_array(slot)

    def _notify_array(self, slot: int) -> None:
        for index in self._assign_watchers[slot]:
            if index not in self._assign_pending:
                self._assign_pending.add(index)
                self._active.append(("assign", index))
        if self._slot_waiters[slot]:
            # The interpreter re-evaluates sensitivity items on notify;
            # an identifier item naming a memory raises there.
            name = self.compiled.names[slot]
            raise SimulationError(
                f"memory '{name}' used without an index")

    # -- scheduler -------------------------------------------------------

    def _schedule(self, delay: int, action) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.time + (delay if delay > 0 else 0),
                        self._seq, action))

    def schedule_nba(self, ticks: int, writer, value, frame) -> None:
        self._schedule(ticks, ("nba_future", (writer, value, frame)))

    def _park(self, spec: _WatchSpec, event) -> None:
        if spec.array_name is not None:
            raise SimulationError(
                f"memory '{spec.array_name}' used without an index")
        waiter = _CWaiter(event, spec.edges)
        waiters = self._slot_waiters
        for slot in spec.slots:
            waiters[slot].append(waiter)

    def run(self, max_time: int = 1_000_000) -> None:
        """Run until $finish, event exhaustion, or ``max_time``."""
        active = self._active
        max_delta = self._max_delta
        step_budget = self._step_budget
        while True:
            delta = 0
            while active or self._nba:
                while active:
                    delta += 1
                    self._delta = delta
                    if delta > max_delta:
                        raise SimulationTimeout(
                            f"delta overflow at time {self.time}",
                            process=self._current_label, delta=delta)
                    event = active.popleft()
                    if self.finished:
                        return
                    kind = event[0]
                    if kind == "assign":
                        proc = self._assigns[event[1]]
                        self._current_label = proc.label
                        self._assign_pending.discard(event[1])
                        self._steps += proc.cost
                        if self._steps > step_budget:
                            raise SimulationTimeout(
                                "simulation step budget exhausted",
                                process=proc.label, delta=delta)
                        proc.writer(self, None, proc.rhs(self, None))
                    elif kind == "resume":
                        state = event[1]
                        self._current_label = state.label
                        try:
                            request = next(state.gen)
                        except (StopIteration, _Finish):
                            continue
                        # Re-park/reschedule with the *same* event tuple
                        # — identical content, one allocation per
                        # process instead of one per suspension.
                        if request[0] == "delay":
                            self._schedule(request[1], event)
                        else:   # ("wait", spec)
                            self._park(request[1], event)
                    elif kind == "react":
                        proc = event[1]
                        self._current_label = proc.label
                        self._steps += proc.cost
                        if self._steps > step_budget:
                            raise SimulationTimeout(
                                "simulation step budget exhausted",
                                process=proc.label, delta=delta)
                        try:
                            if proc.body is not None:
                                proc.body(self, None)
                        except _Finish:
                            continue   # process ends; never re-arms
                        self._park(proc.entries, event)
                    else:   # "arm"
                        self._current_label = event[1].label
                        self._park(event[1].entries,
                                   ("react", event[1]))
                if self.finished:
                    return
                if self._nba:
                    updates, self._nba = self._nba, []
                    for writer, value, frame in updates:
                        writer(self, frame, value)
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
                    active.append(action)

    # -- tracing / introspection -----------------------------------------

    def enable_tracing(self, filename: str = "dump.vcd"):
        from .vcd import Tracer
        if self.tracer is None:
            self.tracer = Tracer(design=self.design, filename=filename)
            self.snapshot_tracer()
        else:
            self.tracer.filename = filename
        return self.tracer

    def snapshot_tracer(self) -> None:
        values = {name: self.store[slot]
                  for name, slot in self.compiled.slots.items()}
        self.tracer.snapshot_initial(self.time, values=values)

    def value_of(self, name: str) -> V.Value:
        """Current value of a (hierarchical) signal name."""
        signal = self.design.signal(name)
        slot = self.compiled.slots[signal.name]
        if signal.is_array:
            return signal.value
        return self.store[slot]


# --------------------------------------------------------------------------
# Content-keyed compiled-design cache
# --------------------------------------------------------------------------

def source_digest(source_text: str, top: str | None) -> str:
    """Content key of one compile request: source text + requested top."""
    hasher = hashlib.sha256()
    hasher.update(str(SIM_COMPILE_VERSION).encode())
    hasher.update(b"\x1f")
    hasher.update((top or "").encode())
    hasher.update(b"\x1f")
    hasher.update(source_text.encode())
    return hasher.hexdigest()


def _cache_fingerprint() -> str:
    # Fold in the Python major.minor: an "unsupported" verdict can flip
    # when the lowerer runs on a newer Python.
    pyv = f"{sys.version_info[0]}.{sys.version_info[1]}"
    return hashlib.sha256(
        f"repro.sim.compile\x1f{SIM_COMPILE_VERSION}\x1f{pyv}"
        .encode()).hexdigest()


class _CompileMetaCache(ManifestCache):
    """Persistent compile-verdict layer (ManifestCache of JSON blobs).

    Closures cannot cross a process boundary or survive a restart, so
    the only verdict worth persisting is *unsupported* (+ reason): warm
    workers then skip doomed compile attempts without re-parsing the
    source.  A "supported" verdict would save nothing — the design
    must be parsed and lowered again regardless — so none is written,
    which keeps a sweep over thousands of one-shot candidates from
    churning entry files.
    """

    version = SIM_COMPILE_VERSION
    subdir = "designs"
    file_prefix = "design-"
    file_suffix = ".json"

    def _encode(self, payload: dict) -> str:
        return json.dumps(payload, ensure_ascii=False, sort_keys=True) \
            + "\n"

    def _decode(self, text: str) -> dict:
        blob = json.loads(text)
        if not isinstance(blob, dict) or "supported" not in blob:
            raise ValueError("unrecognised compile-verdict blob")
        return blob

    def flush(self) -> None:
        # Concurrent pool workers each hold a partial in-memory view, so
        # a plain whole-manifest rewrite would drop the other workers'
        # entries.  Entries are content-addressed and idempotent, so
        # merging the on-disk index first makes the disjoint-digest case
        # lossless (the residual read-modify-write race only costs a
        # future recompute).
        try:
            with open(self._manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            manifest = None
        if (manifest is not None
                and manifest.get("version") == self.version
                and manifest.get("fingerprint") == self.fingerprint):
            for slot, entry in manifest.get(self.entries_field,
                                            {}).items():
                self._entries.setdefault(slot, entry)
        super().flush()


class CompiledDesignCache:
    """Two-layer cache of compiled designs, keyed by source digest.

    * **in-memory**: an LRU of :class:`CompiledDesign` artefacts — the
      layer that makes ``repro evaluate`` compile each
      testbench/reference pair once across models, levels and samples;
    * **persistent** (optional, ``root=``): a manifest-indexed store
      of *unsupported* verdicts — the layer that lets a warm pool
      worker skip a doomed compile attempt without re-parsing.
      Entries whose key no longer matches (source edited,
      :data:`SIM_COMPILE_VERSION` bumped, or the Python major.minor
      changed) degrade to misses.
    """

    def __init__(self, maxsize: int = 256, root: str | None = None):
        self._lru: LRUCache[str, CompiledDesign] = LRUCache(maxsize)
        self._meta = (_CompileMetaCache(root, _cache_fingerprint())
                      if root else None)

    def get(self, digest: str) -> CompiledDesign | None:
        return self._lru.get(digest)

    def put(self, digest: str, compiled: CompiledDesign) -> None:
        # In-memory only: a persisted "supported" verdict saves no work
        # (the artefact must be re-lowered anyway), so the meta layer
        # records unsupported verdicts exclusively.
        self._lru.put(digest, compiled)

    def verdict(self, digest: str) -> dict | None:
        """Persisted compile verdict for ``digest`` (or None)."""
        if self._meta is None:
            return None
        return self._meta.lookup(digest[:16], digest)

    def record_unsupported(self, digest: str, reason: str) -> None:
        """Persist a fallback verdict (the only kind worth keeping)."""
        if self._meta is not None:
            self._meta.store(digest[:16], digest, {
                "supported": False, "reason": reason, "top": None,
                "stats": {}})
            self._meta.flush()

    def clear(self) -> None:
        self._lru.clear()


#: Process-wide default cache (in-memory only until configured).
#: Guarded by ``_CACHE_LOCK``: daemon worker threads read it while any
#: thread may call :func:`configure_design_cache` — the swap must be
#: atomic, and each run binds the cache reference exactly once.
_CACHE_LOCK = threading.Lock()
_DESIGN_CACHE = CompiledDesignCache()


def design_cache() -> CompiledDesignCache:
    with _CACHE_LOCK:
        return _DESIGN_CACHE


def configure_design_cache(maxsize: int = 256,
                           root: str | None = None) -> CompiledDesignCache:
    """Replace the process-wide cache (e.g. to attach a persistent
    verdict layer under ``root``); returns the new cache.  The swap is
    atomic under a module lock: in-flight ``run_simulation`` calls
    bound the old cache once at entry and finish safely against it."""
    global _DESIGN_CACHE
    cache = CompiledDesignCache(maxsize=maxsize, root=root)
    with _CACHE_LOCK:
        _DESIGN_CACHE = cache
    return cache
