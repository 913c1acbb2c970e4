"""Elaboration: turn a parsed design into a flat simulatable model.

The elaborator flattens the module hierarchy (instances become prefixed
signal names like ``dut.count``), sizes every signal from its declared
range, evaluates parameters (including ``#(.N(..))`` overrides) and collects
the processes the engine will schedule:

* ``always`` blocks (their sensitivity wrapped as an event control),
* ``initial`` blocks,
* continuous assigns,
* implicit connection assigns created for instance ports.

This module also holds the one constant and declaration reader the whole
toolchain shares (the lint checker, the simulator, the synthesizer and
the equivalence checker): :func:`const_eval` evaluates a constant
expression, :func:`eval_params` a module's parameters (with instance
overrides), and :func:`range_bounds` / :func:`range_width` a packed
range.  No other code evaluates a parameter or sizes a declared range
(the NL rules only render a range's source text).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..verilog import ast
from ..verilog.errors import VerilogSemanticError
from . import values as V


class ElaborationError(VerilogSemanticError):
    """Raised when a design cannot be elaborated (missing module, bad port)."""


@dataclass
class Signal:
    """One elaborated net/variable with its storage."""

    name: str                  # fully-qualified (prefixed) name
    width: int
    kind: str                  # 'wire' | 'reg' | 'integer' | ...
    signed: bool = False
    msb: int = 0
    lsb: int = 0
    array_lo: int | None = None
    array_hi: int | None = None
    value: V.Value = None      # type: ignore[assignment]
    array: dict[int, V.Value] = field(default_factory=dict)

    def __post_init__(self):
        if self.value is None:
            self.value = V.Value.unknown(self.width)

    @property
    def is_array(self) -> bool:
        return self.array_lo is not None

    def bit_offset(self, index: int) -> int:
        """Map a declared bit index to a storage offset (0 = LSB)."""
        if self.msb >= self.lsb:
            return index - self.lsb
        return self.lsb - index

    def element(self, index: int) -> V.Value:
        return self.array.get(index, V.Value.unknown(self.width))


@dataclass
class Proc:
    """A schedulable process."""

    kind: str                        # 'always' | 'initial' | 'assign'
    prefix: str                      # hierarchical scope prefix ('' = top)
    module: ast.Module               # module whose functions are in scope
    body: ast.Stmt | None = None     # for always/initial
    # For 'assign' processes:
    lhs: ast.Expr | None = None
    rhs: ast.Expr | None = None
    lhs_prefix: str = ""
    rhs_prefix: str = ""
    index: int = -1                  # assigned by the engine
    line: int = 0                    # source line of the construct

    @property
    def label(self) -> str:
        """Human-readable identity for timeout/error reporting."""
        scope = self.prefix.rstrip(".") or "top"
        where = f" (line {self.line})" if self.line else ""
        return f"{self.kind} process in '{scope}'{where}"


@dataclass
class Design:
    """Flattened design ready for simulation."""

    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    params: dict[str, dict[str, V.Value]] = field(default_factory=dict)
    functions: dict[str, dict[str, ast.FunctionDecl]] = \
        field(default_factory=dict)
    procs: list[Proc] = field(default_factory=list)

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(f"unknown signal '{name}'") from None


# --------------------------------------------------------------------------
# Constant expression evaluation (parameters, ranges)
# --------------------------------------------------------------------------

#: The widest vector a range may declare: IEEE 1364's minimum limit on
#: vector length (the widest vector in the suites and corpus is 64 bits).
MAX_WIDTH = 1 << 16

_CONST_BINOPS = {
    "+": V.add, "-": V.sub, "*": V.mul, "/": V.div, "%": V.mod,
    "&": V.bit_and, "|": V.bit_or, "^": V.bit_xor,
    "~^": V.bit_xnor, "^~": V.bit_xnor,
    "&&": V.logic_and, "||": V.logic_or, "**": V.power,
    "<<": V.shift_left, "<<<": V.shift_left,
    ">>": V.shift_right, ">>>": V.shift_right,
}
_CONST_COMPARES = frozenset({"==", "!=", "===", "!==", "<", "<=", ">",
                             ">="})


def const_eval(expr: ast.Expr, params: dict[str, V.Value]) -> V.Value:
    """Evaluate a compile-time constant expression over ``params``.

    Raises :class:`ElaborationError`, and nothing else, when ``expr`` is
    not a constant this evaluator supports."""
    if isinstance(expr, ast.Number):
        try:
            return V.from_literal(expr.text)
        except (ValueError, KeyError, IndexError):
            raise ElaborationError(
                f"malformed literal '{expr.text}'") from None
    if isinstance(expr, ast.Identifier):
        if expr.name in params:
            return params[expr.name]
        raise ElaborationError(
            f"identifier '{expr.name}' is not a constant")
    if isinstance(expr, ast.Unary):
        operand = const_eval(expr.operand, params)
        if expr.op == "-":
            return V.sub(V.Value.of(0, operand.width), operand)
        if expr.op == "+":
            return operand
        if expr.op == "~":
            return V.bit_not(operand)
        if expr.op == "!":
            return V.logic_not(operand)
        return V.reduce_op(expr.op, operand)
    if isinstance(expr, ast.Binary):
        left = const_eval(expr.left, params)
        right = const_eval(expr.right, params)
        binop = _CONST_BINOPS.get(expr.op)
        if binop is not None:
            return binop(left, right)
        if expr.op in _CONST_COMPARES:
            return V.compare(expr.op, left, right)
        raise ElaborationError(
            f"unsupported constant operator '{expr.op}'")
    if isinstance(expr, ast.Ternary):
        cond = const_eval(expr.cond, params)
        branch = expr.if_true if cond.is_true else expr.if_false
        return const_eval(branch, params)
    if isinstance(expr, ast.FunctionCall) and expr.name == "$clog2" \
            and len(expr.args) == 1:
        arg = const_eval(expr.args[0], params).to_int()
        return V.Value.of(max(arg - 1, 0).bit_length(), 32)
    raise ElaborationError(
        f"unsupported constant expression {type(expr).__name__}")


def const_int(expr: ast.Expr, params: dict[str, V.Value]) -> int:
    """``expr``'s value as a Verilog integer: signed 32-bit, so
    ``[-1:0]`` reads msb -1.  A value wider than 32 bits reads unsigned;
    an x value raises :class:`ElaborationError`."""
    value = const_eval(expr, params)
    if value.has_unknown:
        raise ElaborationError("constant expression evaluates to x")
    if value.width > 32:
        return value.to_int()
    return value.resized(32).to_int(signed=True)


def range_bounds(rng: ast.Range | ast.PartSelect | None,
                 params: dict[str, V.Value]) -> tuple[int, int, int]:
    """``(msb, lsb, width)`` of a packed range (or a ``[msb:lsb]`` part
    select); no range is one bit, ``(0, 0, 1)``.  A range wider than
    :data:`MAX_WIDTH` bits raises :class:`ElaborationError`."""
    if rng is None:
        return 0, 0, 1
    msb = const_int(rng.msb, params)
    lsb = const_int(rng.lsb, params)
    width = abs(msb - lsb) + 1
    if width > MAX_WIDTH:
        raise ElaborationError(
            f"range [{msb}:{lsb}] is {width} bits wide; the limit is "
            f"{MAX_WIDTH}")
    return msb, lsb, width


def range_width(rng: ast.Range | ast.PartSelect | None,
                params: dict[str, V.Value]) -> int:
    """Bit width of a packed range (see :func:`range_bounds`)."""
    return range_bounds(rng, params)[2]


def eval_params(module: ast.Module,
                overrides: dict[str, V.Value] | None = None,
                partial: bool = False) -> dict[str, V.Value]:
    """``module``'s parameters in declaration order, each evaluated over
    the ones before it.  An ``overrides`` entry (an instance's
    ``#(...)`` value) replaces a ``parameter``'s default, never a
    ``localparam``'s.  A parameter whose value is not constant raises
    :class:`ElaborationError`; with ``partial`` it is left out instead,
    so every use of it reads as not constant (the lint checker's
    reading: width unknown)."""
    params: dict[str, V.Value] = {}
    for decl in module.param_decls():
        for assign in decl.assignments:
            if overrides and decl.kind == "parameter" \
                    and assign.name in overrides:
                params[assign.name] = overrides[assign.name]
                continue
            try:
                params[assign.name] = const_eval(assign.init, params)
            except ElaborationError:
                if not partial:
                    raise
    return params


# --------------------------------------------------------------------------
# Elaborator
# --------------------------------------------------------------------------

class Elaborator:
    """Flatten ``source`` starting from module ``top``."""

    def __init__(self, source: ast.SourceFile, top: str,
                 param_overrides: dict[str, int] | None = None):
        self.source = source
        self.top = top
        self.design = Design(top=top)
        self.modules = {m.name: m for m in source.modules}
        self.top_overrides = {
            name: V.Value.of(value, 32)
            for name, value in (param_overrides or {}).items()
        }

    def elaborate(self) -> Design:
        if self.top not in self.modules:
            raise ElaborationError(f"top module '{self.top}' not found")
        self._elaborate_module(self.modules[self.top], prefix="",
                               overrides=self.top_overrides)
        return self.design

    # -- per-module ------------------------------------------------------

    def _elaborate_module(self, module: ast.Module, prefix: str,
                          overrides: dict[str, V.Value]) -> None:
        params = eval_params(module, overrides)
        self.design.params[prefix] = params
        self.design.functions[prefix] = {
            fn.name: fn for fn in module.items_of_type(ast.FunctionDecl)
        }
        self._declare_signals(module, prefix, params)
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                for lhs, rhs in item.assignments:
                    self.design.procs.append(Proc(
                        kind="assign", prefix=prefix, module=module,
                        lhs=lhs, rhs=rhs,
                        lhs_prefix=prefix, rhs_prefix=prefix,
                        line=item.line))
            elif isinstance(item, ast.Always):
                self.design.procs.append(Proc(
                    kind="always", prefix=prefix, module=module,
                    body=self._wrap_always(item), line=item.line))
            elif isinstance(item, ast.Initial):
                self.design.procs.append(Proc(
                    kind="initial", prefix=prefix, module=module,
                    body=item.body, line=item.line))
            elif isinstance(item, ast.Instantiation):
                self._elaborate_instantiation(item, module, prefix, params)

    def _wrap_always(self, item: ast.Always) -> ast.Stmt:
        if item.senslist is None:
            return item.body
        return ast.EventControlStmt(senslist=item.senslist, stmt=item.body,
                                    line=item.line)

    # -- signals -----------------------------------------------------------

    def _declare_signals(self, module: ast.Module, prefix: str,
                         params: dict[str, V.Value]) -> None:
        declared: dict[str, Signal] = {}

        def add_signal(name: str, kind: str, signed: bool,
                       rng: ast.Range | None,
                       array: ast.Range | None = None) -> None:
            full = prefix + name
            msb, lsb, width = range_bounds(rng, params)
            if kind == "integer":
                msb, lsb, width = 31, 0, 32
            array_lo = array_hi = None
            if array is not None:
                bound_a = const_int(array.msb, params)
                bound_b = const_int(array.lsb, params)
                array_lo, array_hi = min(bound_a, bound_b), \
                    max(bound_a, bound_b)
            existing = declared.get(name)
            if existing is not None:
                # Merge port-decl + body decl (e.g. "output count" +
                # "reg [1:0] count"): take widest range and strongest kind.
                if rng is not None:
                    existing.width = width
                    existing.msb, existing.lsb = msb, lsb
                    existing.value = V.Value.unknown(width)
                if kind == "reg" or kind == "integer":
                    existing.kind = kind
                existing.signed = existing.signed or signed
                return
            signal = Signal(name=full, width=width, kind=kind, signed=signed,
                            msb=msb, lsb=lsb, array_lo=array_lo,
                            array_hi=array_hi)
            declared[name] = signal
            self.design.signals[full] = signal

        for port in module.ports:
            if port.decl is not None:
                kind = port.decl.net_kind or "wire"
                add_signal(port.name, kind, port.decl.signed,
                           port.decl.range)
        for item in module.items:
            if isinstance(item, ast.PortDecl):
                kind = item.net_kind or "wire"
                for name in item.names:
                    add_signal(name, kind, item.signed, item.range)
            elif isinstance(item, ast.Decl):
                if item.kind == "genvar":
                    continue
                for decl in item.declarators:
                    add_signal(decl.name, item.kind, item.signed, item.range,
                               decl.array)
                    if decl.init is not None and not decl.array:
                        sig = declared[decl.name]
                        sig.value = const_eval(decl.init, params) \
                            .resized(sig.width)
            elif isinstance(item, (ast.Always, ast.Initial)):
                # Named-block locals are hoisted to module scope.
                for local in ast.block_decls(item.body):
                    for decl in local.declarators:
                        if decl.name not in declared:
                            add_signal(decl.name, local.kind, local.signed,
                                       local.range, decl.array)
        # Header ports without any declaration become 1-bit wires.
        for port in module.ports:
            if port.name not in declared:
                add_signal(port.name, "wire", False, None)

    # -- instances -----------------------------------------------------------

    def _elaborate_instantiation(self, item: ast.Instantiation,
                                 parent: ast.Module, prefix: str,
                                 parent_params: dict[str, V.Value]) -> None:
        child_module = self.modules.get(item.module)
        if child_module is None:
            raise ElaborationError(
                f"module '{item.module}' is not defined")
        for instance in item.instances:
            child_prefix = f"{prefix}{instance.name}."
            overrides = self._instance_overrides(item, child_module,
                                                 parent_params)
            self._elaborate_module(child_module, child_prefix, overrides)
            self._connect_ports(instance, child_module, child_prefix,
                                parent, prefix)

    def _instance_overrides(self, item: ast.Instantiation,
                            child: ast.Module,
                            parent_params: dict[str, V.Value]
                            ) -> dict[str, V.Value]:
        overrides: dict[str, V.Value] = {}
        ordered_names: list[str] = []
        for decl in child.param_decls():
            if decl.kind == "parameter":
                ordered_names.extend(a.name for a in decl.assignments)
        for pos, conn in enumerate(item.param_overrides):
            value = const_eval(conn.expr, parent_params)
            if conn.name is not None:
                overrides[conn.name] = value
            elif pos < len(ordered_names):
                overrides[ordered_names[pos]] = value
        return overrides

    def _connect_ports(self, instance: ast.Instance, child: ast.Module,
                       child_prefix: str, parent: ast.Module,
                       parent_prefix: str) -> None:
        directions = {name: decl.direction for decl in child.port_decls()
                      for name in decl.names}
        port_order = [p.name for p in child.ports]
        for pos, conn in enumerate(instance.connections):
            if conn.name is not None:
                port_name = conn.name
            elif pos < len(port_order):
                port_name = port_order[pos]
            else:
                raise ElaborationError(
                    f"too many connections on instance '{instance.name}'")
            if port_name not in directions:
                raise ElaborationError(
                    f"module '{child.name}' has no port '{port_name}'")
            if conn.expr is None:
                continue  # explicitly unconnected
            direction = directions[port_name]
            port_ref = ast.Identifier(name=port_name, line=conn.line)
            if direction == "input":
                self.design.procs.append(Proc(
                    kind="assign", prefix=child_prefix, module=child,
                    lhs=port_ref, rhs=conn.expr,
                    lhs_prefix=child_prefix, rhs_prefix=parent_prefix,
                    line=conn.line))
            else:  # output / inout treated as child→parent
                self.design.procs.append(Proc(
                    kind="assign", prefix=parent_prefix, module=parent,
                    lhs=conn.expr, rhs=port_ref,
                    lhs_prefix=parent_prefix, rhs_prefix=child_prefix,
                    line=conn.line))



def elaborate(source: ast.SourceFile, top: str,
              param_overrides: dict[str, int] | None = None) -> Design:
    """Elaborate ``source`` with ``top`` as the root module."""
    return Elaborator(source, top, param_overrides).elaborate()
