"""Yosys-style Verilog checker.

``check_source`` runs the parser and then a semantic lint pass and returns a
:class:`CheckResult`.  The checks mirror what yosys' Verilog front-end
rejects when the paper's augmentation framework feeds it mutated files:

* syntax errors (from the parser, bison-style messages),
* undeclared identifiers,
* duplicate declarations,
* procedural assignment to nets / continuous assignment to regs,
* header ports never declared,
* instance connections naming unknown ports,
* width-mismatch warnings on continuous assigns (best effort).
"""

from __future__ import annotations

from ..verilog import ast, parse
from ..verilog.errors import VerilogError
from .messages import ERROR, WARNING, CheckResult, Diagnostic

_VARIABLE_KINDS = frozenset({"reg", "integer", "real", "time"})


class _ModuleSymbols:
    """Per-module symbol table built during the lint pass."""

    def __init__(self, module: ast.Module):
        self.module = module
        self.kinds: dict[str, str] = {}          # name -> wire/reg/...
        self.lines: dict[str, int] = {}
        self.widths: dict[str, int | None] = {}
        self.arrays: set[str] = set()
        self.params: dict[str, int | None] = {}
        self.functions: set[str] = set()
        self.duplicates: list[tuple[str, int]] = []
        self._collect()

    def _merge(self, name: str, kind: str, line: int,
               width: int | None, is_port_decl: bool) -> None:
        if name in self.kinds:
            # A header port may be re-declared once in the body (non-ANSI
            # style) and a port may gain a reg declaration; flag the rest.
            previous = self.kinds[name]
            if previous == "port" or (is_port_decl and previous == "wire"):
                pass
            elif kind in _VARIABLE_KINDS and previous == "wire":
                pass
            else:
                self.duplicates.append((name, line))
            if kind != "port":
                self.kinds[name] = kind
            if width is not None:
                self.widths[name] = width
            return
        self.kinds[name] = kind
        self.lines[name] = line
        self.widths[name] = width
        return

    def _range_width(self, rng: ast.Range | None) -> int | None:
        if rng is None:
            return 1
        try:
            msb = _static_int(rng.msb, self.params)
            lsb = _static_int(rng.lsb, self.params)
        except _NotStatic:
            return None
        return abs(msb - lsb) + 1

    def _collect(self) -> None:
        module = self.module
        for decl in module.params:
            for assign in decl.assignments:
                self.params[assign.name] = _try_static(assign.init,
                                                       self.params)
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                for assign in item.assignments:
                    self.params[assign.name] = _try_static(assign.init,
                                                           self.params)
        for port in module.ports:
            if port.decl is not None:
                kind = port.decl.net_kind or "wire"
                self._merge(port.name, kind, port.line,
                            self._range_width(port.decl.range), True)
            else:
                self.kinds.setdefault(port.name, "port")
                self.lines.setdefault(port.name, port.line)
                self.widths.setdefault(port.name, None)
        for item in module.items:
            if isinstance(item, ast.PortDecl):
                kind = item.net_kind or "wire"
                for name in item.names:
                    self._merge(name, kind, item.line,
                                self._range_width(item.range), True)
            elif isinstance(item, ast.Decl):
                width = self._range_width(item.range)
                if item.kind == "integer":
                    width = 32
                for decl in item.declarators:
                    self._merge(decl.name, item.kind, item.line, width,
                                False)
                    if decl.array is not None:
                        self.arrays.add(decl.name)
            elif isinstance(item, ast.FunctionDecl):
                self.functions.add(item.name)
            elif isinstance(item, (ast.Always, ast.Initial)):
                self._collect_block_locals(item.body)

    def _collect_block_locals(self, stmt: ast.Stmt | None) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Decl):
                    width = self._range_width(child.range)
                    for decl in child.declarators:
                        self._merge(decl.name, child.kind, child.line,
                                    width, False)
                else:
                    self._collect_block_locals(child)
        elif isinstance(stmt, ast.IfStmt):
            self._collect_block_locals(stmt.then_stmt)
            self._collect_block_locals(stmt.else_stmt)
        elif isinstance(stmt, ast.CaseStmt):
            for item in stmt.items:
                self._collect_block_locals(item.stmt)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.RepeatStmt,
                               ast.ForeverStmt)):
            self._collect_block_locals(stmt.body)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                               ast.WaitStmt)):
            self._collect_block_locals(stmt.stmt)

    def is_declared(self, name: str) -> bool:
        return (name in self.kinds or name in self.params
                or name in self.functions)

    def kind_of(self, name: str) -> str | None:
        return self.kinds.get(name)


class _NotStatic(Exception):
    pass


def _static_int(expr: ast.Expr, params: dict[str, int | None]) -> int:
    if isinstance(expr, ast.Number):
        try:
            from ..sim.values import from_literal
            value = from_literal(expr.text)
        except (ValueError, KeyError):
            raise _NotStatic() from None
        if value.has_unknown:
            raise _NotStatic()
        return value.to_int()
    if isinstance(expr, ast.Identifier):
        value = params.get(expr.name)
        if value is None:
            raise _NotStatic()
        return value
    if isinstance(expr, ast.Binary):
        left = _static_int(expr.left, params)
        right = _static_int(expr.right, params)
        ops = {"+": lambda: left + right, "-": lambda: left - right,
               "*": lambda: left * right,
               "/": lambda: left // right if right else 0}
        if expr.op in ops:
            return ops[expr.op]()
        raise _NotStatic()
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_static_int(expr.operand, params)
    raise _NotStatic()


def _try_static(expr: ast.Expr,
                params: dict[str, int | None]) -> int | None:
    try:
        return _static_int(expr, params)
    except _NotStatic:
        return None


class Checker:
    """Semantic lint over a parsed source file."""

    def __init__(self, source: ast.SourceFile, filename: str):
        self.source = source
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        self.module_names = {m.name for m in source.modules}
        self.module_table = {m.name: m for m in source.modules}

    def _emit(self, severity: str, message: str, line: int) -> None:
        self.diagnostics.append(Diagnostic(severity=severity,
                                           message=message, line=line,
                                           filename=self.filename))

    def check(self) -> list[Diagnostic]:
        for module in self.source.modules:
            self._check_module(module)
        return self.diagnostics

    # -- per module ------------------------------------------------------

    def _check_module(self, module: ast.Module) -> None:
        symbols = _ModuleSymbols(module)
        for name, line in symbols.duplicates:
            self._emit(ERROR, f"duplicate declaration of '{name}'", line)
        for port in module.ports:
            if symbols.kind_of(port.name) == "port":
                self._emit(ERROR,
                           f"port '{port.name}' is not declared", port.line)
        instance_names = {
            inst.name
            for item in module.items_of_type(ast.Instantiation)
            for inst in item.instances
        }
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._check_continuous_assign(item, symbols)
            elif isinstance(item, ast.Always):
                if item.senslist is not None:
                    for sens in item.senslist.items:
                        if sens.signal is not None:
                            self._check_expr(sens.signal, symbols,
                                             instance_names)
                self._check_stmt(item.body, symbols, instance_names,
                                 procedural=True)
            elif isinstance(item, ast.Initial):
                self._check_stmt(item.body, symbols, instance_names,
                                 procedural=True)
            elif isinstance(item, ast.Instantiation):
                self._check_instantiation(item, symbols, instance_names)
            elif isinstance(item, ast.Decl):
                for decl in item.declarators:
                    if decl.init is not None:
                        self._check_expr(decl.init, symbols, instance_names)

    def _check_continuous_assign(self, item: ast.ContinuousAssign,
                                 symbols: _ModuleSymbols) -> None:
        for lhs, rhs in item.assignments:
            base = _base_name(lhs)
            if base is not None:
                kind = symbols.kind_of(base)
                if kind is None and not symbols.is_declared(base):
                    self._emit(ERROR,
                               f"identifier '{base}' is not declared",
                               lhs.line)
                elif kind in _VARIABLE_KINDS:
                    self._emit(ERROR,
                               f"reg '{base}' cannot be driven by a "
                               f"continuous assignment", lhs.line)
            self._check_expr(rhs, symbols, set())
            self._check_lvalue_indices(lhs, symbols)
            self._check_assign_widths(lhs, rhs, symbols, item.line)

    def _check_assign_widths(self, lhs: ast.Expr, rhs: ast.Expr,
                             symbols: _ModuleSymbols, line: int) -> None:
        lhs_width = _expr_width(lhs, symbols)
        rhs_width = _expr_width(rhs, symbols)
        if lhs_width is None or rhs_width is None:
            return
        if rhs_width > lhs_width:
            self._emit(WARNING,
                       f"assignment truncates {rhs_width} bits to "
                       f"{lhs_width} bits", line)

    # -- statements --------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt | None, symbols: _ModuleSymbols,
                    instances: set[str], procedural: bool) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Stmt):
                    self._check_stmt(child, symbols, instances, procedural)
            return
        if isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            base = _base_name(stmt.lhs)
            if base is not None:
                kind = symbols.kind_of(base)
                if kind is None and not symbols.is_declared(base):
                    self._emit(ERROR,
                               f"identifier '{base}' is not declared",
                               stmt.line)
                elif kind in ("wire", "tri", "supply0", "supply1", "port"):
                    self._emit(ERROR,
                               f"cannot assign to wire '{base}' in a "
                               f"procedural context; declare it as reg",
                               stmt.line)
            self._check_expr(stmt.rhs, symbols, instances)
            self._check_lvalue_indices(stmt.lhs, symbols)
            return
        if isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.cond, symbols, instances)
            self._check_stmt(stmt.then_stmt, symbols, instances, procedural)
            self._check_stmt(stmt.else_stmt, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.CaseStmt):
            self._check_expr(stmt.expr, symbols, instances)
            for item in stmt.items:
                for expr in item.exprs:
                    self._check_expr(expr, symbols, instances)
                self._check_stmt(item.stmt, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.ForStmt):
            self._check_stmt(stmt.init, symbols, instances, procedural)
            self._check_expr(stmt.cond, symbols, instances)
            self._check_stmt(stmt.step, symbols, instances, procedural)
            self._check_stmt(stmt.body, symbols, instances, procedural)
            return
        if isinstance(stmt, (ast.WhileStmt,)):
            self._check_expr(stmt.cond, symbols, instances)
            self._check_stmt(stmt.body, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.RepeatStmt):
            self._check_expr(stmt.count, symbols, instances)
            self._check_stmt(stmt.body, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.ForeverStmt):
            self._check_stmt(stmt.body, symbols, instances, procedural)
            return
        if isinstance(stmt, (ast.DelayStmt,)):
            self._check_stmt(stmt.stmt, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.EventControlStmt):
            for sens in stmt.senslist.items:
                if sens.signal is not None:
                    self._check_expr(sens.signal, symbols, instances)
            self._check_stmt(stmt.stmt, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.WaitStmt):
            self._check_expr(stmt.cond, symbols, instances)
            self._check_stmt(stmt.stmt, symbols, instances, procedural)
            return
        if isinstance(stmt, ast.SysTaskCall):
            for arg in stmt.args:
                if not isinstance(arg, ast.StringLiteral):
                    self._check_expr(arg, symbols, instances)
            return

    def _check_lvalue_indices(self, lhs: ast.Expr,
                              symbols: _ModuleSymbols) -> None:
        if isinstance(lhs, ast.Index):
            self._check_expr(lhs.index, symbols, set())
        elif isinstance(lhs, ast.PartSelect):
            self._check_expr(lhs.msb, symbols, set())
            self._check_expr(lhs.lsb, symbols, set())
        elif isinstance(lhs, ast.Concat):
            for part in lhs.parts:
                self._check_lvalue_indices(part, symbols)

    # -- expressions -------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, symbols: _ModuleSymbols,
                    instances: set[str]) -> None:
        if isinstance(expr, ast.Identifier):
            if not symbols.is_declared(expr.name) and \
                    expr.name not in instances:
                self._emit(ERROR,
                           f"identifier '{expr.name}' is not declared",
                           expr.line)
            return
        if isinstance(expr, ast.HierarchicalId):
            return  # cross-module probes are resolved at elaboration
        if isinstance(expr, (ast.Number, ast.StringLiteral,
                             ast.RealLiteral)):
            return
        if isinstance(expr, ast.Unary):
            self._check_expr(expr.operand, symbols, instances)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left, symbols, instances)
            self._check_expr(expr.right, symbols, instances)
            return
        if isinstance(expr, ast.Ternary):
            self._check_expr(expr.cond, symbols, instances)
            self._check_expr(expr.if_true, symbols, instances)
            self._check_expr(expr.if_false, symbols, instances)
            return
        if isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._check_expr(part, symbols, instances)
            return
        if isinstance(expr, ast.Repl):
            self._check_expr(expr.count, symbols, instances)
            for part in expr.parts:
                self._check_expr(part, symbols, instances)
            return
        if isinstance(expr, ast.Index):
            self._check_expr(expr.base, symbols, instances)
            self._check_expr(expr.index, symbols, instances)
            return
        if isinstance(expr, ast.PartSelect):
            self._check_expr(expr.base, symbols, instances)
            self._check_expr(expr.msb, symbols, instances)
            self._check_expr(expr.lsb, symbols, instances)
            return
        if isinstance(expr, ast.FunctionCall):
            if not expr.is_system and expr.name not in symbols.functions:
                self._emit(ERROR,
                           f"function '{expr.name}' is not declared",
                           expr.line)
            for arg in expr.args:
                self._check_expr(arg, symbols, instances)
            return

    # -- instances -----------------------------------------------------------

    def _check_instantiation(self, item: ast.Instantiation,
                             symbols: _ModuleSymbols,
                             instances: set[str]) -> None:
        target = self.module_table.get(item.module)
        if target is None:
            if item.module not in self.module_names:
                self._emit(WARNING,
                           f"module '{item.module}' is not defined in this "
                           f"file", item.line)
            port_names = None
        else:
            port_names = {p.name for p in target.ports}
            for port_decl in target.items_of_type(ast.PortDecl):
                port_names.update(port_decl.names)
        for instance in item.instances:
            for conn in instance.connections:
                if conn.name is not None and port_names is not None and \
                        conn.name not in port_names:
                    self._emit(ERROR,
                               f"module '{item.module}' has no port "
                               f"'{conn.name}'", conn.line)
                if conn.expr is not None:
                    self._check_expr(conn.expr, symbols, instances)


def _base_name(lhs: ast.Expr) -> str | None:
    if isinstance(lhs, ast.Identifier):
        return lhs.name
    if isinstance(lhs, (ast.Index, ast.PartSelect)):
        return _base_name(lhs.base)
    return None


def _expr_width(expr: ast.Expr,
                symbols: _ModuleSymbols) -> int | None:
    """Best-effort static bit width (None when unknown)."""
    if isinstance(expr, ast.Number):
        return expr.width or 32
    if isinstance(expr, ast.Identifier):
        if expr.name in symbols.params:
            return 32
        return symbols.widths.get(expr.name)
    if isinstance(expr, ast.Unary):
        if expr.op in ("!", "&", "~&", "|", "~|", "^", "~^", "^~"):
            return 1
        return _expr_width(expr.operand, symbols)
    if isinstance(expr, ast.Binary):
        if expr.op in ("&&", "||", "==", "!=", "===", "!==", "<", "<=",
                       ">", ">="):
            return 1
        if expr.op in ("<<", ">>", "<<<", ">>>"):
            return _expr_width(expr.left, symbols)
        left = _expr_width(expr.left, symbols)
        right = _expr_width(expr.right, symbols)
        if left is None or right is None:
            return None
        return max(left, right)
    if isinstance(expr, ast.Ternary):
        left = _expr_width(expr.if_true, symbols)
        right = _expr_width(expr.if_false, symbols)
        if left is None or right is None:
            return None
        return max(left, right)
    if isinstance(expr, ast.Concat):
        widths = [_expr_width(p, symbols) for p in expr.parts]
        if any(w is None for w in widths):
            return None
        return sum(widths)
    if isinstance(expr, ast.Repl):
        try:
            count = _static_int(expr.count, {})
        except _NotStatic:
            return None
        widths = [_expr_width(p, symbols) for p in expr.parts]
        if any(w is None for w in widths):
            return None
        return count * sum(widths)
    if isinstance(expr, ast.Index):
        base = _base_name(expr)
        if base is not None and base in symbols.arrays:
            return symbols.widths.get(base)
        return 1
    if isinstance(expr, ast.PartSelect):
        if expr.mode == ":":
            try:
                msb = _static_int(expr.msb, symbols.params)
                lsb = _static_int(expr.lsb, symbols.params)
            except _NotStatic:
                return None
            return abs(msb - lsb) + 1
        return _try_static(expr.lsb, symbols.params)
    return None


def check_source(text: str, filename: str = "<input>") -> CheckResult:
    """Parse + lint ``text``; syntax errors become single-diagnostic results."""
    return check_source_tree(text, filename)[0]


def check_source_tree(text: str, filename: str = "<input>"
                      ) -> tuple[CheckResult, ast.SourceFile | None]:
    """:func:`check_source`, plus the tree it parsed (None on a syntax
    error), so a caller that goes on to simulate the text need not parse
    it again.  The lint pass only reads the tree."""
    result = CheckResult(filename=filename)
    try:
        source = parse(text, filename)
    except VerilogError as exc:
        result.diagnostics.append(Diagnostic(
            severity=ERROR, message=exc.message, line=exc.line,
            filename=filename))
        return result, None
    result.diagnostics = Checker(source, filename).check()
    return result, source


def yosys_feedback(text: str, filename: str = "./design.v") -> str | None:
    """First ERROR line in yosys format, or None if the file checks clean."""
    return check_source(text, filename).first_error()
