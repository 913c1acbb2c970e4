"""Program-analysis rules translating Verilog AST nodes to natural language.

This is the paper's Sec. 3.1.2 core: each rule compiles one syntax shape
(module header, port declaration, always block, …) into a templated English
sentence.  The rule set intentionally does **not** capture full Verilog
semantics — the paper notes it "does not capture full Verilog syntax",
mirroring how designers describe only core details.

Rules are registered by name so ablation experiments can enable subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..verilog import ast, unparse
from . import templates as T


@dataclass(frozen=True)
class DescriptionLine:
    """One generated sentence, tagged with its source line and rule."""

    line: int
    rule: str
    text: str


RULE_ORDER = (
    "module_ports",
    "port_widths",
    "output_decls",
    "variable_decls",
    "parameters",
    "trigger_blocks",
    "behavior",
    "continuous_assigns",
    "instances",
    "functions",
)


class Ruleset:
    """Apply a configurable subset of the translation rules to a module."""

    def __init__(self, enabled: set[str] | None = None):
        if enabled is None:
            enabled = set(RULE_ORDER)
        unknown = enabled - set(RULE_ORDER)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        self.enabled = enabled

    def apply(self, module: ast.Module) -> list[DescriptionLine]:
        lines: list[DescriptionLine] = []
        for rule in RULE_ORDER:
            if rule in self.enabled:
                lines.extend(getattr(self, f"rule_{rule}")(module))
        return lines

    # -- structure helpers -------------------------------------------------

    @staticmethod
    def _decl_width(rng: ast.Range | None) -> str:
        if rng is None:
            return "1"
        try:
            msb = int(unparse(rng.msb))
            lsb = int(unparse(rng.lsb))
            return str(abs(msb - lsb) + 1)
        except ValueError:
            return f"({unparse(rng.msb)})-({unparse(rng.lsb)})+1"

    @staticmethod
    def _range_text(rng: ast.Range) -> str:
        return f"{unparse(rng.msb)}:{unparse(rng.lsb)}"

    # -- rules: module & port declaration (paper bullet 1) -----------------

    def rule_module_ports(self, module: ast.Module) -> list[DescriptionLine]:
        if not module.ports:
            text = T.MODULE_NO_PORTS.format(name=module.name)
        else:
            names = [p.name for p in module.ports]
            text = T.MODULE_PORTS.format(
                name=module.name, count=T.number_word(len(names)),
                names=T.join_names(names))
        return [DescriptionLine(module.line, "module_ports", text)]

    def rule_port_widths(self, module: ast.Module) -> list[DescriptionLine]:
        inputs: list[tuple[str, str, int]] = []
        for decl in module.port_decls():
            if decl.direction != "input":
                continue
            width = self._decl_width(decl.range)
            for name in decl.names:
                inputs.append((name, width, decl.line))
        if not inputs:
            return []
        total = len(module.ports) or len(inputs)
        sentences = [T.INPUT_LIST.format(
            count=T.number_word(total),
            names=T.join_names([name for name, _, _ in inputs]))]
        sentences.extend(
            T.INPUT_WIDTH.format(name=name, width=width)
            for name, width, _ in inputs)
        line = inputs[0][2]
        return [DescriptionLine(line, "port_widths", " ".join(sentences))]

    def rule_output_decls(self, module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for decl in module.port_decls():
            if decl.direction == "input":
                continue
            kind = decl.net_kind or "wire"
            for name in decl.names:
                if decl.direction == "inout":
                    text = T.INOUT_SIGNAL.format(
                        name=name, width=self._decl_width(decl.range))
                elif decl.range is not None:
                    text = T.OUTPUT_SIGNAL.format(
                        name=name, width=self._decl_width(decl.range),
                        range=self._range_text(decl.range), kind=kind)
                else:
                    text = T.OUTPUT_SIGNAL_SCALAR.format(name=name,
                                                         kind=kind)
                out.append(DescriptionLine(decl.line, "output_decls", text))
        return out

    # -- rules: variable declaration (paper bullet 3) -----------------------

    def rule_variable_decls(self,
                            module: ast.Module) -> list[DescriptionLine]:
        port_names = {p.name for p in module.ports}
        out: list[DescriptionLine] = []
        for item in module.items_of_type(ast.Decl):
            if item.kind == "genvar":
                continue
            for decl in item.declarators:
                if decl.name in port_names:
                    continue
                if decl.array is not None:
                    depth_msb = unparse(decl.array.msb)
                    depth_lsb = unparse(decl.array.lsb)
                    try:
                        depth = str(abs(int(depth_msb) - int(depth_lsb)) + 1)
                    except ValueError:
                        depth = f"{depth_msb}..{depth_lsb}"
                    text = T.MEMORY_DECL.format(
                        name=decl.name, depth=depth,
                        width=self._decl_width(item.range), kind=item.kind)
                elif item.range is not None:
                    text = T.VARIABLE_DECL.format(
                        name=decl.name, width=self._decl_width(item.range),
                        range=self._range_text(item.range), kind=item.kind)
                else:
                    text = T.VARIABLE_DECL_SCALAR.format(name=decl.name,
                                                         kind=item.kind)
                out.append(DescriptionLine(item.line, "variable_decls",
                                           text))
        return out

    def rule_parameters(self, module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for decl in module.param_decls():
            for assign in decl.assignments:
                text = T.PARAMETER_DECL.format(
                    kind=decl.kind, name=assign.name,
                    value=unparse(assign.init) if assign.init else "0")
                out.append(DescriptionLine(decl.line, "parameters", text))
        return out

    # -- rules: always block declaration (paper bullet 2) -------------------

    def rule_trigger_blocks(self,
                            module: ast.Module) -> list[DescriptionLine]:
        always_blocks = module.items_of_type(ast.Always)
        if not always_blocks:
            return []
        out = [DescriptionLine(
            always_blocks[0].line, "trigger_blocks",
            T.TRIGGER_COUNT.format(
                count=T.number_word(len(always_blocks)),
                block_word="block" if len(always_blocks) == 1
                else "blocks"))]
        for pos, block in enumerate(always_blocks, start=1):
            out.append(DescriptionLine(
                block.line, "trigger_blocks",
                self._describe_senslist(block.senslist, pos)))
        return out

    @staticmethod
    def _describe_senslist(senslist: ast.SensList | None,
                           position: int) -> str:
        ordinal = T.ordinal_word(position)
        if senslist is None or senslist.is_star:
            return T.TRIGGER_SENS_STAR.format(ordinal=ordinal)
        edges = {item.edge for item in senslist.items}
        signals = T.join_names([unparse(item.signal)
                                for item in senslist.items
                                if item.signal is not None])
        if edges == {"posedge"}:
            return T.TRIGGER_SENS_EDGE.format(ordinal=ordinal,
                                              edge="positive",
                                              signals=signals)
        if edges == {"negedge"}:
            return T.TRIGGER_SENS_EDGE.format(ordinal=ordinal,
                                              edge="negative",
                                              signals=signals)
        if None in edges:
            return T.TRIGGER_SENS_LEVEL.format(ordinal=ordinal,
                                               signals=signals)
        return T.TRIGGER_SENS_EDGE.format(ordinal=ordinal,
                                          edge="corresponding",
                                          signals=signals)

    # -- rules: behaviour inside always blocks -------------------------------

    def rule_behavior(self, module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for block in module.items_of_type(ast.Always):
            text = describe_statement(block.body, top_level=True)
            if text:
                out.append(DescriptionLine(block.body.line
                                           if block.body else block.line,
                                           "behavior", text))
        for init in module.items_of_type(ast.Initial):
            body = describe_statement(init.body, top_level=False)
            if body:
                out.append(DescriptionLine(
                    init.line, "behavior",
                    T.INITIAL_BLOCK.format(actions=body)))
        return out

    def rule_continuous_assigns(self,
                                module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for item in module.items_of_type(ast.ContinuousAssign):
            for lhs, rhs in item.assignments:
                out.append(DescriptionLine(
                    item.line, "continuous_assigns",
                    T.CONTINUOUS_ASSIGN.format(lhs=unparse(lhs),
                                               rhs=unparse(rhs))))
        return out

    def rule_instances(self, module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for item in module.items_of_type(ast.Instantiation):
            for instance in item.instances:
                conns = []
                for conn in instance.connections:
                    if conn.name is not None and conn.expr is not None:
                        conns.append(f"<{conn.name}> to "
                                     f"<{unparse(conn.expr)}>")
                    elif conn.expr is not None:
                        conns.append(f"<{unparse(conn.expr)}>")
                out.append(DescriptionLine(
                    item.line, "instances",
                    T.INSTANCE_DECL.format(
                        module=item.module, instance=instance.name,
                        connections=T.join_names(conns) or "nothing")))
        return out

    def rule_functions(self, module: ast.Module) -> list[DescriptionLine]:
        out: list[DescriptionLine] = []
        for fn in module.items_of_type(ast.FunctionDecl):
            out.append(DescriptionLine(
                fn.line, "functions",
                T.FUNCTION_DECL.format(name=fn.name,
                                       width=self._decl_width(fn.range))))
        return out


# --------------------------------------------------------------------------
# Statement → phrase translation
# --------------------------------------------------------------------------

def _assignment_phrase(lhs: ast.Expr, rhs: ast.Expr) -> str:
    """Describe one assignment the way the paper's Fig. 5 does."""
    target = unparse(lhs)
    # count <= count + k  →  "add <k> to the count"
    if isinstance(rhs, ast.Binary) and rhs.op in ("+", "-"):
        left_text = unparse(rhs.left)
        if left_text == target:
            amount = unparse(rhs.right)
            template = T.ADD_ACTION if rhs.op == "+" else T.SUB_ACTION
            return template.format(amount=amount, target=target)
    # q <= {q[n-1:0], d}  →  shift left;  q <= {d, q[n:1]}  →  shift right
    if isinstance(rhs, ast.Concat) and len(rhs.parts) == 2:
        first, second = rhs.parts
        if _selects_target(first, target):
            return T.SHIFT_ACTION.format(target=target, direction="left",
                                         value=unparse(second))
        if _selects_target(second, target):
            return T.SHIFT_ACTION.format(target=target, direction="right",
                                         value=unparse(first))
    verb = "initialize" if isinstance(rhs, ast.Number) else "set"
    return T.SET_ACTION.format(verb=f"<{verb}>", target=target,
                               value=unparse(rhs)).replace("<<", "<")


def _selects_target(expr: ast.Expr, target: str) -> bool:
    return (isinstance(expr, ast.PartSelect)
            and isinstance(expr.base, ast.Identifier)
            and expr.base.name == target)


def describe_statement(stmt: ast.Stmt | None, top_level: bool = False) -> str:
    """Render a behavioural statement as an English phrase."""
    if stmt is None or isinstance(stmt, ast.NullStmt):
        return ""
    if isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
        phrase = _assignment_phrase(stmt.lhs, stmt.rhs)
        if top_level:
            return f"In this <always> block, {phrase}."
        return phrase
    if isinstance(stmt, ast.Block):
        parts = [describe_statement(s) for s in stmt.stmts
                 if isinstance(s, ast.Stmt)]
        parts = [p for p in parts if p]
        joined = ", then ".join(parts)
        if top_level and joined:
            return f"In this <always> block, {joined}."
        return joined
    if isinstance(stmt, ast.IfStmt):
        cond = unparse(stmt.cond)
        then_part = (describe_statement(stmt.then_stmt)
                     or "do nothing").rstrip(".")
        if stmt.else_stmt is None:
            text = T.IF_NO_ELSE.format(cond=cond, then_part=then_part)
        else:
            else_part = (describe_statement(stmt.else_stmt)
                         or "do nothing").rstrip(".")
            text = T.IF_ASSIGN.format(cond=cond, then_part=then_part,
                                      else_part=else_part)
        if not top_level:
            return text[len("In this <always> block, "):]
        return text
    if isinstance(stmt, ast.CaseStmt):
        branches = []
        for item in stmt.items:
            action = describe_statement(item.stmt) or "do nothing"
            if item.exprs:
                label = " or ".join(unparse(e) for e in item.exprs)
                branches.append(T.CASE_BRANCH.format(label=label,
                                                     action=action))
            else:
                branches.append(T.CASE_DEFAULT.format(action=action))
        text = T.CASE_INTRO.format(kind=stmt.kind,
                                   selector=unparse(stmt.expr),
                                   count=T.number_word(len(stmt.items)),
                                   branches="; ".join(branches))
        if not top_level:
            return text[len("In this <always> block, "):]
        return text
    if isinstance(stmt, ast.ForStmt):
        init = describe_statement(stmt.init)
        step = describe_statement(stmt.step)
        body = describe_statement(stmt.body) or "nothing"
        text = T.FOR_LOOP.format(
            var=unparse(stmt.init.lhs) if isinstance(
                stmt.init, ast.BlockingAssign) else "index",
            init=init, cond=unparse(stmt.cond), step=step, body=body)
        if top_level:
            return f"In this <always> block, {text}."
        return text
    if isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt)):
        inner = describe_statement(stmt.stmt)
        if isinstance(stmt, ast.DelayStmt):
            prefix = f"after <{unparse(stmt.delay)}> time units"
            phrase = f"{prefix}, {inner}" if inner else prefix
        else:
            phrase = inner
        if top_level and phrase:
            return f"In this <always> block, {phrase}."
        return phrase
    if isinstance(stmt, ast.SysTaskCall):
        if stmt.name in ("$display", "$write", "$monitor"):
            return "print a message"
        if stmt.name in ("$finish", "$stop"):
            return "finish the simulation"
        return ""
    if isinstance(stmt, (ast.WhileStmt, ast.RepeatStmt, ast.ForeverStmt)):
        body = describe_statement(stmt.body) or "nothing"
        if isinstance(stmt, ast.WhileStmt):
            return f"while <{unparse(stmt.cond)}> holds, repeat: {body}"
        if isinstance(stmt, ast.RepeatStmt):
            return f"repeat <{unparse(stmt.count)}> times: {body}"
        return f"forever repeat: {body}"
    return ""
