"""Recursive-descent parser for the Verilog-2001 subset.

The grammar follows the shape shown in the paper's Fig. 5 (EBNF fragments of
``module_declaration`` / ``list_of_port_declarations`` / ``module_item``).
Error messages mimic yosys' bison front-end (``syntax error, unexpected ']'``)
so the repair-data generator can pair them with broken files verbatim.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import VerilogSyntaxError
from .lexer import tokenize
from .tokens import Token, TokenKind

# Fetching an enum member through its class is a slow attribute lookup,
# and the parser tests a token kind at nearly every step.
_ID, _KEYWORD, _NUMBER, _STRING, _OP, _SYSTEM_ID, _EOF = (
    TokenKind.ID, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.STRING,
    TokenKind.OP, TokenKind.SYSTEM_ID, TokenKind.EOF)

_DECL_KINDS = frozenset({
    "wire", "reg", "integer", "real", "time", "genvar", "tri",
    "supply0", "supply1",
})

#: Binary operator binding powers (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset({"!", "~", "&", "~&", "|", "~|", "^", "~^", "^~",
                        "+", "-"})


def _number_from_token(tok: Token) -> ast.Number:
    """Interpret a NUMBER token's text into width/base/signed fields."""
    text = tok.value
    if "'" not in text:
        return ast.Number(text=text, width=None, base="d", line=tok.line)
    size_part, rest = text.split("'", 1)
    signed = rest[:1] in ("s", "S")
    if signed:
        rest = rest[1:]
    base = rest[0].lower()
    width = int(size_part.replace("_", "").strip()) if size_part.strip() else None
    return ast.Number(text=text, width=width, base=base, signed=signed,
                      line=tok.line)


class Parser:
    """Parse a token stream into a :class:`repro.verilog.ast_nodes.SourceFile`."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self.tokens = tokenize(text, filename)
        self.idx = 0
        #: ``tokens[idx]``, kept in step by :meth:`_advance`.
        self.cur: Token = self.tokens[0]

    # -- cursor helpers ----------------------------------------------------

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self.idx + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.cur
        if tok.kind is not _EOF:
            self.idx += 1
            self.cur = self.tokens[self.idx]
        return tok

    def _error(self, expected: str | None = None) -> VerilogSyntaxError:
        tok = self.cur
        message = f"syntax error, unexpected {tok.describe()}"
        if expected:
            message += f", expecting {expected}"
        return VerilogSyntaxError(message, tok.line, tok.col, self.filename,
                                  unexpected=tok.value)

    # The helpers below test the token inline and step without
    # _advance's EOF guard: a token they match is never EOF.

    def _step(self, tok: Token) -> Token:
        self.idx += 1
        self.cur = self.tokens[self.idx]
        return tok

    def _expect_op(self, text: str) -> Token:
        tok = self.cur
        if tok.value != text or tok.kind is not _OP:
            raise self._error(f"'{text}'")
        return self._step(tok)

    def _expect_kw(self, word: str) -> Token:
        tok = self.cur
        if tok.value != word or tok.kind is not _KEYWORD:
            raise self._error(f"'{word}'")
        return self._step(tok)

    def _expect_id(self) -> Token:
        tok = self.cur
        if tok.kind is not _ID:
            raise self._error("an identifier")
        return self._step(tok)

    def _accept_op(self, text: str) -> bool:
        tok = self.cur
        if tok.value == text and tok.kind is _OP:
            self._step(tok)
            return True
        return False

    def _accept_kw(self, word: str) -> bool:
        tok = self.cur
        if tok.value == word and tok.kind is _KEYWORD:
            self._step(tok)
            return True
        return False

    # -- top level -----------------------------------------------------------

    def parse(self) -> ast.SourceFile:
        modules = []
        while self.cur.kind is not _EOF:
            if self.cur.is_kw("module"):
                modules.append(self.parse_module())
            else:
                raise self._error("'module'")
        return ast.SourceFile(modules=modules, line=1)

    def parse_module(self) -> ast.Module:
        line = self._expect_kw("module").line
        name = self._expect_id().value
        params: list[ast.ParamDecl] = []
        if self._accept_op("#"):
            self._expect_op("(")
            params = self._parse_header_params()
            self._expect_op(")")
        ports: list[ast.Port] = []
        if self._accept_op("("):
            ports = self._parse_port_list()
            self._expect_op(")")
        self._expect_op(";")
        items: list[ast.Node] = []
        while not self.cur.is_kw("endmodule"):
            if self.cur.kind is _EOF:
                raise self._error("'endmodule'")
            items.extend(self.parse_module_item())
        self._advance()  # endmodule
        return ast.Module(name=name, ports=ports, items=items, params=params,
                          line=line)

    def _parse_header_params(self) -> list[ast.ParamDecl]:
        params: list[ast.ParamDecl] = []
        while not self.cur.is_op(")"):
            line = self.cur.line
            self._expect_kw("parameter")
            signed = self._accept_kw("signed")
            rng = self._parse_range_opt()
            assigns = [self._parse_param_assignment()]
            # Commas may separate either further names of this parameter or
            # a new 'parameter' keyword.
            while self._accept_op(","):
                if self.cur.is_kw("parameter"):
                    self._expect_kw("parameter")
                    signed2 = self._accept_kw("signed")
                    rng2 = self._parse_range_opt()
                    params.append(ast.ParamDecl(
                        kind="parameter", range=rng, signed=signed,
                        assignments=assigns, line=line))
                    line, signed, rng = self.cur.line, signed2, rng2
                    assigns = [self._parse_param_assignment()]
                else:
                    assigns.append(self._parse_param_assignment())
            params.append(ast.ParamDecl(kind="parameter", range=rng,
                                        signed=signed, assignments=assigns,
                                        line=line))
        return params

    def _parse_param_assignment(self) -> ast.Declarator:
        name_tok = self._expect_id()
        self._expect_op("=")
        value = self.parse_expression()
        return ast.Declarator(name=name_tok.value, init=value,
                              line=name_tok.line)

    def _parse_port_list(self) -> list[ast.Port]:
        ports: list[ast.Port] = []
        if self.cur.is_op(")"):
            return ports
        while True:
            ports.append(self._parse_port())
            if not self._accept_op(","):
                return ports

    def _parse_port(self) -> ast.Port:
        tok = self.cur
        if tok.kind is _KEYWORD and tok.value in ("input", "output",
                                                  "inout"):
            direction = self._advance().value
            net_kind = None
            if self.cur.is_kw("reg") or self.cur.is_kw("wire"):
                net_kind = self._advance().value
            signed = self._accept_kw("signed")
            rng = self._parse_range_opt()
            name_tok = self._expect_id()
            decl = ast.PortDecl(direction=direction, net_kind=net_kind,
                                signed=signed, range=rng,
                                names=[name_tok.value], line=tok.line)
            return ast.Port(name=name_tok.value, decl=decl, line=tok.line)
        name_tok = self._expect_id()
        return ast.Port(name=name_tok.value, decl=None, line=name_tok.line)

    # -- module items ----------------------------------------------------

    def parse_module_item(self) -> list[ast.Node]:
        """Parse one module item; returns a list (a decl can be one node)."""
        tok = self.cur
        if tok.kind is _KEYWORD:
            if tok.value in ("input", "output", "inout"):
                return [self._parse_port_decl()]
            if tok.value in _DECL_KINDS:
                return [self._parse_decl()]
            if tok.value in ("parameter", "localparam"):
                return [self._parse_param_decl()]
            if tok.value == "assign":
                return [self._parse_continuous_assign()]
            if tok.value == "always":
                return [self._parse_always()]
            if tok.value == "initial":
                self._advance()
                return [ast.Initial(body=self.parse_statement(),
                                    line=tok.line)]
            if tok.value == "function":
                return [self._parse_function()]
            raise self._error()
        if tok.kind is _ID:
            return [self._parse_instantiation()]
        raise self._error()

    def _parse_port_decl(self) -> ast.PortDecl:
        line = self.cur.line
        direction = self._advance().value
        net_kind = None
        if self.cur.is_kw("reg") or self.cur.is_kw("wire"):
            net_kind = self._advance().value
        signed = self._accept_kw("signed")
        rng = self._parse_range_opt()
        names = [self._expect_id().value]
        while self._accept_op(","):
            names.append(self._expect_id().value)
        self._expect_op(";")
        return ast.PortDecl(direction=direction, net_kind=net_kind,
                            signed=signed, range=rng, names=names, line=line)

    def _parse_decl(self) -> ast.Decl:
        line = self.cur.line
        kind = self._advance().value
        signed = self._accept_kw("signed")
        rng = self._parse_range_opt()
        declarators = [self._parse_declarator()]
        while self._accept_op(","):
            declarators.append(self._parse_declarator())
        self._expect_op(";")
        return ast.Decl(kind=kind, signed=signed, range=rng,
                        declarators=declarators, line=line)

    def _parse_declarator(self) -> ast.Declarator:
        name_tok = self._expect_id()
        array = None
        if self.cur.is_op("["):
            array = self._parse_range()
        init = None
        if self._accept_op("="):
            init = self.parse_expression()
        return ast.Declarator(name=name_tok.value, array=array, init=init,
                              line=name_tok.line)

    def _parse_param_decl(self) -> ast.ParamDecl:
        line = self.cur.line
        kind = self._advance().value
        signed = self._accept_kw("signed")
        rng = self._parse_range_opt()
        assigns = [self._parse_param_assignment()]
        while self._accept_op(","):
            assigns.append(self._parse_param_assignment())
        self._expect_op(";")
        return ast.ParamDecl(kind=kind, range=rng, signed=signed,
                             assignments=assigns, line=line)

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        line = self._expect_kw("assign").line
        delay = None
        if self._accept_op("#"):
            delay = self._parse_delay_value()
        assignments = []
        while True:
            lhs = self._parse_lvalue()
            self._expect_op("=")
            rhs = self.parse_expression()
            assignments.append((lhs, rhs))
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return ast.ContinuousAssign(assignments=assignments, delay=delay,
                                    line=line)

    def _parse_always(self) -> ast.Always:
        line = self._expect_kw("always").line
        senslist = None
        if self._accept_op("@"):
            senslist = self._parse_senslist()
        body = self.parse_statement()
        return ast.Always(senslist=senslist, body=body, line=line)

    def _parse_senslist(self) -> ast.SensList:
        line = self.cur.line
        if self._accept_op("*"):
            return ast.SensList(items=[ast.SensItem(edge=None, signal=None,
                                                    line=line)], line=line)
        if not self.cur.is_op("("):
            # Bare "@clk" form.
            sig = self._parse_primary()
            return ast.SensList(items=[ast.SensItem(edge=None, signal=sig,
                                                    line=line)], line=line)
        self._expect_op("(")
        if self._accept_op("*"):
            self._expect_op(")")
            return ast.SensList(items=[ast.SensItem(edge=None, signal=None,
                                                    line=line)], line=line)
        items = [self._parse_sens_item()]
        while self._accept_op(",") or self._accept_kw("or"):
            items.append(self._parse_sens_item())
        self._expect_op(")")
        return ast.SensList(items=items, line=line)

    def _parse_sens_item(self) -> ast.SensItem:
        line = self.cur.line
        edge = None
        if self.cur.is_kw("posedge") or self.cur.is_kw("negedge"):
            edge = self._advance().value
        signal = self.parse_expression()
        return ast.SensItem(edge=edge, signal=signal, line=line)

    def _parse_function(self) -> ast.FunctionDecl:
        line = self._expect_kw("function").line
        signed = self._accept_kw("signed")
        rng = self._parse_range_opt()
        name = self._expect_id().value
        self._expect_op(";")
        items: list[ast.Node] = []
        while (self.cur.kind is _KEYWORD
               and self.cur.value in ("input", "output", "inout")):
            items.append(self._parse_port_decl())
        while (self.cur.kind is _KEYWORD
               and self.cur.value in _DECL_KINDS):
            items.append(self._parse_decl())
        body = self.parse_statement()
        self._expect_kw("endfunction")
        return ast.FunctionDecl(name=name, range=rng, signed=signed,
                                items=items, body=body, line=line)

    def _parse_instantiation(self) -> ast.Instantiation:
        line = self.cur.line
        module_name = self._expect_id().value
        param_overrides: list[ast.PortConnection] = []
        if self._accept_op("#"):
            self._expect_op("(")
            param_overrides = self._parse_connections()
            self._expect_op(")")
        instances = [self._parse_instance()]
        while self._accept_op(","):
            instances.append(self._parse_instance())
        self._expect_op(";")
        return ast.Instantiation(module=module_name,
                                 param_overrides=param_overrides,
                                 instances=instances, line=line)

    def _parse_instance(self) -> ast.Instance:
        name_tok = self._expect_id()
        self._expect_op("(")
        connections = self._parse_connections()
        self._expect_op(")")
        return ast.Instance(name=name_tok.value, connections=connections,
                            line=name_tok.line)

    def _parse_connections(self) -> list[ast.PortConnection]:
        connections: list[ast.PortConnection] = []
        if self.cur.is_op(")"):
            return connections
        while True:
            line = self.cur.line
            if self._accept_op("."):
                name = self._expect_id().value
                self._expect_op("(")
                expr = None
                if not self.cur.is_op(")"):
                    expr = self.parse_expression()
                self._expect_op(")")
                connections.append(ast.PortConnection(name=name, expr=expr,
                                                      line=line))
            else:
                expr = self.parse_expression()
                connections.append(ast.PortConnection(name=None, expr=expr,
                                                      line=line))
            if not self._accept_op(","):
                return connections

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        tok = self.cur
        kind, value = tok.kind, tok.value
        if kind is _ID:
            return self._parse_assignment_or_call()
        if kind is _KEYWORD:
            if value == "begin":
                return self._parse_block()
            if value == "if":
                return self._parse_if()
            if value in ("case", "casez", "casex"):
                return self._parse_case()
            if value == "for":
                return self._parse_for()
            if value == "while":
                self._advance()
                self._expect_op("(")
                cond = self.parse_expression()
                self._expect_op(")")
                return ast.WhileStmt(cond=cond, body=self.parse_statement(),
                                     line=tok.line)
            if value == "repeat":
                self._advance()
                self._expect_op("(")
                count = self.parse_expression()
                self._expect_op(")")
                return ast.RepeatStmt(count=count,
                                      body=self.parse_statement(),
                                      line=tok.line)
            if value == "forever":
                self._advance()
                return ast.ForeverStmt(body=self.parse_statement(),
                                       line=tok.line)
            if value == "wait":
                self._advance()
                self._expect_op("(")
                cond = self.parse_expression()
                self._expect_op(")")
                stmt = None
                if not self._accept_op(";"):
                    stmt = self.parse_statement()
                return ast.WaitStmt(cond=cond, stmt=stmt, line=tok.line)
            if value == "disable":
                self._advance()
                target = self._expect_id().value
                self._expect_op(";")
                return ast.DisableStmt(target=target, line=tok.line)
        elif kind is _OP:
            if value == ";":
                self._advance()
                return ast.NullStmt(line=tok.line)
            if value == "#":
                self._advance()
                delay = self._parse_delay_value()
                if self._accept_op(";"):
                    return ast.DelayStmt(delay=delay, stmt=None,
                                         line=tok.line)
                return ast.DelayStmt(delay=delay,
                                     stmt=self.parse_statement(),
                                     line=tok.line)
            if value == "@":
                self._advance()
                senslist = self._parse_senslist()
                if self._accept_op(";"):
                    return ast.EventControlStmt(senslist=senslist,
                                                stmt=None, line=tok.line)
                return ast.EventControlStmt(senslist=senslist,
                                            stmt=self.parse_statement(),
                                            line=tok.line)
            if value == "{":
                return self._parse_assignment_or_call()
        elif kind is _SYSTEM_ID:
            return self._parse_systask()
        raise self._error("a statement")

    def _parse_block(self) -> ast.Block:
        line = self._expect_kw("begin").line
        name = None
        if self._accept_op(":"):
            name = self._expect_id().value
        stmts: list[ast.Stmt] = []
        # Named blocks may declare local variables (integer i; reg tmp; ...).
        while (self.cur.kind is _KEYWORD
               and self.cur.value in _DECL_KINDS):
            stmts.append(self._parse_decl())
        while not self.cur.is_kw("end"):
            if self.cur.kind is _EOF:
                raise self._error("'end'")
            stmts.append(self.parse_statement())
        self._advance()  # end
        return ast.Block(stmts=stmts, name=name, line=line)

    def _parse_if(self) -> ast.IfStmt:
        line = self._expect_kw("if").line
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self._accept_kw("else"):
            else_stmt = self.parse_statement()
        return ast.IfStmt(cond=cond, then_stmt=then_stmt,
                          else_stmt=else_stmt, line=line)

    def _parse_case(self) -> ast.CaseStmt:
        line = self.cur.line
        kind = self._advance().value
        self._expect_op("(")
        expr = self.parse_expression()
        self._expect_op(")")
        items: list[ast.CaseItem] = []
        while not self.cur.is_kw("endcase"):
            if self.cur.kind is _EOF:
                raise self._error("'endcase'")
            items.append(self._parse_case_item())
        self._advance()  # endcase
        return ast.CaseStmt(kind=kind, expr=expr, items=items, line=line)

    def _parse_case_item(self) -> ast.CaseItem:
        line = self.cur.line
        if self._accept_kw("default"):
            self._accept_op(":")
            return ast.CaseItem(exprs=[], stmt=self.parse_statement(),
                                line=line)
        exprs = [self.parse_expression()]
        while self._accept_op(","):
            exprs.append(self.parse_expression())
        self._expect_op(":")
        return ast.CaseItem(exprs=exprs, stmt=self.parse_statement(),
                            line=line)

    def _parse_for(self) -> ast.ForStmt:
        line = self._expect_kw("for").line
        self._expect_op("(")
        init = self._parse_plain_assign()
        self._expect_op(";")
        cond = self.parse_expression()
        self._expect_op(";")
        step = self._parse_plain_assign()
        self._expect_op(")")
        return ast.ForStmt(init=init, cond=cond, step=step,
                           body=self.parse_statement(), line=line)

    def _parse_plain_assign(self) -> ast.Stmt:
        """``lhs = rhs`` with no trailing semicolon (for-loop headers)."""
        line = self.cur.line
        lhs = self._parse_lvalue()
        self._expect_op("=")
        rhs = self.parse_expression()
        return ast.BlockingAssign(lhs=lhs, rhs=rhs, line=line)

    def _parse_systask(self) -> ast.SysTaskCall:
        tok = self._advance()
        args: list[ast.Expr] = []
        if self._accept_op("("):
            if not self.cur.is_op(")"):
                args.append(self.parse_expression())
                while self._accept_op(","):
                    args.append(self.parse_expression())
            self._expect_op(")")
        self._expect_op(";")
        return ast.SysTaskCall(name=tok.value, args=args, line=tok.line)

    def _parse_assignment_or_call(self) -> ast.Stmt:
        line = self.cur.line
        if self.cur.kind is _ID:
            nxt = self._peek()
            # Task call: "name;" or "name(args);" where '(' is not part of
            # an lvalue (lvalues never start with '(' after the name).
            if nxt.is_op(";"):
                name = self._advance().value
                self._advance()  # ;
                return ast.TaskCall(name=name, line=line)
            if nxt.is_op("("):
                name = self._advance().value
                self._advance()  # (
                args: list[ast.Expr] = []
                if not self.cur.is_op(")"):
                    args.append(self.parse_expression())
                    while self._accept_op(","):
                        args.append(self.parse_expression())
                self._expect_op(")")
                self._expect_op(";")
                return ast.TaskCall(name=name, args=args, line=line)
        lhs = self._parse_lvalue()
        if self._accept_op("="):
            nonblocking = False
        elif self._accept_op("<="):
            nonblocking = True
        else:
            raise self._error("'=' or '<='")
        delay = None
        if self._accept_op("#"):
            delay = self._parse_delay_value()
        rhs = self.parse_expression()
        self._expect_op(";")
        if nonblocking:
            return ast.NonBlockingAssign(lhs=lhs, rhs=rhs, delay=delay,
                                         line=line)
        return ast.BlockingAssign(lhs=lhs, rhs=rhs, delay=delay, line=line)

    def _parse_lvalue(self) -> ast.Expr:
        """Lvalue: identifier with selects, or a concatenation of lvalues."""
        if self.cur.is_op("{"):
            line = self.cur.line
            self._advance()
            parts = [self._parse_lvalue()]
            while self._accept_op(","):
                parts.append(self._parse_lvalue())
            self._expect_op("}")
            return ast.Concat(parts=parts, line=line)
        name_tok = self._expect_id()
        expr: ast.Expr
        if self.cur.is_op("."):
            parts = [name_tok.value]
            while self._accept_op("."):
                parts.append(self._expect_id().value)
            expr = ast.HierarchicalId(parts=parts, line=name_tok.line)
        else:
            expr = ast.Identifier(name=name_tok.value, line=name_tok.line)
        expr = self._parse_postfix_selects(expr)
        return expr

    def _parse_delay_value(self) -> ast.Expr:
        tok = self.cur
        if tok.kind is _NUMBER:
            self._advance()
            return _number_from_token(tok)
        if tok.kind is _ID:
            self._advance()
            return ast.Identifier(name=tok.value, line=tok.line)
        if tok.is_op("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        raise self._error("a delay value")

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept_op("?"):
            if_true = self._parse_ternary()
            self._expect_op(":")
            if_false = self._parse_ternary()
            return ast.Ternary(cond=cond, if_true=if_true, if_false=if_false,
                               line=cond.line)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self.cur
            if tok.kind is not _OP:
                return left
            prec = _BINARY_PRECEDENCE.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(op=tok.value, left=left, right=right,
                              line=left.line)

    def _parse_unary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind is _OP and tok.value in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(op=tok.value, operand=operand, line=tok.line)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind is _NUMBER:
            self._advance()
            if "." in tok.value and "'" not in tok.value:
                return ast.RealLiteral(text=tok.value, line=tok.line)
            return _number_from_token(tok)
        if tok.kind is _STRING:
            self._advance()
            return ast.StringLiteral(value=tok.value, line=tok.line)
        if tok.kind is _SYSTEM_ID:
            self._advance()
            args: list[ast.Expr] = []
            if self._accept_op("("):
                if not self.cur.is_op(")"):
                    args.append(self.parse_expression())
                    while self._accept_op(","):
                        args.append(self.parse_expression())
                self._expect_op(")")
            return ast.FunctionCall(name=tok.value, args=args,
                                    is_system=True, line=tok.line)
        if tok.kind is _ID:
            return self._parse_id_expression()
        if tok.is_op("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        if tok.is_op("{"):
            return self._parse_concat_or_repl()
        raise self._error("an expression")

    def _parse_id_expression(self) -> ast.Expr:
        name_tok = self._expect_id()
        # Function call.
        if self.cur.is_op("("):
            self._advance()
            args: list[ast.Expr] = []
            if not self.cur.is_op(")"):
                args.append(self.parse_expression())
                while self._accept_op(","):
                    args.append(self.parse_expression())
            self._expect_op(")")
            return ast.FunctionCall(name=name_tok.value, args=args,
                                    is_system=False, line=name_tok.line)
        expr: ast.Expr
        if self.cur.is_op("."):
            parts = [name_tok.value]
            while self._accept_op("."):
                parts.append(self._expect_id().value)
            expr = ast.HierarchicalId(parts=parts, line=name_tok.line)
        else:
            expr = ast.Identifier(name=name_tok.value, line=name_tok.line)
        return self._parse_postfix_selects(expr)

    def _parse_postfix_selects(self, expr: ast.Expr) -> ast.Expr:
        while self.cur.is_op("["):
            line = self.cur.line
            self._advance()
            first = self.parse_expression()
            if self.cur.is_op(":") or self.cur.is_op("+:") or \
                    self.cur.is_op("-:"):
                mode = self._advance().value
                second = self.parse_expression()
                self._expect_op("]")
                expr = ast.PartSelect(base=expr, msb=first, lsb=second,
                                      mode=mode, line=line)
            else:
                self._expect_op("]")
                expr = ast.Index(base=expr, index=first, line=line)
        return expr

    def _parse_concat_or_repl(self) -> ast.Expr:
        line = self._expect_op("{").line
        first = self.parse_expression()
        if self.cur.is_op("{"):
            # Replication: {count{a, b, ...}}
            self._advance()
            parts = [self.parse_expression()]
            while self._accept_op(","):
                parts.append(self.parse_expression())
            self._expect_op("}")
            self._expect_op("}")
            return ast.Repl(count=first, parts=parts, line=line)
        parts = [first]
        while self._accept_op(","):
            parts.append(self.parse_expression())
        self._expect_op("}")
        return ast.Concat(parts=parts, line=line)

    # -- range helpers -----------------------------------------------------

    def _parse_range_opt(self) -> ast.Range | None:
        if self.cur.is_op("["):
            return self._parse_range()
        return None

    def _parse_range(self) -> ast.Range:
        line = self._expect_op("[").line
        msb = self.parse_expression()
        self._expect_op(":")
        lsb = self.parse_expression()
        self._expect_op("]")
        return ast.Range(msb=msb, lsb=lsb, line=line)


def parse(text: str, filename: str = "<input>") -> ast.SourceFile:
    """Parse Verilog source into a :class:`SourceFile` AST."""
    return Parser(text, filename).parse()


def parse_module(text: str, filename: str = "<input>") -> ast.Module:
    """Parse source containing exactly one module and return it."""
    source = parse(text, filename)
    if len(source.modules) != 1:
        raise VerilogSyntaxError(
            f"expected exactly one module, found {len(source.modules)}",
            1, 1, filename)
    return source.modules[0]
