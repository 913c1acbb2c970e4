"""Typed AST for the Verilog-2001 subset.

Every node records its 1-based source ``line`` so that downstream passes
(the yosys-style checker, the mutation engine, the NL rule set) can report
positions and edit precisely.

The node inventory intentionally mirrors the grammar fragments the paper's
Fig. 5 lists (``module_declaration``, ``list_of_port_declarations``,
``module_item``, …): those are exactly the shapes the alignment rules
translate to natural language.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass
class Node:
    """Base class; ``line`` is the source line the construct starts on."""

    line: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class HierarchicalId(Expr):
    """Dotted reference such as ``dut.count`` (testbench probing)."""

    parts: list[str]


@dataclass
class Number(Expr):
    """Integer literal, preserving the exact source text.

    ``width`` is None for unsized literals; ``base`` is one of
    ``'d' 'b' 'o' 'h'``.  ``text`` keeps the original spelling so the
    unparser round-trips losslessly.
    """

    text: str
    width: int | None = None
    base: str = "d"
    signed: bool = False

    @property
    def digits(self) -> str:
        """The digit portion of the literal (after the base, if any)."""
        if "'" not in self.text:
            return self.text.replace("_", "")
        after = self.text.split("'", 1)[1]
        return after.lstrip("sS")[1:].replace("_", "").replace(" ", "")


@dataclass
class RealLiteral(Expr):
    text: str


@dataclass
class StringLiteral(Expr):
    value: str


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class Concat(Expr):
    parts: list[Expr]


@dataclass
class Repl(Expr):
    """Replication ``{count{expr, …}}``."""

    count: Expr
    parts: list[Expr]


@dataclass
class Index(Expr):
    """Bit-select or array element select: ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class PartSelect(Expr):
    """Constant or indexed part select: ``base[msb:lsb]``, ``base[i +: w]``."""

    base: Expr
    msb: Expr
    lsb: Expr
    mode: str = ":"  # ':' | '+:' | '-:'


@dataclass
class FunctionCall(Expr):
    """User function or system function call (``$time``, ``clog2`` …)."""

    name: str
    args: list[Expr]
    is_system: bool = False


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------

@dataclass
class Range(Node):
    """Packed range ``[msb:lsb]``."""

    msb: Expr
    lsb: Expr


@dataclass
class Declarator(Node):
    """One name in a declaration, possibly with unpacked dims and an init."""

    name: str
    array: Range | None = None
    init: Expr | None = None


@dataclass
class Decl(Node):
    """wire/reg/integer/parameter/… declaration."""

    kind: str                      # wire|reg|integer|real|time|genvar|tri|...
    signed: bool = False
    range: Range | None = None
    declarators: list[Declarator] = field(default_factory=list)


@dataclass
class PortDecl(Node):
    """input/output/inout declaration (ANSI or non-ANSI)."""

    direction: str                 # input|output|inout
    net_kind: str | None = None    # None (implicit wire) | 'reg' | 'wire'
    signed: bool = False
    range: Range | None = None
    names: list[str] = field(default_factory=list)


@dataclass
class Port(Node):
    """Entry of the module port list header."""

    name: str
    decl: PortDecl | None = None   # present for ANSI-style headers


@dataclass
class ParamDecl(Node):
    kind: str                      # parameter|localparam
    range: Range | None = None
    signed: bool = False
    assignments: list[Declarator] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    """``begin … end`` (optionally named)."""

    stmts: list[Stmt]
    name: str | None = None


@dataclass
class BlockingAssign(Stmt):
    lhs: Expr
    rhs: Expr
    delay: Expr | None = None


@dataclass
class NonBlockingAssign(Stmt):
    lhs: Expr
    rhs: Expr
    delay: Expr | None = None


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_stmt: Stmt | None
    else_stmt: Stmt | None = None


@dataclass
class CaseItem(Node):
    exprs: list[Expr]              # empty == default
    stmt: Stmt | None = None


@dataclass
class CaseStmt(Stmt):
    kind: str                      # case|casez|casex
    expr: Expr = None              # type: ignore[assignment]
    items: list[CaseItem] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    init: Stmt
    cond: Expr
    step: Stmt
    body: Stmt


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class RepeatStmt(Stmt):
    count: Expr
    body: Stmt


@dataclass
class ForeverStmt(Stmt):
    body: Stmt


@dataclass
class DelayStmt(Stmt):
    """``#10 <stmt>`` — also models a bare ``#10;``."""

    delay: Expr
    stmt: Stmt | None = None


@dataclass
class EventControlStmt(Stmt):
    """``@(posedge clk) <stmt>`` inside procedural code."""

    senslist: SensList
    stmt: Stmt | None = None


@dataclass
class WaitStmt(Stmt):
    cond: Expr
    stmt: Stmt | None = None


@dataclass
class SysTaskCall(Stmt):
    """``$display(…)``, ``$finish`` and friends."""

    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class TaskCall(Stmt):
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class NullStmt(Stmt):
    pass


@dataclass
class DisableStmt(Stmt):
    target: str = ""


# --------------------------------------------------------------------------
# Module items
# --------------------------------------------------------------------------

@dataclass
class SensItem(Node):
    """Sensitivity-list entry: edge is None (level) | 'posedge' | 'negedge'."""

    edge: str | None
    signal: Expr | None = None     # None only for '*'


@dataclass
class SensList(Node):
    items: list[SensItem] = field(default_factory=list)

    @property
    def is_star(self) -> bool:
        return len(self.items) == 1 and self.items[0].signal is None


@dataclass
class Always(Node):
    senslist: SensList | None
    body: Stmt = None              # type: ignore[assignment]


@dataclass
class Initial(Node):
    body: Stmt


@dataclass
class ContinuousAssign(Node):
    assignments: list[tuple[Expr, Expr]] = field(default_factory=list)
    delay: Expr | None = None


@dataclass
class PortConnection(Node):
    name: str | None               # None for ordered connection
    expr: Expr | None = None


@dataclass
class Instance(Node):
    name: str
    connections: list[PortConnection] = field(default_factory=list)


@dataclass
class Instantiation(Node):
    module: str
    param_overrides: list[PortConnection] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)


@dataclass
class FunctionDecl(Node):
    name: str
    range: Range | None = None
    signed: bool = False
    items: list[Node] = field(default_factory=list)   # decls
    body: Stmt | None = None


@dataclass
class Module(Node):
    name: str
    ports: list[Port] = field(default_factory=list)
    items: list[Node] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)  # #(…) header

    def items_of_type(self, node_type: type) -> list:
        return [item for item in self.items if isinstance(item, node_type)]

    def port_decls(self) -> list[PortDecl]:
        """Every port declaration: the ANSI header's, then the body's, in
        source order."""
        decls = [port.decl for port in self.ports if port.decl is not None]
        decls.extend(self.items_of_type(PortDecl))
        return decls

    def param_decls(self) -> list[ParamDecl]:
        """Every parameter/localparam declaration: the ``#(...)``
        header's, then the body's, in source order."""
        return list(self.params) + self.items_of_type(ParamDecl)


def block_decls(stmt: Stmt | None) -> Iterator[Decl]:
    """The declarations nested in ``stmt``'s ``begin``/``end`` blocks
    (at any depth under if/case/loops/timing controls), in source
    order."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            if isinstance(child, Decl):
                yield child
            else:
                yield from block_decls(child)
    elif isinstance(stmt, IfStmt):
        yield from block_decls(stmt.then_stmt)
        yield from block_decls(stmt.else_stmt)
    elif isinstance(stmt, CaseStmt):
        for item in stmt.items:
            yield from block_decls(item.stmt)
    elif isinstance(stmt, (ForStmt, WhileStmt, RepeatStmt, ForeverStmt)):
        yield from block_decls(stmt.body)
    elif isinstance(stmt, (DelayStmt, EventControlStmt, WaitStmt)):
        yield from block_decls(stmt.stmt)


@dataclass
class SourceFile(Node):
    modules: list[Module] = field(default_factory=list)

    def module(self, name: str) -> Module:
        for mod in self.modules:
            if mod.name == name:
                return mod
        raise KeyError(f"no module named {name!r}")
