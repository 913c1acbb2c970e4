"""Token definitions for the Verilog-2001 subset handled by this repo.

The lexer produces a flat list of :class:`Token`.  Token *kinds* are coarse
(identifier, number, keyword, operator, …); the ``value`` field carries the
exact source text so the unparser and the mutation engine can round-trip
token streams losslessly.

A :class:`Token` is a named tuple: immutable, hashable, picklable and
cheap to build, which matters because the lexer builds one per token of
every text it sees.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    """Lexical category of a token."""

    ID = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OP = "operator"
    SYSTEM_ID = "system identifier"   # $display, $time, ...
    EOF = "end of file"


# Module-level aliases: fetching an enum member through its class costs
# more than the comparison it feeds.
_KEYWORD, _OP, _EOF = TokenKind.KEYWORD, TokenKind.OP, TokenKind.EOF

#: Verilog-2001 keywords recognised by the parser.  This is the subset that
#: covers synthesisable RTL plus the testbench constructs our simulator runs.
KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout",
    "wire", "reg", "integer", "real", "time", "genvar",
    "parameter", "localparam", "defparam",
    "assign", "always", "initial",
    "begin", "end", "if", "else", "case", "casez", "casex", "endcase",
    "default", "for", "while", "repeat", "forever", "wait", "disable",
    "posedge", "negedge", "or", "and", "not", "xor", "nand", "nor", "xnor",
    "buf", "function", "endfunction", "task", "endtask", "generate",
    "endgenerate", "signed", "unsigned", "fork", "join",
    "supply0", "supply1", "tri",
})

#: Multi-character operators, longest first so the lexer can use greedy match.
MULTI_CHAR_OPS = (
    "<<<", ">>>", "===", "!==", "**",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "+:", "-:", "->", "=>",
)

#: Single-character operators / punctuation.
SINGLE_CHAR_OPS = "+-*/%&|^~!<>=?:;,.#@()[]{}"


class Token(NamedTuple):
    """A single lexical token with its source position (1-based)."""

    kind: TokenKind
    value: str
    line: int
    col: int

    def is_op(self, text: str) -> bool:
        return self.kind is _OP and self.value == text

    def is_kw(self, word: str) -> bool:
        return self.kind is _KEYWORD and self.value == word

    def describe(self) -> str:
        """Human-readable rendering used in syntax-error messages."""
        if self.kind is _EOF:
            return "$end"
        return f"'{self.value}'"
