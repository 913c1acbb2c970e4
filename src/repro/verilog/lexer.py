"""Regex lexer for the Verilog-2001 subset.

Design notes
------------
* One compiled master regex, tried with ``pattern.match(text, pos)`` at
  each position: a named group per token class, and one ``skip`` group
  that swallows a whole run of whitespace, comments and compiler
  directives (`` `timescale``, `` `define`` …) in a single match.  The
  augmentation pipeline operates on the code itself.
* Line/col are tracked incrementally from the newlines inside each match;
  only trivia and string matches can contain any.
* Based numbers (``8'hFF``, ``'b10x1``) are lexed as a single NUMBER token
  containing the exact source text.  Numeric *interpretation* lives in
  :mod:`repro.sim.values`, keeping the lexer purely lexical.
* Positions are 1-based (line, column) to match yosys error messages.
* A :class:`~repro.verilog.tokens.Token` is a named tuple, built here
  through ``tuple.__new__`` directly: that skips the named tuple's
  Python-level ``__new__``, and token construction is most of the cost
  of a lex.
* The generate/repair/mutate loops lex the same texts many times, so
  :func:`tokenize` sits in front of a bounded, thread-safe memo keyed
  by the text.  Lex errors are never memoised.
"""

from __future__ import annotations

import functools
import re

from .errors import VerilogLexError
from .tokens import (KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS, Token,
                     TokenKind)

#: Distinct texts kept by the token memo.  At this size the eval sweep
#: hits it 31% of the time (34% unbounded) for about 6 MB; most repeated
#: texts stop earlier, at the span and corruption memos that call it.
MEMO_SIZE = 256

# A based literal's tail: quote, optional sign flag, base letter, optional
# space, then its digits.  The digits may be empty here;
# the lexer reports that as an error at the position where they belong.
_BASE = r"'[sS]?[bodhBODH][ \t]*(?P<{}>[0-9a-fA-FxXzZ?_]*)"

_MASTER = re.compile("|".join((
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/|`[^\n]*)+)",
    r"(?P<open_comment>/\*)",
    r"(?P<id>[A-Za-z_][A-Za-z0-9_$]*)",
    r"\\(?P<escaped>[^ \t\r\n]*)",
    r"(?P<system>\$[A-Za-z0-9_$]*)",
    r'"(?P<string>[^"\\]*(?:\\[\s\S][^"\\]*)*)"',
    r"(?P<number>[0-9][0-9_]*(?:\.[0-9][0-9_]*|[ \t]*"
    + _BASE.format("number_digits") + ")?)",
    r"(?P<based>" + _BASE.format("based_digits") + ")",
    "(?P<op>" + "|".join(map(re.escape, MULTI_CHAR_OPS))
    + "|[" + re.escape(SINGLE_CHAR_OPS) + "])",
)))

_ERRORS_AT_START = {'"': "unterminated string",
                    "'": "invalid based literal"}

_KINDS = {"op": TokenKind.OP, "number": TokenKind.NUMBER,
          "based": TokenKind.NUMBER, "string": TokenKind.STRING,
          "escaped": TokenKind.ID, "system": TokenKind.SYSTEM_ID}


def _lex(text: str) -> tuple[Token, ...]:
    """Tokenise ``text``; errors carry the default filename."""
    match = _MASTER.match
    new = tuple.__new__
    keyword, ident = TokenKind.KEYWORD, TokenKind.ID
    tokens: list[Token] = []
    append = tokens.append
    pos, line, line_start = 0, 1, 0
    end = len(text)
    while pos < end:
        m = match(text, pos)
        col = pos - line_start + 1
        if m is None:
            ch = text[pos]
            raise VerilogLexError(
                _ERRORS_AT_START.get(ch, f"unexpected character '{ch}'"),
                line, col)
        group = m.lastgroup
        value = m[group]
        if group == "id":
            append(new(Token, (keyword if value in KEYWORDS else ident,
                               value, line, col)))
        elif group == "open_comment":
            # Reported at the column where the text ends, as the original
            # character-cursor lexer did.
            raise VerilogLexError("unterminated block comment", line,
                                  end - text.rfind("\n"))
        elif group != "skip":
            if group == "number" or group == "based":
                digits = group + "_digits"
                if m[digits] == "":
                    raise VerilogLexError("based literal has no digits",
                                          line,
                                          m.start(digits) - line_start + 1)
            append(new(Token, (_KINDS[group], value, line, col)))
        if "\n" in value:  # only trivia and strings span lines
            line += value.count("\n")
            line_start = text.rfind("\n", pos, m.end()) + 1
        pos = m.end()
    append(Token(TokenKind.EOF, "", line, pos - line_start + 1))
    return tuple(tokens)


_lex_memo = functools.lru_cache(maxsize=MEMO_SIZE)(_lex)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Return the full token stream, terminated by an EOF token.

    >>> [t.value for t in tokenize("module m; endmodule")[:3]]
    ['module', 'm', ';']
    """
    try:
        return list(_lex_memo(text))
    except VerilogLexError as exc:
        raise VerilogLexError(exc.message, exc.line, exc.col,
                              filename) from None
