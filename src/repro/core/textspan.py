"""Token-position utilities shared by the completion and mutation stages.

The mutation engine edits raw source text (so it can produce files that no
longer parse); it locates edit sites via lexer tokens and their byte spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..verilog import Token, TokenKind, tokenize


@dataclass(frozen=True)
class TokenSpan:
    """A token together with its byte span in the original text."""

    token: Token
    start: int
    end: int

    @property
    def text_len(self) -> int:
        return self.end - self.start


def token_spans(text: str) -> list[TokenSpan]:
    """Tokens with byte offsets (EOF excluded).

    Strings and escaped identifiers report the span of their *value* only,
    so callers that plan to splice text should avoid them as targets.
    """
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    spans = []
    for token in tokenize(text):
        if token.kind is TokenKind.EOF:
            break
        start = line_starts[token.line - 1] + token.col - 1
        spans.append(TokenSpan(token=token, start=start,
                               end=start + max(len(token.value), 1)))
    return spans


@dataclass(frozen=True)
class Edit:
    """Replace text[start:end] with ``replacement``."""

    start: int
    end: int
    replacement: str
    description: str = ""


def apply_edits(text: str, edits: list[Edit]) -> str:
    """Apply non-overlapping edits (sorted internally, right to left)."""
    ordered = sorted(edits, key=lambda e: e.start, reverse=True)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.end > prev.start:
            raise ValueError("overlapping edits")
    result = text
    for edit in ordered:
        result = result[:edit.start] + edit.replacement + result[edit.end:]
    return result
