"""Token-position utilities shared by the completion and mutation stages.

The mutation engine edits raw source text (so it can produce files that no
longer parse); it locates edit sites via lexer tokens and their byte spans.
Augmentation and the repair benchmark mutate the same texts many times,
so :func:`token_spans` sits in front of a bounded memo keyed by the text,
like :func:`repro.verilog.tokenize`.  Lex errors are never memoised.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from ..verilog import Token, TokenKind, tokenize

#: Distinct texts kept by the span memo.  At this size the eval sweep
#: hits it 95% of the time, as an unbounded memo would; augmentation,
#: which mutates and splits each file up to 9 times in a row, hits it 89%.
MEMO_SIZE = 64


class TokenSpan(NamedTuple):
    """A token together with its byte span in the original text."""

    token: Token
    start: int
    end: int


@functools.lru_cache(maxsize=MEMO_SIZE)
def token_spans(text: str) -> tuple[TokenSpan, ...]:
    """Tokens with byte offsets (EOF excluded).

    Strings and escaped identifiers report the span of their *value* only,
    so callers that plan to splice text should avoid them as targets.
    """
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    spans = []
    eof = TokenKind.EOF
    for token in tokenize(text):
        if token.kind is eof:
            break
        start = line_starts[token.line - 1] + token.col - 1
        spans.append(TokenSpan(token, start,
                               start + max(len(token.value), 1)))
    return tuple(spans)


class Edit(NamedTuple):
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
