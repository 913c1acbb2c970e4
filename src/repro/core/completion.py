"""Multi-level Verilog completion augmentation (paper Sec. 3.1.1).

A module with *i* tokens and *j* statements yields ``1 + j + i`` completion
segments:

* **module level** (1): the module header predicts the body;
* **statement level** (*j*): code up to each ``;`` predicts the next
  statement;
* **token level** (*i*): each token prefix predicts the next token.

Because token-level augmentation is quadratic in text volume, callers can
cap the number of records per module; the paper's Table 2 itself reports
word-level data an order of magnitude larger than the rest.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..verilog import tokenize
from .records import Record, Task, make_record
from .textspan import token_spans


def module_level(text: str) -> Iterator[Record]:
    """Header → body prediction (1 record per module)."""
    header_end = next((span.end for span in token_spans(text)
                       if span.token.is_op(";")), None)
    if header_end is None:
        return
    yield make_record(Task.MODULE_COMPLETION,
                      text[:header_end].strip(),
                      text[header_end:].strip(),
                      level="module")


def statement_level(text: str,
                    max_records: int | None = None) -> Iterator[Record]:
    """Prefix-up-to-``;`` → next statement prediction (*j* records)."""
    semi_ends = [span.end for span in token_spans(text)
                 if span.token.is_op(";")]
    count = 0
    for prefix_end, next_end in zip(semi_ends, semi_ends[1:]):
        prefix = text[:prefix_end].strip()
        statement = text[prefix_end:next_end].strip()
        if not statement:
            continue
        yield make_record(Task.STATEMENT_COMPLETION, prefix, statement,
                          level="statement")
        count += 1
        if max_records is not None and count >= max_records:
            return


def token_level(text: str,
                max_records: int | None = None) -> Iterator[Record]:
    """Token prefix → next token prediction (*i* records)."""
    spans = token_spans(text)
    count = 0
    for prev, span in zip(spans, spans[1:]):
        prefix = text[:prev.end].strip()
        nxt = text[span.start:span.end]
        yield make_record(Task.WORD_COMPLETION, prefix, nxt, level="token")
        count += 1
        if max_records is not None and count >= max_records:
            return


def segment_count(text: str) -> int:
    """``1 + j + i`` segments per the paper's formula."""
    tokens = tokenize(text)
    token_count = len(tokens) - 1  # minus EOF
    statement_count = sum(1 for token in tokens if token.is_op(";"))
    return 1 + statement_count + token_count


def completion_records(text: str,
                       statement_cap: int | None = None,
                       token_cap: int | None = None) -> Iterator[Record]:
    """All three completion levels for one Verilog file."""
    yield from module_level(text)
    yield from statement_level(text, max_records=statement_cap)
    yield from token_level(text, max_records=token_cap)
