"""Rule-based Verilog error injection (paper Sec. 3.2.1).

Implements the paper's five targeted-error rules:

* **word missing** — remove keywords, semicolons or operands;
* **type error** — flip ``wire`` ↔ ``reg``;
* **width error** — add/subtract 1 from a range bound;
* **additional word** — insert a nonsense word;
* **logic error** — remove the condition of an ``if`` statement.

Mutations are applied to the raw source text (located via lexer tokens) so
the result can be arbitrarily broken; the paper caps the number of edits
per module at five, which we honour via ``max_mutations``.

One :meth:`Mutator.mutate` call may pick the same rule on several
attempts.  The candidate lists of ``word_missing``, ``type_error`` and
``logic_error`` depend on the text alone, so each is built once per call.
``width_error`` and ``additional_word`` draw from the mutator's RNG while
they build candidates, so they are rebuilt on every pick: building them
once would shift the seeded stream, and with it every mutated file the
augmentation dataset and the Table 3 repair benchmark are pinned to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..verilog import TokenKind
from .textspan import Edit, TokenSpan, apply_edits, token_spans

# Fetching an enum member through its class is a slow attribute lookup,
# and the candidate scans test the kind of every token.
_ID, _KEYWORD, _NUMBER, _STRING, _OP = (
    TokenKind.ID, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.STRING,
    TokenKind.OP)

#: Rule names in paper order.
MUTATION_RULES = (
    "word_missing",
    "type_error",
    "width_error",
    "additional_word",
    "logic_error",
)

_REMOVABLE_KEYWORDS = frozenset({
    "module", "endmodule", "begin", "end", "if", "else", "posedge",
    "negedge", "assign", "wire", "reg", "input", "output", "case",
    "endcase", "always", "initial",
})

#: Rules whose candidate builders draw from ``Mutator.rng``.
_RNG_DRAWING_RULES = frozenset({"width_error", "additional_word"})

_NONSENSE_WORDS = ("foo", "bar_x", "qux", "tmp_wire", "blah", "zzz",
                   "misplaced", "stray")


@dataclass(frozen=True)
class AppliedMutation:
    """Provenance of one injected error."""

    rule: str
    line: int
    description: str


@dataclass
class MutationResult:
    """A mutated file plus the list of injected errors."""

    original: str
    mutated: str
    applied: list[AppliedMutation] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied) and self.mutated != self.original


class Mutator:
    """Seeded error injector over Verilog source text."""

    def __init__(self, seed: int = 0,
                 rules: tuple[str, ...] = MUTATION_RULES,
                 max_mutations: int = 5):
        unknown = set(rules) - set(MUTATION_RULES)
        if unknown:
            raise ValueError(f"unknown mutation rules: {sorted(unknown)}")
        if max_mutations < 1:
            raise ValueError("max_mutations must be >= 1")
        self.rules = rules
        self.max_mutations = min(max_mutations, 5)  # paper's cap
        self.rng = random.Random(seed)

    # -- candidate collection per rule -----------------------------------

    def _candidates_word_missing(self, spans: tuple[TokenSpan, ...],
                                 text: str) -> list[Edit]:
        out = []
        for span in spans:
            token = span.token
            if token.kind is _KEYWORD and \
                    token.value in _REMOVABLE_KEYWORDS:
                out.append(Edit(span.start, span.end, "",
                                f"removed keyword '{token.value}'"))
            elif token.is_op(";"):
                out.append(Edit(span.start, span.end, "",
                                "removed semicolon"))
            elif token.kind is _ID and len(token.value) > 1:
                out.append(Edit(span.start, span.end, "",
                                f"removed operand '{token.value}'"))
        return out

    def _candidates_type_error(self, spans: tuple[TokenSpan, ...],
                               text: str) -> list[Edit]:
        out = []
        for span in spans:
            if span.token.is_kw("wire"):
                out.append(Edit(span.start, span.end, "reg",
                                "changed wire to reg"))
            elif span.token.is_kw("reg"):
                out.append(Edit(span.start, span.end, "wire",
                                "changed reg to wire"))
        return out

    def _candidates_width_error(self, spans: tuple[TokenSpan, ...],
                                text: str) -> list[Edit]:
        out = []
        for pos in range(1, len(spans) - 1):
            span = spans[pos]
            if span.token.kind is not _NUMBER:
                continue
            prev_tok = spans[pos - 1].token
            next_tok = spans[pos + 1].token
            in_range = (prev_tok.is_op("[") and next_tok.is_op(":")) or \
                       (prev_tok.is_op(":") and next_tok.is_op("]"))
            if not in_range or "'" in span.token.value:
                continue
            try:
                value = int(span.token.value.replace("_", ""))
            except ValueError:
                continue
            delta = 1 if self.rng.random() < 0.5 or value == 0 else -1
            out.append(Edit(span.start, span.end, str(value + delta),
                            f"changed width bound {value} to "
                            f"{value + delta}"))
        return out

    def _candidates_additional_word(self, spans: tuple[TokenSpan, ...],
                                    text: str) -> list[Edit]:
        out = []
        choice = self.rng.choice
        for span in spans:
            if span.token.kind is _STRING:
                continue
            word = choice(_NONSENSE_WORDS)
            out.append(Edit(span.end, span.end, f" {word}",
                            f"inserted nonsense word '{word}'"))
        return out

    def _candidates_logic_error(self, spans: tuple[TokenSpan, ...],
                                text: str) -> list[Edit]:
        """Remove an ``if (cond)`` header, leaving the branch unguarded."""
        out = []
        for pos, span in enumerate(spans):
            if not span.token.is_kw("if"):
                continue
            if pos + 1 >= len(spans) or not spans[pos + 1].token.is_op("("):
                continue
            depth = 0
            end_span = None
            for scan in range(pos + 1, len(spans)):
                value = spans[scan].token.value
                if spans[scan].token.kind is _OP:
                    if value == "(":
                        depth += 1
                    elif value == ")":
                        depth -= 1
                        if depth == 0:
                            end_span = spans[scan]
                            break
            if end_span is not None:
                out.append(Edit(span.start, end_span.end, "",
                                "removed if condition"))
        return out

    # -- public API ------------------------------------------------------

    def candidates(self, text: str,
                   rule: str) -> list[Edit]:
        spans = token_spans(text)
        return getattr(self, f"_candidates_{rule}")(spans, text)

    def mutate(self, text: str, count: int | None = None,
               rule: str | None = None) -> MutationResult:
        """Inject up to ``count`` errors (default: 1..max_mutations).

        ``rule`` restricts the injection to a single rule (used by the
        per-rule ablation bench); otherwise rules are drawn uniformly from
        the configured set.
        """
        if count is None:
            count = self.rng.randint(1, self.max_mutations)
        count = max(1, min(count, self.max_mutations))
        chosen: list[Edit] = []
        applied: list[AppliedMutation] = []
        rule_pool = [rule] if rule else list(self.rules)
        spans = token_spans(text)
        built: dict[str, list[Edit]] = {}
        attempts = 0
        while len(chosen) < count and attempts < count * 8:
            attempts += 1
            picked_rule = self.rng.choice(rule_pool)
            rule_candidates = built.get(picked_rule)
            if rule_candidates is None:
                rule_candidates = getattr(
                    self, f"_candidates_{picked_rule}")(spans, text)
                if picked_rule not in _RNG_DRAWING_RULES:
                    built[picked_rule] = rule_candidates
            candidates = rule_candidates
            if chosen:  # nothing chosen yet means nothing to overlap
                candidates = [c for c in rule_candidates
                              if not _overlaps(c, chosen)]
            if not candidates:
                continue
            edit = self.rng.choice(candidates)
            chosen.append(edit)
            line = text.count("\n", 0, edit.start) + 1
            applied.append(AppliedMutation(rule=picked_rule, line=line,
                                           description=edit.description))
        mutated = apply_edits(text, chosen) if chosen else text
        return MutationResult(original=text, mutated=mutated,
                              applied=applied)


def _overlaps(edit: Edit, existing: list[Edit]) -> bool:
    for other in existing:
        if edit.start == edit.end:
            # Insertion: touching another edit's boundary is ambiguous for
            # the right-to-left application order, so count it as overlap.
            if other.start <= edit.start <= other.end:
                return True
        elif other.start == other.end:
            if edit.start <= other.start <= edit.end:
                return True
        elif not (edit.end <= other.start or other.end <= edit.start):
            return True
    return False


def mutate(text: str, seed: int = 0, count: int | None = None,
           rule: str | None = None) -> MutationResult:
    """Convenience wrapper around :class:`Mutator`."""
    return Mutator(seed=seed).mutate(text, count=count, rule=rule)
