"""Tests for the mutation engine and repair-pair generation (Sec. 3.2)."""

import hashlib
import json
import pathlib

import pytest

from repro.checker import check_source
from repro.core import (MUTATION_RULES, Mutator, Task,
                        feedback_repair_records, make_broken_variant,
                        mutate, repair_records)
from repro.core.textspan import token_spans

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: sha256 over 200 mutations of the golden designs (see
#: ``test_mutation_stream_is_pinned``).  The augmentation dataset digest
#: and the Table 3 repair benchmark both follow this stream.
MUTATION_STREAM_SHA256 = \
    "8cdbe7cd284524cd993f73cca4d1f2cd0a404563cb11a50aef0760475866b89d"

COUNTER = """module counter (clk, rst, en, count);
  input clk, rst, en;
  output reg [1:0] count;
  always @(posedge clk)
    if (rst) count <= 2'd0;
    else if (en) count <= count + 2'd1;
endmodule
"""


class TestMutationRules:
    def test_all_five_paper_rules_registered(self):
        assert MUTATION_RULES == ("word_missing", "type_error",
                                  "width_error", "additional_word",
                                  "logic_error")

    def test_word_missing_removes_token(self):
        result = mutate(COUNTER, seed=1, count=1, rule="word_missing")
        assert result.changed
        assert len(result.mutated) < len(COUNTER)

    def test_type_error_flips_reg(self):
        result = mutate(COUNTER, seed=2, count=1, rule="type_error")
        assert result.changed
        assert "output wire [1:0] count" in result.mutated or \
            "reg" not in result.mutated.split("always")[0]

    def test_width_error_changes_bound(self):
        result = mutate(COUNTER, seed=3, count=1, rule="width_error")
        assert result.changed
        assert result.applied[0].rule == "width_error"
        assert "[1:0]" not in result.mutated or "2'd" in result.mutated

    def test_additional_word_inserts(self):
        result = mutate(COUNTER, seed=4, count=1, rule="additional_word")
        assert result.changed
        assert len(result.mutated) > len(COUNTER)

    def test_logic_error_removes_if_condition(self):
        result = mutate(COUNTER, seed=5, count=1, rule="logic_error")
        assert result.changed
        assert result.mutated.count("if") < COUNTER.count("if")

    def test_mutation_cap_is_five(self):
        mutator = Mutator(seed=0, max_mutations=50)
        assert mutator.max_mutations == 5
        result = mutator.mutate(COUNTER, count=50)
        assert len(result.applied) <= 5

    def test_deterministic_under_seed(self):
        first = mutate(COUNTER, seed=42)
        second = mutate(COUNTER, seed=42)
        assert first.mutated == second.mutated

    def test_different_seeds_differ(self):
        outputs = {mutate(COUNTER, seed=s).mutated for s in range(8)}
        assert len(outputs) > 1

    def test_mutation_stream_is_pinned(self):
        designs = [path.read_text(encoding="utf-8")
                   for path in sorted(GOLDEN_DIR.glob("*.v"))]
        rules = (None,) + MUTATION_RULES
        digest = hashlib.sha256()
        for i in range(200):
            count = None if i % 7 == 0 else 1 + i % 5
            result = Mutator(seed=i).mutate(designs[i % len(designs)],
                                            count=count,
                                            rule=rules[i % len(rules)])
            digest.update(json.dumps(
                [result.mutated,
                 [[a.rule, a.line, a.description]
                  for a in result.applied]]).encode())
        assert digest.hexdigest() == MUTATION_STREAM_SHA256

    def test_token_spans_is_an_immutable_tuple(self):
        spans = token_spans(COUNTER)
        assert isinstance(spans, tuple)
        assert spans is token_spans(COUNTER)
        assert COUNTER[spans[0].start:spans[0].end] == "module"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Mutator(rules=("not_a_rule",))

    def test_mutations_usually_break_the_checker(self):
        broken = 0
        for seed in range(20):
            result = mutate(COUNTER, seed=seed, count=2)
            if not result.changed:
                continue
            if not check_source(result.mutated).ok:
                broken += 1
        assert broken >= 10  # most mutants must be rejected by the checker


class TestRepairRecords:
    def test_repair_pair_output_is_original(self):
        records = list(repair_records(COUNTER, seed=0, variants=3))
        assert records
        for record in records:
            assert record.task is Task.MASK_COMPLETION
            assert record.output == COUNTER.strip()
            assert record.input != record.output

    def test_feedback_pairs_embed_yosys_line(self):
        records = list(feedback_repair_records(COUNTER, seed=1, variants=8))
        assert records
        for record in records:
            assert record.task is Task.DEBUG
            feedback = record.input.split(",\n", 1)[0]
            assert "ERROR" in feedback
            assert record.output == COUNTER.strip()

    def test_feedback_is_real_checker_output(self):
        records = list(feedback_repair_records(COUNTER, seed=2, variants=8))
        for record in records:
            feedback, wrong = record.input.split(",\n", 1)
            recomputed = check_source(wrong, "./design.v").first_error()
            assert recomputed == feedback

    def test_make_broken_variant(self):
        result = make_broken_variant(COUNTER, seed=9, count=2)
        assert result.original == COUNTER
        assert result.changed
