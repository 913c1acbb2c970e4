"""Tests for the real LMs: tokenizer, n-gram, transformer, LoRA."""

import numpy as np
import pytest

from repro.core import Dataset, Task, make_record
from repro.llm import (Adam, NGramModel, TinyTransformerLM, Tokenizer,
                       TransformerConfig, attach_lora, count_lora_params,
                       merge_lora, pretokenize, scaling_curve,
                       split_dataset, train_ngram)


def tiny_dataset(n=30):
    """Shared-vocabulary dataset: more data covers more of the val set."""
    dataset = Dataset()
    widths = (2, 4, 8, 16)
    gates = ("&", "|", "^")
    for i in range(n):
        width = widths[i % len(widths)]
        gate = gates[i % len(gates)]
        dataset.add(make_record(
            Task.NL_VERILOG,
            f"module gate has two {width} bit inputs and one output "
            f"using {gate}",
            f"module gate (input [{width - 1}:0] a, "
            f"input [{width - 1}:0] b, output [{width - 1}:0] y); "
            f"assign y = a {gate} b; endmodule"))
    return dataset


class TestTokenizer:
    def test_pretokenize_verilog(self):
        pieces = pretokenize("assign y = a & b;")
        assert pieces == ["assign", "y", "=", "a", "&", "b", ";"]

    def test_roundtrip_known_words(self):
        tok = Tokenizer.train(["assign y = a ;"])
        ids = tok.encode("assign y = a ;")
        assert tok.decode(ids) == "assign y = a ;"

    def test_unknown_word_char_backoff(self):
        tok = Tokenizer.train(["abc def"])
        ids = tok.encode("fed")  # unseen word, chars known
        assert tok.unk_id not in ids
        assert tok.decode(ids).replace(" ", "") == "fed"

    def test_special_ids_distinct(self):
        tok = Tokenizer.train(["x"])
        assert len({tok.pad_id, tok.unk_id, tok.bos_id, tok.eos_id}) == 4

    def test_vocab_size_limit(self):
        texts = [f"word{i}" for i in range(5000)]
        tok = Tokenizer.train(texts, vocab_size=300)
        assert len(tok) <= 300


class TestNGram:
    def test_learns_deterministic_sequence(self):
        model = NGramModel(order=3)
        seq = [1, 2, 3, 1, 2, 3, 1, 2, 3]
        model.fit([seq], vocab_size=5)
        assert model.prob([1, 2], 3) > model.prob([1, 2], 4)

    def test_loss_decreases_with_data(self):
        val = [[1, 2, 3, 4, 1, 2, 3, 4]]
        small = NGramModel(order=3).fit([[1, 2, 3, 4] * 2], vocab_size=6)
        large = NGramModel(order=3).fit([[1, 2, 3, 4] * 50], vocab_size=6)
        assert large.cross_entropy(val) <= small.cross_entropy(val)

    def test_perplexity_positive(self):
        model = NGramModel(order=2).fit([[1, 2, 1, 2]], vocab_size=3)
        assert model.perplexity([[1, 2, 1]]) >= 1.0

    def test_generation_follows_counts(self):
        model = NGramModel(order=2).fit([[5, 6] * 20], vocab_size=8)
        out = model.generate([5], max_tokens=3, seed=0)
        assert out[1] == 6

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            NGramModel(order=0)


class TestTransformer:
    @pytest.fixture(scope="class")
    def model(self):
        return TinyTransformerLM(TransformerConfig(
            vocab_size=32, d_model=16, n_heads=2, n_layers=1, d_ff=32,
            max_len=16, seed=0))

    def test_forward_shapes(self, model):
        logits = model.forward(np.array([[1, 2, 3]]))
        assert logits.shape == (1, 3, 32)

    def test_loss_decreases_when_overfitting(self):
        model = TinyTransformerLM(TransformerConfig(
            vocab_size=16, d_model=16, n_heads=2, n_layers=1, d_ff=32,
            max_len=8, seed=1))
        optimizer = Adam(model.params(), lr=1e-2)
        ids = np.array([[1, 2, 3, 4, 5]])
        targets = np.array([[2, 3, 4, 5, 6]])
        first = model.loss_and_backward(ids, targets)
        for _ in range(60):
            optimizer.zero_grad()
            loss = model.loss_and_backward(ids, targets)
            optimizer.step()
        assert loss < first * 0.5

    def test_gradient_check_numeric(self):
        """Numeric gradient check on a tiny model (the backprop is real)."""
        model = TinyTransformerLM(TransformerConfig(
            vocab_size=8, d_model=4, n_heads=1, n_layers=1, d_ff=8,
            max_len=4, seed=2))
        ids = np.array([[1, 2, 3]])
        targets = np.array([[2, 3, 4]])
        for p in model.params():
            p.zero_grad()
        model.loss_and_backward(ids, targets)
        param = model.blocks[0].mlp.fc1.weight
        analytic = param.grad[0, 0]
        eps = 1e-5
        param.value[0, 0] += eps
        plus = model.evaluate_loss(ids, targets)
        param.value[0, 0] -= 2 * eps
        minus = model.evaluate_loss(ids, targets)
        param.value[0, 0] += eps
        numeric = (plus - minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_padding_ignored_in_loss(self, model):
        ids = np.array([[1, 2, 0, 0]])
        targets = np.array([[2, 3, -1, -1]])
        loss_padded = model.evaluate_loss(ids, targets)
        loss_short = model.evaluate_loss(np.array([[1, 2]]),
                                         np.array([[2, 3]]))
        assert loss_padded == pytest.approx(loss_short, rel=1e-6)

    def test_generate_deterministic_greedy(self, model):
        out1 = model.generate([1, 2], max_tokens=4)
        out2 = model.generate([1, 2], max_tokens=4)
        assert out1 == out2

    def test_too_long_sequence_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 999), dtype=int))

    def test_heads_must_divide_model_width(self):
        with pytest.raises(ValueError, match="n_heads must divide d_model"):
            TinyTransformerLM(TransformerConfig(
                vocab_size=8, d_model=6, n_heads=4, n_layers=1, d_ff=8,
                max_len=4, seed=0))


class TestLoRA:
    def make_model(self):
        return TinyTransformerLM(TransformerConfig(
            vocab_size=16, d_model=8, n_heads=2, n_layers=1, d_ff=16,
            max_len=8, seed=3))

    def test_adapter_starts_as_identity(self):
        model = self.make_model()
        ids = np.array([[1, 2, 3]])
        before = model.forward(ids).copy()
        attach_lora(model, rank=2, seed=0)
        after = model.forward(ids)
        assert np.allclose(before, after)

    def test_freeze_base_trains_only_adapters(self):
        model = self.make_model()
        adapters = attach_lora(model, rank=2, seed=0, freeze_base=True)
        trainable = model.trainable_params()
        assert len(trainable) == 2 * len(adapters)
        assert count_lora_params(adapters) == \
            sum(p.value.size for p in trainable)

    def test_lora_training_reduces_loss(self):
        model = self.make_model()
        attach_lora(model, rank=4, alpha=8, seed=0)
        optimizer = Adam(model.params(), lr=5e-2)
        ids = np.array([[1, 2, 3, 4]])
        targets = np.array([[2, 3, 4, 5]])
        first = model.evaluate_loss(ids, targets)
        for _ in range(80):
            optimizer.zero_grad()
            model.loss_and_backward(ids, targets)
            optimizer.step()
        assert model.evaluate_loss(ids, targets) < first * 0.8

    def test_merge_preserves_function(self):
        model = self.make_model()
        attach_lora(model, rank=2, seed=1)
        # nudge adapters so the delta is nonzero
        for linear in model.attention_linears():
            linear.lora.B.value += 0.05
        ids = np.array([[1, 2, 3]])
        with_adapters = model.forward(ids).copy()
        merge_lora(model)
        merged = model.forward(ids)
        assert all(linear.lora is None
                   for linear in model.attention_linears())
        assert np.allclose(with_adapters, merged, atol=1e-8)


class TestTrainerAndScaling:
    def test_train_ngram_returns_finite_loss(self):
        train, val = split_dataset(tiny_dataset(), val_fraction=0.2)
        model, result, tok = train_ngram(train, val)
        assert result.final_loss > 0
        assert result.trained_tokens > 0

    def test_scaling_curve_loss_decreases(self):
        """Fig. 3 shape: more data → lower validation loss."""
        points = scaling_curve(tiny_dataset(60), [0.1, 0.4, 1.0], seed=0)
        tokens = [p[0] for p in points]
        losses = [p[1] for p in points]
        assert tokens == sorted(tokens)
        assert losses[-1] < losses[0]

    def test_split_deterministic(self):
        d = tiny_dataset(20)
        a1, b1 = split_dataset(d, seed=5)
        a2, b2 = split_dataset(d, seed=5)
        assert [r.input for r in a1] == [r.input for r in a2]
        assert len(b1) == len(b2)
