"""Token-identity of the batched KV-cache decoder vs naive generate().

The contract pinned here is the one ``repro.infer`` is built on:
:func:`repro.infer.sample_tokens` emits exactly the token ids of
``TinyTransformerLM.generate`` for every row of a batch — across prompt
lengths (including windows that overflow ``max_len`` and slide), batch
sizes, temperatures (same per-sequence rng streams), and LoRA-attached
or LoRA-merged weights.  Bit-level float identity is *not* claimed (BLAS
picks different GEMM kernels for different row counts); token identity
is what the serving and eval layers rely on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.infer import forward_logits, sample_tokens
from repro.llm import attach_lora, merge_lora
from repro.llm.tiny_transformer import (TinyTransformerLM,
                                        TransformerConfig, forward)

_SETTINGS = dict(deadline=None, derandomize=True,
                 suppress_health_check=(HealthCheck.too_slow,))


def _model(vocab=32, d_model=16, n_heads=2, n_layers=2, d_ff=32,
           max_len=24, seed=0):
    return TinyTransformerLM(TransformerConfig(
        vocab_size=vocab, d_model=d_model, n_heads=n_heads,
        n_layers=n_layers, d_ff=d_ff, max_len=max_len, seed=seed))


def _prompts(rng, vocab, count, low=1, high=12):
    return [list(rng.integers(0, vocab,
                              size=int(rng.integers(low, high + 1))))
            for _ in range(count)]


def _naive(model, prompts, max_tokens, temps, seeds):
    return [model.generate(p, max_tokens=max_tokens,
                           temperature=temps[i], seed=seeds[i])
            for i, p in enumerate(prompts)]


class TestFixedEquivalence:
    def test_greedy_batch_matches_naive_at_production_width(self):
        model = _model(vocab=96, d_model=64, n_heads=4, d_ff=128,
                       max_len=48, seed=3)
        rng = np.random.default_rng(0)
        prompts = _prompts(rng, 96, 6, low=1, high=20)
        got = sample_tokens(model, prompts, max_tokens=24)
        want = _naive(model, prompts, 24, [0.0] * 6, [0] * 6)
        assert got == want

    def test_temperature_streams_match_per_row(self):
        model = _model(seed=1)
        rng = np.random.default_rng(1)
        prompts = _prompts(rng, 32, 5)
        temps = [0.0, 0.7, 1.3, 0.7, 2.0]
        seeds = [11, 22, 33, 44, 55]
        got = sample_tokens(model, prompts, max_tokens=12,
                            temperature=temps, seeds=seeds)
        assert got == _naive(model, prompts, 12, temps, seeds)

    def test_window_slide_matches_naive(self):
        # prompt + max_tokens far beyond max_len: rows must leave the
        # cache and recompute their sliding window, like generate().
        model = _model(max_len=12, seed=2)
        prompts = [[1, 2, 3], list(range(10)), list(range(14))]
        got = sample_tokens(model, prompts, max_tokens=20,
                            temperature=[0.0, 0.9, 0.0],
                            seeds=[0, 7, 0])
        want = _naive(model, prompts, 20, [0.0, 0.9, 0.0], [0, 7, 0])
        assert got == want

    def test_prompt_longer_than_max_len_starts_sliding(self):
        model = _model(max_len=8, seed=4)
        prompts = [list(range(20)) , [5, 6]]
        got = sample_tokens(model, prompts, max_tokens=10)
        assert got == _naive(model, prompts, 10, [0.0, 0.0], [0, 0])

    def test_lora_attached_and_merged(self):
        base = _model(seed=5)
        attach_lora(base, rank=2, alpha=4.0, seed=9)
        # Give B a nonzero value so the adapter actually changes output.
        for linear in base.attention_linears():
            linear.lora.B.value[:] = np.random.default_rng(13).normal(
                0, 0.2, linear.lora.B.value.shape)
        prompts = [[1, 2, 3, 4], [7], [9, 8, 7, 6, 5]]
        with_adapter = sample_tokens(base, prompts, max_tokens=10)
        assert with_adapter == _naive(base, prompts, 10,
                                      [0.0] * 3, [0] * 3)
        merge_lora(base)
        merged = sample_tokens(base, prompts, max_tokens=10)
        assert merged == _naive(base, prompts, 10, [0.0] * 3, [0] * 3)
        assert merged == with_adapter    # merge is behaviour-preserving

    def test_stop_token_truncates_at_first_occurrence(self):
        model = _model(seed=6)
        prompts = [[3, 1, 4], [2, 7]]
        full = sample_tokens(model, prompts, max_tokens=16)
        stop = int(full[0][len(prompts[0])])     # force an early stop
        stopped = sample_tokens(model, prompts, max_tokens=16,
                                stop_token=stop)
        for row, (want, got) in enumerate(zip(full, stopped)):
            if stop in want[len(prompts[row]):]:
                cut = want.index(stop, len(prompts[row])) + 1
                assert got == want[:cut]
            else:
                assert got == want

    def test_forward_logits_matches_training_forward(self):
        model = _model(seed=7)
        ids = np.array([[1, 2, 3, 4, 5], [9, 8, 7, 6, 5]])
        np.testing.assert_array_equal(forward_logits(model, ids),
                                      model.forward(ids))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_last_only_forward_matches_full_last_row(self, n_layers):
        model = _model(vocab=48, d_model=32, n_heads=4, n_layers=n_layers,
                       d_ff=64, max_len=24, seed=8)
        attach_lora(model, rank=2, alpha=4.0, seed=3)
        for linear in model.attention_linears():
            linear.lora.B.value[:] = np.random.default_rng(5).normal(
                0, 0.2, linear.lora.B.value.shape)
        ids = np.random.default_rng(n_layers).integers(0, 48, (3, 24))
        full = forward(model, ids)
        last = forward(model, ids, last_only=True)
        assert last.shape == (3, 48)
        np.testing.assert_allclose(last, full[:, -1], rtol=1e-12,
                                   atol=1e-12)
        # The cache path: prefill right-padded rows of different
        # lengths, then step each row at its own position; every row of
        # logits equals the full-window forward's row at that position.
        lengths = np.array([5, 11, 8])
        prefill = np.where(np.arange(11) < lengths[:, None], ids[:, :11], 0)
        caches = [(np.zeros((3, 4, 24, 8)), np.zeros((3, 4, 24, 8)))
                  for _ in range(n_layers)]
        rows = np.arange(3)
        logits = forward(model, prefill, cache=(caches, rows))
        for row, length in enumerate(lengths):
            np.testing.assert_allclose(logits[row, :length],
                                       full[row, :length], rtol=1e-12,
                                       atol=1e-12)
        for step in range(6):
            positions = lengths + step
            # The last step leaves row 1 out: rows pick the cache rows.
            live = rows if step < 5 else np.array([0, 2])
            logits = forward(model, ids[live, positions[live]][:, None],
                             positions=positions[live][:, None],
                             cache=(caches, live), last_only=True)
            np.testing.assert_allclose(logits, full[live, positions[live]],
                                       rtol=1e-12, atol=1e-12)

    def test_empty_prompt_rejected(self):
        model = _model()
        with pytest.raises(ValueError, match="non-empty"):
            sample_tokens(model, [[1, 2], []], max_tokens=4)


@settings(max_examples=25, **_SETTINGS)
@given(data=st.data())
def test_kv_cache_decode_token_identical_property(data):
    vocab = data.draw(st.integers(8, 40), label="vocab")
    d_model = data.draw(st.sampled_from([8, 16]), label="d_model")
    n_layers = data.draw(st.integers(1, 2), label="n_layers")
    max_len = data.draw(st.integers(6, 20), label="max_len")
    model_seed = data.draw(st.integers(0, 5), label="model_seed")
    model = _model(vocab=vocab, d_model=d_model, n_heads=2,
                   n_layers=n_layers, d_ff=2 * d_model, max_len=max_len,
                   seed=model_seed)
    if data.draw(st.booleans(), label="lora"):
        attach_lora(model, rank=2, alpha=4.0, seed=model_seed + 1)
        noise = np.random.default_rng(model_seed + 2)
        for linear in model.attention_linears():
            linear.lora.B.value[:] = noise.normal(
                0, 0.3, linear.lora.B.value.shape)
        if data.draw(st.booleans(), label="merge"):
            merge_lora(model)
    batch = data.draw(st.integers(1, 4), label="batch")
    prompts = [data.draw(st.lists(st.integers(0, vocab - 1), min_size=1,
                                  max_size=max_len + 4),
                         label=f"prompt-{i}")
               for i in range(batch)]
    temps = [data.draw(st.sampled_from([0.0, 0.7, 1.3]),
                       label=f"temp-{i}") for i in range(batch)]
    seeds = [data.draw(st.integers(0, 99), label=f"seed-{i}")
             for i in range(batch)]
    max_tokens = data.draw(st.integers(1, 12), label="max_tokens")
    got = sample_tokens(model, prompts, max_tokens=max_tokens,
                        temperature=temps, seeds=seeds)
    assert got == _naive(model, prompts, max_tokens, temps, seeds)
