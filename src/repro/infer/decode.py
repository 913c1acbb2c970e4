"""Batched autoregressive decoding with per-sequence KV caches.

The naive :meth:`TinyTransformerLM.generate` recomputes the full prompt
window for every emitted token (``O(T^2 d + T d^2)`` per step, batch 1).
:func:`sample_tokens` produces **token-identical** output for a whole
batch of prompts while doing ``O(T d + d^2)`` work per step: each
sequence's per-layer attention keys/values are computed once and cached,
and each step projects only the newly appended token, attending over the
cached prefix.

Equivalence contract — *token* identity, not bit identity.  Every
formula here mirrors the training forward expression-for-expression
(via the side-effect-free ``apply`` helpers on ``Linear``/``LayerNorm``),
so the arithmetic is mathematically exact; BLAS kernel selection still
varies with the GEMM's row count, so float bits can differ in the last
ulp at larger ``d_model``.  Emitted token ids match ``generate()``
(greedy and temperature sampling, same per-sequence
``np.random.default_rng(seed)`` stream), which is what
``tests/test_infer_decode.py`` pins, fixed and property-based.

Three regimes per sequence:

* **prefill** — the prompt is run once as a right-padded batch (right
  padding is exact under a causal mask: a real position never attends a
  pad), filling the cache and yielding the first sampled token;
* **incremental** — while ``len(out) <= max_len`` positions are stable,
  so one new token per step is projected and appended to the cache;
* **slide** — once the window ``out[-max_len:]`` starts sliding, every
  position embedding shifts and the cache is invalid; such rows
  recompute their window each step with a last-position-only
  :func:`repro.llm.tiny_transformer.forward` (keys/values for the whole
  window, everything else for the last position).  ``generate()`` calls
  the very same function, which keeps the two token-identical (the
  last-position logits can differ from the full-width forward's last
  row in the last ulp).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..llm.tiny_transformer import TinyTransformerLM, forward

__all__ = ["forward_logits", "sample_tokens"]


# -- side-effect-free forward and incremental step ------------------------


def forward_logits(model: TinyTransformerLM, ids: np.ndarray) -> np.ndarray:
    """(B, T) ids → (B, T, V) logits, without mutating module state.

    The full-width :func:`repro.llm.tiny_transformer.forward`: same
    arithmetic as ``TinyTransformerLM.forward`` (LoRA adapters included
    when attached) but safe to call concurrently, since nothing is
    written to the model's backprop caches.
    """
    if ids.shape[1] > model.config.max_len:
        raise ValueError("sequence longer than max_len")
    return forward(model, ids)


def _step(model: TinyTransformerLM, tokens: np.ndarray,
          positions: np.ndarray, lengths: np.ndarray, rows: np.ndarray,
          caches: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """One incremental decode step for ``rows``: project the newly
    appended token (at ``positions``), extend the caches, attend over
    the cached prefix.  Returns (len(rows), V) logits.

    Padded cache columns (``>= lengths``) are masked to ``-1e9`` like
    the training mask; after the shared max-subtraction they exp to an
    exact float 0.0, so they contribute nothing to ``probs @ V``.
    """
    x = model.tok_emb.value[tokens][:, None, :] \
        + model.pos_emb.value[positions][:, None, :]
    width = int(lengths.max())
    pad = np.arange(width)[None, None, None, :] \
        >= lengths[:, None, None, None]
    for layer, block in enumerate(model.blocks):
        attn = block.attn
        h = block.ln1.apply(x)
        q = attn._split(attn.q_proj.apply(h))
        k = attn._split(attn.k_proj.apply(h))
        v = attn._split(attn.v_proj.apply(h))
        cache_k, cache_v = caches[layer]
        cache_k[rows, :, positions, :] = k[:, :, 0, :]
        cache_v[rows, :, positions, :] = v[:, :, 0, :]
        keys = cache_k[rows][:, :, :width, :]
        values = cache_v[rows][:, :, :width, :]
        scale = 1.0 / np.sqrt(attn.d_head)
        scores = q @ keys.transpose(0, 1, 3, 2) * scale
        scores = np.where(pad, -1e9, scores)
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        x = x + attn.out_proj.apply(attn._merge(probs @ values))
        hidden = block.mlp.fc1.apply(block.ln2.apply(x))
        x = x + block.mlp.fc2.apply(np.maximum(hidden, 0.0))
    x = model.ln_final.apply(x)
    return model.head.apply(x)[:, 0, :]


# -- sampling -------------------------------------------------------------


def _pick(logits: np.ndarray, temperature: float,
          rng: np.random.Generator) -> int:
    """Mirror of ``generate()``'s sampling lines, one token."""
    if temperature <= 0:
        return int(logits.argmax())
    scaled = logits / temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def _per_row(value, batch: int, name: str) -> list:
    if isinstance(value, (list, tuple)):
        if len(value) != batch:
            raise ValueError(f"{name} must have one entry per prompt")
        return list(value)
    return [value] * batch


def sample_tokens(model: TinyTransformerLM,
                  prompts: Sequence[Sequence[int]],
                  max_tokens: int = 16,
                  temperature: float | Sequence[float] = 0.0,
                  seeds: int | Sequence[int] = 0,
                  stop_token: int | None = None) -> list[list[int]]:
    """Batched KV-cache decoding, token-identical to the naive path.

    Returns one full token list (prompt + completions) per prompt,
    equal to ``[model.generate(p, max_tokens, temperature_i, seed_i)
    for ...]`` — each row gets its own ``np.random.default_rng(seed_i)``
    stream, consumed exactly like ``generate()`` (one draw per step,
    only when its temperature is positive).  ``temperature`` and
    ``seeds`` may be scalars or per-prompt sequences.

    With ``stop_token`` set, a row stops extending once it emits that
    token; its output equals the naive output truncated just after the
    first stop (suffixes never influence earlier tokens).
    """
    batch = len(prompts)
    if batch == 0:
        return []
    if any(len(p) == 0 for p in prompts):
        raise ValueError("prompts must be non-empty")
    temps = _per_row(temperature, batch, "temperature")
    seed_list = _per_row(seeds, batch, "seeds")
    rngs = [np.random.default_rng(s) for s in seed_list]
    outs = [list(map(int, p)) for p in prompts]
    if max_tokens <= 0:
        return outs
    max_len = model.config.max_len
    config = model.config
    d_head = config.d_model // config.n_heads
    caches = [(np.zeros((batch, config.n_heads, max_len, d_head)),
               np.zeros((batch, config.n_heads, max_len, d_head)))
              for _ in range(config.n_layers)]

    cached_rows = [b for b in range(batch) if len(outs[b]) <= max_len]
    slide_rows = [b for b in range(batch) if len(outs[b]) > max_len]
    finished: set[int] = set()

    def emit(row: int, logits: np.ndarray) -> None:
        token = _pick(logits, temps[row], rngs[row])
        outs[row].append(token)
        if stop_token is not None and token == stop_token:
            finished.add(row)

    # Step 0: prefill the cache rows (one right-padded batch), naive
    # window forward for rows whose prompt already overflows max_len.
    if cached_rows:
        lengths = [len(outs[b]) for b in cached_rows]
        width = max(lengths)
        ids = np.zeros((len(cached_rows), width), dtype=np.int64)
        for i, b in enumerate(cached_rows):
            ids[i, :lengths[i]] = outs[b]
        logits, layer_kv = forward(model, ids, return_kv=True)
        for layer, (k, v) in enumerate(layer_kv):
            caches[layer][0][cached_rows, :, :width, :] = k
            caches[layer][1][cached_rows, :, :width, :] = v
        for i, b in enumerate(cached_rows):
            emit(b, logits[i, lengths[i] - 1])
    if slide_rows:
        ids = np.array([outs[b][-max_len:] for b in slide_rows])
        logits = forward(model, ids, last_only=True)
        for i, b in enumerate(slide_rows):
            emit(b, logits[i])

    for _ in range(max_tokens - 1):
        if len(finished) == batch:
            break
        # Rows whose window just started sliding leave the cache pool.
        slid = [b for b in cached_rows if len(outs[b]) > max_len]
        cached_rows = [b for b in cached_rows if len(outs[b]) <= max_len]
        slide_rows += slid
        inc = [b for b in cached_rows if b not in finished]
        if inc:
            rows = np.array(inc)
            lengths = np.array([len(outs[b]) for b in inc])
            tokens = np.array([outs[b][-1] for b in inc])
            logits = _step(model, tokens, lengths - 1, lengths, rows,
                           caches)
            for i, b in enumerate(inc):
                emit(b, logits[i])
        live_slide = [b for b in slide_rows if b not in finished]
        if live_slide:
            ids = np.array([outs[b][-max_len:] for b in live_slide])
            logits = forward(model, ids, last_only=True)
            for i, b in enumerate(live_slide):
                emit(b, logits[i])
    return outs
