"""Batched autoregressive decoding with per-sequence KV caches.

The naive :meth:`TinyTransformerLM.generate` recomputes the full prompt
window for every emitted token (``O(T^2 d + T d^2)`` per step, batch 1).
:func:`sample_tokens` produces **token-identical** output for a whole
batch of prompts while doing ``O(T d + d^2)`` work per step: each
sequence's per-layer attention keys/values are computed once and cached,
and each step projects only the newly appended token, attending over the
cached prefix.

Three regimes per sequence, all served by the one inference forward
:func:`repro.llm.tiny_transformer.forward`:

* **prefill** — the prompt is run once as a right-padded batch with
  ``cache=`` (right padding is exact under a causal mask: a real
  position never attends a pad), filling the cache and yielding the
  first sampled token;
* **step** — while ``len(out) <= max_len`` positions are stable, so
  each row's newest token is run at its own ``positions`` entry with
  ``cache=``, stored, and attends over the row's cached prefix;
* **slide** — once the window ``out[-max_len:]`` starts sliding, every
  position embedding shifts and the cache is invalid; such rows
  recompute their window each step with ``last_only`` and no cache,
  exactly the call ``generate()`` makes.

Equivalence contract — *token* identity, not bit identity.  Decode and
``generate()`` share the forward, the attention softmax and the sampler
(:func:`repro.llm.tiny_transformer.pick`), so the arithmetic is the same
code; BLAS kernel selection still varies with the GEMM's shape, so
float bits can differ in the last ulp at larger ``d_model``.  Emitted
token ids match ``generate()`` (greedy and temperature sampling, same
per-sequence ``np.random.default_rng(seed)`` stream), which is what
``tests/test_infer_decode.py`` pins, fixed and property-based.
``pick`` draws by the inverse CDF that ``Generator.choice(V, p=probs)``
runs, so it returns choice's ids from the same stream, draw for draw
(``tests/test_llm_models.py`` pins that too).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..llm.tiny_transformer import TinyTransformerLM, forward, pick

__all__ = ["forward_logits", "sample_tokens"]


def forward_logits(model: TinyTransformerLM, ids: np.ndarray) -> np.ndarray:
    """(B, T) ids → (B, T, V) logits, without mutating module state.

    The full-width :func:`repro.llm.tiny_transformer.forward`: same
    arithmetic as ``TinyTransformerLM.forward`` (LoRA adapters included
    when attached) but safe to call concurrently, since nothing is
    written to the model's backprop caches.
    """
    return forward(model, ids)


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
        token = pick(logits, temps[row], rngs[row])
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
        logits = forward(model, ids, cache=(caches, np.array(cached_rows)))
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
            tokens = np.array([[outs[b][-1]] for b in inc])
            positions = np.array([[len(outs[b]) - 1] for b in inc])
            logits = forward(model, tokens, positions=positions,
                             cache=(caches, np.array(inc)), last_only=True)
            for i, b in enumerate(inc):
                emit(b, logits[i])
        live_slide = [b for b in slide_rows if b not in finished]
        if live_slide:
            ids = np.array([outs[b][-max_len:] for b in live_slide])
            logits = forward(model, ids, last_only=True)
            for i, b in enumerate(live_slide):
                emit(b, logits[i])
    return outs
