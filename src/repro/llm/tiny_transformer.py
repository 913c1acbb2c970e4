"""A small decoder-only transformer in pure numpy, with manual backprop.

This is the repo's stand-in for Llama-2: a *genuinely trainable* causal LM
that :class:`repro.train.TrainerService` finetunes on augmented data and
:mod:`repro.infer` decodes from.  (The Fig. 3 scaling law and the Fig. 7
ablation are defined on the faster n-gram model,
:func:`repro.llm.trainer.train_ngram`.)

Architecture: token + positional embeddings → N pre-LN blocks (causal
multi-head attention, ReLU MLP) → LN → output projection.  LoRA adapters
(:mod:`repro.llm.lora`) can be attached to the attention projections so
finetuning updates only low-rank factors, as the paper does with LoraNet.

Training runs the modules' ``forward``/``backward``, which cache their
inputs for backprop.  Inference runs the module-level :func:`forward`,
which caches nothing in the modules and serves ``generate()`` and all
three decode regimes of :mod:`repro.infer.decode` (prefill, KV-cache step
and sliding window).  Both paths share one copy of the arithmetic:
:meth:`Linear.apply` (LoRA delta included), :meth:`LayerNorm._normalize`
and :func:`attention_probs`; :func:`pick` is the one token sampler.

At this model's size (``d_model`` 16–32) a step costs numpy calls and
allocations, not FLOPs, so the hot paths keep both few while every
float bit stays what the textbook formulas give:

* LayerNorm takes the mean and variance as ``np.add.reduce(...) / dim``
  over the centred rows, which are the operations ``ndarray.mean`` and
  ``ndarray.var`` run, without their Python wrappers;
* the loss softmax runs in place over the logits (one (B·T, V) buffer
  per micro-batch), ``Linear.apply`` adds its bias in place and the
  training causal mask comes from :func:`causal_mask`'s per-length
  cache; a last-position inference query with default positions needs
  no mask at all;
* :class:`Adam` keeps every trainable param's grad, ``m`` and ``v`` as
  views of three flat buffers and steps with one vectorised update;
* :func:`pick` samples by inverse CDF with one ``rng.random()``, the
  algorithm ``Generator.choice(p=)`` runs, so ids and the rng stream
  match it draw for draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Param:
    """A tensor with gradient and Adam state."""

    value: np.ndarray
    grad: np.ndarray = None            # type: ignore[assignment]
    m: np.ndarray = None               # type: ignore[assignment]
    v: np.ndarray = None               # type: ignore[assignment]
    trainable: bool = True

    def __post_init__(self):
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Linear:
    """y = x W^T + b, with optional LoRA delta (see attach_lora)."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Param(rng.normal(0, scale, (d_out, d_in)))
        self.bias = Param(np.zeros(d_out))
        self.lora = None               # set by repro.llm.lora.attach_lora
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return self.apply(x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The arithmetic of :meth:`forward` without caching ``x`` —
        safe to call concurrently and mid-training."""
        y = x @ self.weight.value.T
        y += self.bias.value
        if self.lora is not None:
            y += (x @ self.lora.A.value.T) @ self.lora.B.value.T \
                * self.lora.scaling
        return y

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        x = self._x
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_y.reshape(-1, grad_y.shape[-1])
        if self.weight.trainable:
            self.weight.grad += flat_g.T @ flat_x
            self.bias.grad += flat_g.sum(axis=0)
        grad_x = grad_y @ self.weight.value
        if self.lora is not None:
            grad_x = grad_x + self.lora.backward(grad_y, x)
        return grad_x

    def params(self) -> list[Param]:
        out = [self.weight, self.bias]
        if self.lora is not None:
            out.extend(self.lora.params())
        return out


class LayerNorm:
    def __init__(self, dim: int):
        self.gamma = Param(np.ones(dim))
        self.beta = Param(np.zeros(dim))
        self.eps = 1e-5
        self._cache = None

    def _normalize(self, x: np.ndarray):
        """(output, xhat, std); statistics are row-local."""
        dim = x.shape[-1]
        centred = x - np.add.reduce(x, axis=-1, keepdims=True) / dim
        var = np.add.reduce(np.square(centred), axis=-1,
                            keepdims=True) / dim
        std = np.sqrt(var + self.eps)
        xhat = centred / std
        y = xhat * self.gamma.value
        y += self.beta.value
        return y, xhat, std

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, xhat, std = self._normalize(x)
        self._cache = (xhat, std)
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` without touching ``_cache``."""
        return self._normalize(x)[0]

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        xhat, std = self._cache
        dim = xhat.shape[-1]
        if self.gamma.trainable:
            self.gamma.grad += np.add.reduce(
                (grad_y * xhat).reshape(-1, dim), axis=0)
            self.beta.grad += np.add.reduce(grad_y.reshape(-1, dim),
                                            axis=0)
        dxhat = grad_y * self.gamma.value
        grad_x = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / dim
        grad_x -= xhat * (np.add.reduce(dxhat * xhat, axis=-1,
                                        keepdims=True) / dim)
        grad_x *= 1.0 / std
        return grad_x

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]


def attention_probs(q: np.ndarray, k: np.ndarray,
                    mask: np.ndarray | None) -> np.ndarray:
    """softmax(q k^T / sqrt(d_head)) over split heads (B, H, T, d_head),
    with the keys where ``mask`` is true set to -1e9 first (``None``
    masks nothing).  After the max-subtraction those exp to an exact
    0.0, so masked keys add nothing to ``probs @ v``."""
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        np.copyto(scores, -1e9, where=mask)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


@functools.lru_cache(maxsize=256)
def causal_mask(seq: int) -> np.ndarray:
    """The read-only (T, T) mask of the keys after each query, shared
    by every call with that length."""
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


class CausalSelfAttention:
    def __init__(self, rng: np.random.Generator, d_model: int,
                 n_heads: int):
        if d_model % n_heads:
            raise ValueError("n_heads must divide d_model")
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.q_proj = Linear(rng, d_model, d_model)
        self.k_proj = Linear(rng, d_model, d_model)
        self.v_proj = Linear(rng, d_model, d_model)
        self.out_proj = Linear(rng, d_model, d_model)
        self._cache = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.n_heads, self.d_head) \
            .transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, d_head = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * d_head)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split(self.q_proj.forward(x))
        k = self._split(self.k_proj.forward(x))
        v = self._split(self.v_proj.forward(x))
        probs = attention_probs(q, k, causal_mask(x.shape[1]))
        self._cache = (q, k, v, probs)
        return self.out_proj.forward(self._merge(probs @ v))

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        q, k, v, probs = self._cache
        scale = 1.0 / np.sqrt(self.d_head)
        grad_context = self._split(self.out_proj.backward(grad_y))
        grad_probs = grad_context @ v.transpose(0, 1, 3, 2)
        grad_v = probs.transpose(0, 1, 3, 2) @ grad_context
        # softmax backward
        grad_scores = probs * (grad_probs
                               - (grad_probs * probs).sum(axis=-1,
                                                          keepdims=True))
        grad_q = grad_scores @ k * scale
        grad_k = grad_scores.transpose(0, 1, 3, 2) @ q * scale
        return (self.q_proj.backward(self._merge(grad_q))
                + self.k_proj.backward(self._merge(grad_k))
                + self.v_proj.backward(self._merge(grad_v)))

    def params(self) -> list[Param]:
        return (self.q_proj.params() + self.k_proj.params()
                + self.v_proj.params() + self.out_proj.params())


class MLP:
    def __init__(self, rng: np.random.Generator, d_model: int, d_ff: int):
        self.fc1 = Linear(rng, d_model, d_ff)
        self.fc2 = Linear(rng, d_ff, d_model)
        self._pre_act = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.fc1.forward(x)
        self._pre_act = hidden
        return self.fc2.forward(np.maximum(hidden, 0.0))

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        grad_hidden = self.fc2.backward(grad_y)
        grad_hidden = grad_hidden * (self._pre_act > 0)
        return self.fc1.backward(grad_hidden)

    def params(self) -> list[Param]:
        return self.fc1.params() + self.fc2.params()


class Block:
    def __init__(self, rng: np.random.Generator, d_model: int,
                 n_heads: int, d_ff: int):
        self.ln1 = LayerNorm(d_model)
        self.attn = CausalSelfAttention(rng, d_model, n_heads)
        self.ln2 = LayerNorm(d_model)
        self.mlp = MLP(rng, d_model, d_ff)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward(self.ln1.forward(x))
        return x + self.mlp.forward(self.ln2.forward(x))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = grad + self.ln2.backward(self.mlp.backward(grad))
        return grad + self.ln1.backward(self.attn.backward(grad))

    def params(self) -> list[Param]:
        return (self.ln1.params() + self.attn.params()
                + self.ln2.params() + self.mlp.params())


@dataclass
class TransformerConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 128
    seed: int = 0


class TinyTransformerLM:
    """Decoder-only LM over integer token ids."""

    def __init__(self, config: TransformerConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(config.d_model)
        self.tok_emb = Param(rng.normal(0, scale, (config.vocab_size,
                                                   config.d_model)))
        self.pos_emb = Param(rng.normal(0, scale, (config.max_len,
                                                   config.d_model)))
        self.blocks = [Block(rng, config.d_model, config.n_heads,
                             config.d_ff)
                       for _ in range(config.n_layers)]
        self.ln_final = LayerNorm(config.d_model)
        self.head = Linear(rng, config.d_model, config.vocab_size)
        self._cache_ids = None

    # -- forward/backward -----------------------------------------------

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """(B, T) ids → (B, T, V) logits."""
        if ids.shape[1] > self.config.max_len:
            raise ValueError("sequence longer than max_len")
        self._cache_ids = ids
        x = self.tok_emb.value[ids] + self.pos_emb.value[:ids.shape[1]]
        for block in self.blocks:
            x = block.forward(x)
        x = self.ln_final.forward(x)
        return self.head.forward(x)

    def loss_and_backward(self, ids: np.ndarray,
                          targets: np.ndarray) -> float:
        """Cross-entropy on next-token targets; backprop into grads."""
        logits = self.forward(ids)
        batch, seq, vocab = logits.shape
        # Softmax in place: the logits buffer becomes probs, then grad.
        probs = logits.reshape(-1, vocab)
        probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
        flat_targets = targets.reshape(-1)
        valid = flat_targets >= 0
        count = max(int(valid.sum()), 1)
        idx = np.arange(probs.shape[0])
        safe_targets = np.where(valid, flat_targets, 0)
        loss = -np.log(np.maximum(
            probs[idx, safe_targets], 1e-12))[valid].sum() / count
        grad = probs
        grad[idx[valid], safe_targets[valid]] -= 1.0
        grad[~valid] = 0.0
        grad /= count
        self.backward(grad.reshape(batch, seq, vocab))
        return float(loss)

    def backward(self, grad_logits: np.ndarray) -> None:
        grad = self.head.backward(grad_logits)
        grad = self.ln_final.backward(grad)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        ids = self._cache_ids
        if self.tok_emb.trainable:
            np.add.at(self.tok_emb.grad, ids.reshape(-1),
                      grad.reshape(-1, grad.shape[-1]))
        if self.pos_emb.trainable:
            self.pos_emb.grad[:ids.shape[1]] += grad.sum(axis=0)

    def evaluate_loss(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """Cross-entropy without touching gradients."""
        logits = self.forward(ids)
        vocab = logits.shape[-1]
        flat = logits.reshape(-1, vocab)
        flat -= np.maximum.reduce(flat, axis=1, keepdims=True)
        flat_targets = targets.reshape(-1)
        valid = flat_targets >= 0
        safe = np.where(valid, flat_targets, 0)
        picked = flat[np.arange(flat.shape[0]), safe]
        np.exp(flat, out=flat)
        nll = (np.log(np.add.reduce(flat, axis=1)) - picked)[valid]
        return float(nll.mean()) if nll.size else 0.0

    # -- parameter access --------------------------------------------------

    def params(self) -> list[Param]:
        out = [self.tok_emb, self.pos_emb]
        for block in self.blocks:
            out.extend(block.params())
        out.extend(self.ln_final.params())
        out.extend(self.head.params())
        return out

    def trainable_params(self) -> list[Param]:
        return [p for p in self.params() if p.trainable]

    def num_parameters(self, trainable_only: bool = False) -> int:
        pool = self.trainable_params() if trainable_only else self.params()
        return sum(p.value.size for p in pool)

    def freeze_base(self) -> None:
        """Freeze everything (LoRA adapters added afterwards stay live)."""
        for param in self.params():
            param.trainable = False

    def attention_linears(self) -> list[Linear]:
        """The q/v projections LoRA attaches to."""
        out = []
        for block in self.blocks:
            out.append(block.attn.q_proj)
            out.append(block.attn.v_proj)
        return out

    # -- generation --------------------------------------------------------

    def generate(self, prefix: list[int], max_tokens: int = 16,
                 temperature: float = 0.0, seed: int = 0) -> list[int]:
        """Naive decoding: one last-position :func:`forward` over the
        whole window per emitted token (the reference the batched
        decoder in :mod:`repro.infer.decode` is token-identical to)."""
        rng = np.random.default_rng(seed)
        out = list(prefix)
        for _ in range(max_tokens):
            window = np.array([out[-self.config.max_len:]])
            out.append(pick(forward(self, window, last_only=True)[0],
                            temperature, rng))
        return out


def forward(model: TinyTransformerLM, ids: np.ndarray, *,
            positions: np.ndarray | None = None, cache=None,
            last_only: bool = False) -> np.ndarray:
    """Side-effect-free inference forward over ``ids`` (B, T).

    Same arithmetic as :meth:`TinyTransformerLM.forward` (LoRA adapters
    included when attached) through the ``apply`` helpers, so nothing is
    written to the model's backprop caches and concurrent calls are
    safe.  Returns (B, T, V) logits, or (B, V) for the last position
    with ``last_only``: the last block still projects keys/values for
    every position, but its queries, attention, MLP, final LN and head
    run for the last position only.

    ``positions`` are the tokens' absolute positions, ``0..T-1`` by
    default, or (B, T) for per-row positions.  With ``cache=(layer_kv,
    rows)`` — per layer a ``(keys, values)`` pair of (N, H, max_len,
    d_head) arrays — the new keys/values are stored at ``rows ×
    positions`` and each query attends over its row's cached prefix;
    without it, over ``ids`` themselves.  Either way a key is masked
    when its position is greater than the query's.  With default
    positions, ``T > max_len`` raises ``ValueError`` as the training
    forward does.
    """
    seq = ids.shape[1]
    default_positions = positions is None
    if default_positions and seq > model.config.max_len:
        raise ValueError("sequence longer than max_len")
    if cache is not None:
        layer_kv, rows = cache
        if default_positions:
            positions = np.arange(seq)
        n_keys = int(positions.max()) + 1
    x = model.tok_emb.value.take(ids, axis=0)
    if default_positions:
        x += model.pos_emb.value[:seq]
        mask = causal_mask(seq)
    else:
        x += model.pos_emb.value.take(positions, axis=0)
        key_positions = positions if cache is None else np.arange(n_keys)
        # (1, T, W) for shared positions, (B, 1, T, W) for per-row ones;
        # either broadcasts over the heads of the (B, H, T, W) scores.
        mask = (key_positions[..., None, :]
                > positions[..., None])[..., None, :, :]
    last = len(model.blocks) - 1
    for index, block in enumerate(model.blocks):
        attn = block.attn
        h = block.ln1.apply(x)
        k = attn._split(attn.k_proj.apply(h))
        v = attn._split(attn.v_proj.apply(h))
        if cache is not None:
            cache_k, cache_v = layer_kv[index]
            slots = (rows[:, None], slice(None), positions)
            cache_k[slots] = k.transpose(0, 2, 1, 3)
            cache_v[slots] = v.transpose(0, 2, 1, 3)
            k = cache_k[rows, :, :n_keys]
            v = cache_v[rows, :, :n_keys]
        if last_only and index == last:
            # Keys/values above cover every position; the query and
            # everything after it narrow to the last one.  With default
            # positions no key comes after that query, so nothing is
            # masked.
            x, h = x[:, -1:], h[:, -1:]
            mask = None if default_positions else mask[..., -1:, :]
        q = attn._split(attn.q_proj.apply(h))
        x += attn.out_proj.apply(
            attn._merge(attention_probs(q, k, mask) @ v))
        hidden = block.mlp.fc1.apply(block.ln2.apply(x))
        x += block.mlp.fc2.apply(np.maximum(hidden, 0.0, out=hidden))
    logits = model.head.apply(model.ln_final.apply(x))
    return logits[:, -1] if last_only else logits


def pick(logits: np.ndarray, temperature: float,
         rng: np.random.Generator) -> int:
    """One token id from a (V,) logits row: the argmax when
    ``temperature <= 0``, else one ``rng`` draw from
    ``softmax(logits / temperature)`` by inverse CDF — the algorithm
    ``rng.choice(V, p=probs)`` runs (one ``rng.random()``, ``side=
    "right"``), so the ids and the stream match it.  Of its checks only
    the NaN one can fail here (NaN logits, or a temperature so small
    that ``logits / temperature`` overflows), and it is kept."""
    if temperature <= 0:
        return int(logits.argmax())
    probs = logits / temperature
    probs -= probs.max()
    np.exp(probs, out=probs)
    probs /= probs.sum()
    cdf = probs.cumsum()
    if np.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class Adam:
    """Adam over the trainable params, on one flat state.

    Each param's ``grad``, ``m`` and ``v`` become views of three flat
    buffers (holding their current values), so :meth:`zero_grad` is one
    store and :meth:`step` one vectorised update into preallocated
    scratch, then one ``value -=`` per param.  The arithmetic is the
    per-param update's, element for element.  Code that restores state
    must copy into the views (``param.m[...] = saved``); rebinding them
    detaches the param from the optimizer.
    """

    def __init__(self, params: list[Param], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.grad, self.m, self.v = (
            np.concatenate([getattr(p, name).ravel() for p in self.params]
                           + [np.zeros(0)])
            for name in ("grad", "m", "v"))
        self._update = np.empty_like(self.grad)
        self._scratch = np.empty_like(self.grad)
        self._param_updates = []
        offset = 0
        for param in self.params:
            span = slice(offset, offset + param.value.size)
            offset = span.stop
            shape = param.value.shape
            param.grad = self.grad[span].reshape(shape)
            param.m = self.m[span].reshape(shape)
            param.v = self.v[span].reshape(shape)
            self._param_updates.append((param, self._update[span]
                                        .reshape(shape)))

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1 - self.beta1 ** self.step_count
        correction2 = 1 - self.beta2 ** self.step_count
        grad, m, v = self.grad, self.m, self.v
        update, scratch = self._update, self._scratch
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.square(grad, out=scratch)
        scratch *= 1 - self.beta2
        v += scratch
        # update = lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, correction1, out=update)
        update *= self.lr
        np.divide(v, correction2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        update /= scratch
        for param, param_update in self._param_updates:
            param.value -= param_update

    def zero_grad(self) -> None:
        self.grad[...] = 0.0
