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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        y = x @ self.weight.value.T + self.bias.value
        if self.lora is not None:
            y = y + self.lora.forward(x)
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: same arithmetic as :meth:`forward`
        (same expression order, so results are bit-identical) without
        caching ``x`` — safe to call concurrently and mid-training."""
        y = x @ self.weight.value.T + self.bias.value
        if self.lora is not None:
            y = y + (x @ self.lora.A.value.T) @ self.lora.B.value.T \
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
            grad_x = grad_x + self.lora.backward(grad_y)
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        xhat = (x - mu) / np.sqrt(var + self.eps)
        self._cache = (xhat, var)
        return xhat * self.gamma.value + self.beta.value

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward, bit-identical to :meth:`forward`
        (statistics are row-local) without touching ``_cache``."""
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        xhat = (x - mu) / np.sqrt(var + self.eps)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        xhat, var = self._cache
        dim = xhat.shape[-1]
        if self.gamma.trainable:
            self.gamma.grad += (grad_y * xhat).reshape(-1, dim).sum(axis=0)
            self.beta.grad += grad_y.reshape(-1, dim).sum(axis=0)
        dxhat = grad_y * self.gamma.value
        inv_std = 1.0 / np.sqrt(var + self.eps)
        return inv_std * (dxhat
                          - dxhat.mean(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).mean(axis=-1,
                                                       keepdims=True))

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]


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
        scale = 1.0 / np.sqrt(self.d_head)
        scores = q @ k.transpose(0, 1, 3, 2) * scale
        seq = x.shape[1]
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        scores = np.where(mask, -1e9, scores)
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        context = probs @ v
        self._cache = (q, k, v, probs, scale)
        return self.out_proj.forward(self._merge(context))

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        q, k, v, probs, scale = self._cache
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
        flat = logits.reshape(-1, vocab)
        flat -= flat.max(axis=1, keepdims=True)
        exp = np.exp(flat)
        probs = exp / exp.sum(axis=1, keepdims=True)
        flat_targets = targets.reshape(-1)
        valid = flat_targets >= 0
        count = max(int(valid.sum()), 1)
        idx = np.arange(flat.shape[0])
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
        flat -= flat.max(axis=1, keepdims=True)
        logz = np.log(np.exp(flat).sum(axis=1))
        flat_targets = targets.reshape(-1)
        valid = flat_targets >= 0
        idx = np.arange(flat.shape[0])
        safe = np.where(valid, flat_targets, 0)
        nll = (logz - flat[idx, safe])[valid]
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
            window = out[-self.config.max_len:]
            logits = forward(self, np.array([window]), last_only=True)[0]
            if temperature <= 0:
                out.append(int(logits.argmax()))
            else:
                scaled = logits / temperature
                scaled -= scaled.max()
                probs = np.exp(scaled)
                probs /= probs.sum()
                out.append(int(rng.choice(len(probs), p=probs)))
        return out


def forward(model: TinyTransformerLM, ids: np.ndarray, *,
            last_only: bool = False, return_kv: bool = False):
    """Side-effect-free inference forward over ``ids`` (B, T).

    Same arithmetic as :meth:`TinyTransformerLM.forward` (LoRA adapters
    included when attached) through the ``apply`` helpers, so nothing is
    written to the model's backprop caches and concurrent calls are
    safe.  Returns (B, T, V) logits, or (B, V) for the last position
    with ``last_only``: the last block still projects keys/values for
    the whole window, but its queries, attention, MLP, final LN and head
    run for the last position only.  With ``return_kv`` the result is
    ``(logits, layer_kv)``, each layer's split keys/values
    ``(B, H, T, d_head)`` — what the KV-cache prefill stores.
    """
    x = model.tok_emb.value[ids] + model.pos_emb.value[:ids.shape[1]]
    seq = ids.shape[1]
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    layer_kv = []
    last = len(model.blocks) - 1
    for index, block in enumerate(model.blocks):
        attn = block.attn
        h = block.ln1.apply(x)
        k = attn._split(attn.k_proj.apply(h))
        v = attn._split(attn.v_proj.apply(h))
        layer_kv.append((k, v))
        if last_only and index == last:
            # Keys/values above cover the whole window; the query and
            # everything after it narrow to the last position.
            x, h, mask = x[:, -1:], h[:, -1:], mask[-1:]
        q = attn._split(attn.q_proj.apply(h))
        scale = 1.0 / np.sqrt(attn.d_head)
        scores = q @ k.transpose(0, 1, 3, 2) * scale
        scores = np.where(mask, -1e9, scores)
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        x = x + attn.out_proj.apply(attn._merge(probs @ v))
        hidden = block.mlp.fc1.apply(block.ln2.apply(x))
        x = x + block.mlp.fc2.apply(np.maximum(hidden, 0.0))
    logits = model.head.apply(model.ln_final.apply(x))
    if last_only:
        logits = logits[:, -1]
    return (logits, layer_kv) if return_kv else logits


class Adam:
    """Adam optimizer over :class:`Param` lists."""

    def __init__(self, params: list[Param], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1 - self.beta1 ** self.step_count
        correction2 = 1 - self.beta2 ** self.step_count
        for param in self.params:
            param.m = self.beta1 * param.m + (1 - self.beta1) * param.grad
            param.v = self.beta2 * param.v + \
                (1 - self.beta2) * param.grad ** 2
            m_hat = param.m / correction1
            v_hat = param.v / correction2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
